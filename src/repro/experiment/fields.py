"""Field tables: each field of a configuration value declared once.

A table is a tuple of :class:`Field` entries, in declaration order, that
drives a value's checks and its JSON codec.  A rule, ``rule(value, what)``,
returns the normalised value or raises a :class:`~repro.errors.ModelError`
whose message starts with *what*: the field's name, or ``"<format> field
'<name>'"`` when decoding (then a :class:`~repro.errors.FormatError`).
Rules are idempotent: ``dataclasses.replace`` re-runs them.
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Collection, Dict, Mapping, NamedTuple, Optional, Tuple

from ..errors import FPPNError, FormatError, ModelError

Rule = Callable[[Any, str], Any]
_BAD_VALUE = (TypeError, ValueError, OverflowError)


class Field(NamedTuple):
    """One field of a table: its rule, its JSON codec and its key roles."""

    name: str
    rule: Rule
    #: The JSON codec of a non-null value (``None``: the value itself).
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None
    #: The stage key it joins: "derivation", "schedule" or "runtime" (none).
    stage: str = "runtime"
    #: Left out of documents and stage keys while ``None`` (its default).
    omit: bool = False
    #: Documents must hold it; an absent field takes the default.
    required: bool = False


def check(field: Field, value: Any, what: str) -> Any:
    """*value* checked and normalised by *field*'s rule."""
    try:
        return field.rule(value, what)
    except _BAD_VALUE as exc:
        raise ModelError(f"{what}: {exc}") from None


def check_values(table: Any, **values: Any) -> None:
    """Refuse any of *values*, by field name, that its rule refuses."""
    by_name = {field.name: field for field in table}
    for name, value in values.items():
        check(by_name[name], value, name)


def check_all(table: Any, obj: Any) -> None:
    """Normalise every field of the frozen dataclass *obj* in place."""
    for name, rule, _, _, _, _, _ in table:
        value = getattr(obj, name)
        try:
            normal = rule(value, name)
        except _BAD_VALUE as exc:
            raise ModelError(f"{name}: {exc}") from None
        if normal is not value:
            object.__setattr__(obj, name, normal)


def encode_fields(table: Any, obj: Any) -> Dict[str, Any]:
    """*obj*'s fields in their JSON form, in table order."""
    out = {}
    for name, _, encode, _, _, omit, _ in table:
        value = getattr(obj, name)
        if value is None:
            if not omit:
                out[name] = None
        else:
            out[name] = value if encode is None else encode(value)
    return out


def decode_fields(
    table: Any, data: Any, doc: str, extra: Optional[Collection[str]] = None
) -> Dict[str, Any]:
    """The fields a *doc* document holds, decoded and checked, by name.

    Keys outside the table are refused unless *extra* lists them or is
    ``None``.  Every refusal is a FormatError naming the field.
    """
    if not isinstance(data, Mapping):
        raise FormatError(
            f"{doc} document must be a JSON object, got {type(data).__name__}"
        )
    unknown = [] if extra is None else sorted(
        set(data).difference([field.name for field in table], extra)
    )
    if unknown:
        raise FormatError(f"unknown {doc} field(s): {', '.join(unknown)}")
    values = {}
    for field in table:
        name, what = field.name, f"{doc} field {field.name!r}"
        if name not in data:
            if field.required:
                raise FormatError(f"{doc} is missing field {name!r}")
            continue
        value = data[name]
        try:
            if value is not None and field.decode is not None:
                value = field.decode(value)
        except (FPPNError,) + _BAD_VALUE as exc:
            raise FormatError(f"{what}: {exc}") from None
        try:
            values[name] = check(field, value, what)
        except ModelError as exc:
            raise FormatError(str(exc)) from None
    return values


def integer(low: Optional[int] = None) -> Rule:
    """An ``int`` (a ``bool`` is none), at least *low* if given."""
    def rule(value: Any, what: str) -> int:
        if type(value) is not int and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            raise ModelError(f"{what} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ModelError(f"{what} must be >= {low}, got {value!r}")
        return value if type(value) is int else int(value)
    return rule


def real(bounds: str, within: Callable[[Any], bool]) -> Rule:
    """A real number (a ``bool`` is none) *within* *bounds*, as a float."""
    def rule(value: Any, what: str) -> float:
        if type(value) is not float and (
            not isinstance(value, numbers.Real) or isinstance(value, bool)
        ):
            raise ModelError(f"{what} must be a real number, got {value!r}")
        if not within(value):
            raise ModelError(f"{what} must be {bounds}, got {value!r}")
        return value if type(value) is float else float(value)
    return rule


def instance(kind: type, name: str) -> Rule:
    """An instance of *kind*, called *name* in the refusal."""
    def rule(value: Any, what: str) -> Any:
        if not isinstance(value, kind):
            raise ModelError(f"{what} must be {name}, got {value!r}")
        return value
    return rule


def one_of(*choices: Any) -> Rule:
    """One of *choices*."""
    def rule(value: Any, what: str) -> Any:
        if value not in choices:
            raise ModelError(
                f"{what} must be {' or '.join(map(repr, choices))}, got {value!r}"
            )
        return value
    return rule


def names(value: Any, what: str) -> Tuple[str, ...]:
    """A list or tuple of strings, as a tuple."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(n, str) for n in value)):
        raise ModelError(f"{what} must be a list of names, got {value!r}")
    return tuple(value)


def optional(rule: Rule) -> Rule:
    """``None``, or a value *rule* accepts."""
    return lambda value, what: None if value is None else rule(value, what)


boolean = instance(bool, "a bool")
text = instance(str, "a string")

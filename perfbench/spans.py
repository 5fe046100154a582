"""In-memory spans around calls into the program's public functions.

The benchmark does not instrument ``src/``: :meth:`Tracer.wrap` swaps a
module attribute for a timing wrapper (the call sites look the name up
in that module at call time) and :meth:`Tracer.restore` puts the
original back.  Spans carry ``(id, parent, name, start, end, thread)``;
a span's parent is the innermost open span of the same thread.  They are
kept in memory and written out once, by :meth:`Tracer.dump`, when the
run ends.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent, name, t0, t1, threading.get_ident())
                )

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``module.attr`` as span *name*.

        ``after(result, *args)`` sees each call's result and positional
        arguments (to count work done or bytes moved).
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = tracer.span(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t_base = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start_s": t0 - t_base, "end_s": t1 - t_base,
                 "thread": thread}
                for sid, parent, name, t0, t1, thread in self.spans
            ],
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

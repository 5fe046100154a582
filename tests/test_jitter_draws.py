"""The jitter draw rule of :class:`~repro.runtime.executor.JitterSampler`.

Each instance draw is one integer mix of ``(seed, process, k, frame)``:
a BLAKE2b base per ``(seed, process)`` and a splitmix64 finaliser per
instance, mapped onto ``[lo, R]``.  These tests pin the rule — a literal
golden table, the bounds, uniformity, independence from the interpreter's
hash seed — and the seed types it accepts, so that any change of the rule
fails loudly here before it silently moves every jittered row.  The
sampler computes draws in packed passes of up to ``_PASS_LANES`` lanes
and keeps per-frame draw rows per keys column; both must equal the
scalar rule of ``fraction_reference`` draw for draw.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from repro.runtime import JitterSampler, jittered_execution
from repro.runtime.executor import _PASS_LANES

from fraction_reference import _reference_jitter_draw

R = JitterSampler.resolution

#: ``(seed, low_fraction, process, k, frame) -> draw``, written out by
#: hand: a changed draw rule must change this table in the same commit.
GOLDEN = [
    (1, 0.5, "P", 1, 0, 7639),
    (1, 0.5, "P", 2, 0, 9946),
    (1, 0.5, "P", 1, 1, 8699),
    (1, 0.5, "Q", 1, 0, 5570),
    (0, 0.5, "FMS_BCP", 3, 24, 6807),
    (42, 0.25, "P", 7, 3, 8323),
    (-5, 0.1, "S", 1, 2, 5780),
    (2 ** 64 + 3, 0.9, "P", 1, 0, 9564),
]


@pytest.mark.parametrize("seed,low,process,k,frame,draw", GOLDEN)
def test_golden_draws(seed, low, process, k, frame, draw):
    assert jittered_execution(seed, low).draws(frame, [(process, k)]) == [draw]
    assert _reference_jitter_draw(seed, low, process, k, frame) == draw


def _keys(processes=10, ks=200):
    return [(f"P{p}", k) for p in range(processes) for k in range(1, ks + 1)]


def test_draws_match_the_reference_rule_over_many_keys():
    keys = _keys(5, 40)
    for seed, low in ((3, 0.5), (-17, 0.1), (2 ** 70, 0.75), (9, 1.0)):
        sampler = jittered_execution(seed, low)
        for frame in range(4):
            assert sampler.draws(frame, keys) == [
                _reference_jitter_draw(seed, low, p, k, frame)
                for p, k in keys
            ]


@pytest.mark.parametrize("low,lo", [
    (0.1, 1000), (0.3, 3000), (0.5, 5000), (0.7, 7000), (1.0, R),
    (Fraction(1, 4), 2500), (1e-9, 1), (1e-4, 1),
])
def test_lower_bound(low, lo):
    # 60k draws over at most 10k values: both ends turn up.
    sampler = jittered_execution(11, low)
    draws = [d for f in range(30) for d in sampler.draws(f, _keys(10, 200))]
    assert min(draws) == lo
    assert max(draws) == R


def test_both_ends_are_reached_on_a_narrow_span():
    # lo = 9990: eleven values, every one of them drawn.
    sampler = jittered_execution(5, 0.999)
    draws = sampler.draws(0, _keys(10, 100))
    assert set(draws) == set(range(9990, R + 1))


#: Upper 0.1% point of the chi-square distribution with 19 degrees of
#: freedom (20 bins).
CHI2_19_999 = 43.820


@pytest.mark.parametrize("low", [0.5, 0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 2015])
def test_draws_are_uniform(low, seed):
    sampler = jittered_execution(seed, low)
    lo = max(1, round(low * R))
    span = R - lo + 1
    draws = [d for f in range(10) for d in sampler.draws(f, _keys(10, 200))]
    if span == 1:
        assert set(draws) == {R}
        return
    bins = 20
    # Expected count per bin in proportion to the integers it holds.
    width = [0] * bins
    for v in range(span):
        width[v * bins // span] += 1
    observed = [0] * bins
    for d in draws:
        observed[(d - lo) * bins // span] += 1
    n = len(draws)
    chi2 = sum(
        (o - n * w / span) ** 2 / (n * w / span)
        for o, w in zip(observed, width)
    )
    assert chi2 < CHI2_19_999, (chi2, observed)


def test_seed_and_instance_coordinates_all_move_the_draw():
    keys = _keys(10, 50)
    base = jittered_execution(1).draws(0, keys)
    for other in (
        jittered_execution(2).draws(0, keys),
        jittered_execution(1).draws(1, keys),
        jittered_execution(1).draws(0, [(p, k + 1) for p, k in keys]),
    ):
        same = sum(a == b for a, b in zip(base, other))
        assert same < len(keys) // 20


@pytest.mark.parametrize("seeds", [
    (-1, 1), (-2 ** 63, 2 ** 63), (2 ** 64, 0), (2 ** 64 + 1, 1),
    (2 ** 100, 2 ** 100 + 1),
])
def test_negative_and_huge_seeds_draw_validly_and_differently(seeds):
    keys = _keys(4, 50)
    a, b = (jittered_execution(s, 0.3).draws(0, keys) for s in seeds)
    assert all(3000 <= d <= R for d in a + b)
    assert a != b


@pytest.mark.parametrize("seed", [1.0, True, False, "1", None, Fraction(1)])
def test_sampler_rejects_non_int_seeds(seed):
    with pytest.raises(TypeError, match="jitter seed must be an int"):
        JitterSampler(seed)
    with pytest.raises(TypeError, match="jitter seed must be an int"):
        jittered_execution(seed)


@pytest.mark.parametrize("low", [True, False])
def test_sampler_rejects_bool_low_fractions(low):
    # True == 1 would otherwise pass the range check as low_fraction 1.
    with pytest.raises(TypeError, match="low_fraction must be a real"):
        JitterSampler(1, low_fraction=low)


def _random_keys(rng, n, processes):
    """*n* keys over *processes* names, a quarter with ``k >= 2**64``."""
    return [
        (f"P{rng.randrange(processes)}",
         rng.randrange(2 ** 64, 2 ** 66) if rng.random() < 0.25
         else rng.randrange(1, 60))
        for _ in range(n)
    ]


def _reference_row(seed, low, keys, frame):
    return [_reference_jitter_draw(seed, low, p, k, frame) for p, k in keys]


@pytest.mark.parametrize("lanes", [
    1, _PASS_LANES - 1, _PASS_LANES, _PASS_LANES + 1, 3 * _PASS_LANES + 5,
])
def test_packed_passes_match_the_scalar_rule(lanes):
    rng = random.Random(lanes)
    for seed, low in (
        (rng.randrange(-2 ** 70, 0), 0.5),
        (rng.randrange(2 ** 64, 2 ** 70), 1.0),   # span 1: every draw is R
        (rng.randrange(1000), 1e-9),               # lo = 1: the widest span
        (rng.randrange(1000), rng.uniform(0.05, 0.95)),
    ):
        keys = _random_keys(rng, lanes, processes=300)
        frame = rng.randrange(-5, 10 ** 6)
        assert jittered_execution(seed, low).draws(frame, keys) == (
            _reference_row(seed, low, keys, frame)
        )


@pytest.mark.parametrize("n", [
    1, 7, _PASS_LANES // 3 + 1, _PASS_LANES, _PASS_LANES + 1,
])
def test_draw_rows_grow_aligned_to_their_keys_column(n):
    # Rows are drawn in blocks of whole frames (one pass for up to
    # _PASS_LANES lanes), or frame by frame in several passes when one
    # frame is wider; a table drawn to 3 frames and grown to 25 keeps its
    # first rows and equals the scalar rule on every row.
    rng = random.Random(n)
    seed, low = rng.randrange(-2 ** 65, 2 ** 65), 0.3
    keys = _random_keys(rng, n, processes=50)
    sampler = jittered_execution(seed, low)
    first = sampler._rows(keys, 3)
    grown = sampler._rows(keys, 25)
    assert len(first) == 3 and len(grown) == 25
    assert all(a is b for a, b in zip(first, grown))
    assert all(type(row) is array and row.typecode == "H" for row in grown)
    for frame, row in enumerate(grown):
        assert row.tolist() == _reference_row(seed, low, keys, frame)
    # A later run reads the same rows: nothing is drawn again.
    assert all(a is b for a, b in zip(sampler._rows(keys, 25), grown))


def test_draw_tables_are_filed_by_keys_column():
    keys = _keys(3, 5)
    sampler = jittered_execution(4)
    rows = sampler._rows(keys, 2)
    (column, _, kept), = sampler._tables.values()
    assert column is keys and kept == rows
    # An equal but distinct column gets its own table, with equal rows.
    assert sampler._rows(list(keys), 2) == rows
    assert len(sampler._tables) == 2


_PROBE = (
    "import json; from repro.runtime import jittered_execution;"
    "s = jittered_execution(77, 0.2);"
    "print(json.dumps([s.draws(f, [('P%d' % p, k) for p in range(6)"
    " for k in range(1, 9)]) for f in range(3)]))"
)


def test_draws_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout
        outputs.append(json.loads(out))
    assert outputs[0] == outputs[1]
    here = jittered_execution(77, 0.2)
    assert outputs[0] == [
        here.draws(f, [(f"P{p}", k) for p in range(6) for k in range(1, 9)])
        for f in range(3)
    ]

"""``benchmarks/run_bench.py --ab``: the alternating A/B comparison tool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import run_bench  # noqa: E402


def test_self_against_self_reports_each_case():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run_bench.py"), "--fast",
         "--ab", str(ROOT), "e1_fig1_derivation", "e2_fig4_schedule",
         "--rounds", "3"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    assert "A/B over 3 rounds" in out
    rows = [line.split() for line in out.splitlines()
            if line.startswith(("e1_", "e2_"))]
    assert [r[0] for r in rows] == ["e1_fig1_derivation", "e2_fig4_schedule"]
    for row in rows:
        assert row[-2].endswith("x") and row[-1].endswith("/3")


@pytest.mark.parametrize("argv, message", [
    (["--ab", str(ROOT), "no_such_case"], "unknown cases"),
    (["--ab", "/nonexistent-tree", "e2_fig4_schedule"], "has no src/repro"),
])
def test_refusals_start_no_worker(argv, message, capsys):
    assert run_bench.main(argv) == 2
    assert message in capsys.readouterr().err


def test_ab_needs_a_case():
    with pytest.raises(SystemExit):
        run_bench.main(["--ab", str(ROOT)])

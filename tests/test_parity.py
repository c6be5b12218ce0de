"""Artifacts are byte-identical for a given seed: tools/parity.py's command
matrix, at smoke size, run twice on this tree gives the same hashes."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def parity():
    sys.path.insert(0, str(TOOLS))
    try:
        import parity
    finally:
        sys.path.remove(str(TOOLS))
    return parity


def test_smoke_matrix_is_deterministic(parity, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    parity.run_matrix(first, smoke=True)
    parity.run_matrix(second, smoke=True)
    a, b = parity.hashes(first), parity.hashes(second)
    assert parity.differing(a, b) == []
    logs = sorted(first.glob("*/*.log"))
    # 3 configs x (2 trains, 16 prunes and their evals, 2 distills and their
    # evals, 3 analyses, 2 sweeps, and a train, a prune and a distill by flags)
    assert len(logs) == 3 * 46
    assert all(p.read_text().startswith("exit 0\n") for p in logs)
    # the top-1 config has idle experts, so sparsegpt's fallback runs
    report = json.loads((first / "top1" / "sparsegpt-0.5-dense" / "prune_report.json").read_text())
    assert any("fallback" in t["method"] for t in report["targets"])


def test_masked_output_path_and_differences(parity, tmp_path):
    for side, text in (("a", "same"), ("b", "same")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "log").write_text(f"{tmp_path / side}/x {text}")
        (tmp_path / side / f"only-{side}").write_text("")
    a, b = parity.hashes(tmp_path / "a"), parity.hashes(tmp_path / "b")
    assert a["log"] == b["log"]
    assert parity.differing(a, b) == ["only-a", "only-b"]

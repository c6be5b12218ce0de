"""The benchmark's tracer wraps moeprune functions by name (bench/tracer.py).

Building a Recorder resolves every binding, so a renamed or deleted function
fails here, in the tier-1 suite, rather than only in the benchmark's own run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer


def test_every_binding_resolves_and_is_restored(tracer):
    rec = tracer.Recorder()
    patches = rec.patches
    assert len(patches) == 39
    assert len({(id(owner), attr) for owner, attr, _, _ in patches}) == len(patches)
    for owner, attr, original, wrapper in patches:
        assert getattr(owner, attr) is original
        assert callable(original) and wrapper is not original
    with rec.installed():
        for owner, attr, _, wrapper in patches:
            assert getattr(owner, attr) is wrapper, attr
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, attr


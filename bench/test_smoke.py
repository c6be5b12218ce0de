"""The benchmark's own test: smoke mode runs every workload at minimal size.

    python -m pytest bench
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def test_smoke_emits_every_metric_and_passes_every_check():
    res = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=RUN.parent.parent,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert res.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "prune-toy",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout

"""tools/bench_record.py on canned bench/run.py output: the parser, the
per-metric summary and --compare."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def rec():
    sys.path.insert(0, str(TOOLS))
    try:
        import bench_record
    finally:
        sys.path.remove(str(TOOLS))
    return bench_record


def run_stdout(seed, wall_s, tokens_per_s, rss_mb, ppl=12.5, failed=0) -> str:
    """What bench/run.py --trace 0 prints, less the env's detail."""
    def metric(value, unit):
        return {"value": value, "unit": unit}

    e2e = {"wall_s": metric(wall_s, "s"), "eval_tokens_per_s": metric(tokens_per_s, "tok/s"),
           "ppl_pruned": metric(ppl, "ppl"), "peak_rss_mb": metric(rss_mb, "MB")}
    return "\n".join([
        json.dumps({"env": {"python": "3.11.7", "nproc": 2}}),
        "a line that is not JSON",
        json.dumps({"report": {"workload": "prune-wide", "seed": seed, "rounds": 4,
                               "round_walls_s": [wall_s] * 4, "setup_runs_s": [0.6] * 3,
                               "failures": [],
                               "metrics": {**e2e, "prune_s": metric(0.3, "s")}}}),
        json.dumps({"correct": not failed, "attempted": 30, "failed": failed, "metrics": e2e}),
    ]) + "\n"


def test_parse_run_reads_env_report_and_result(rec):
    run = rec.parse_run(run_stdout(7, 0.75, 2.0e4, 200.5, failed=1))
    assert run["env"] == {"python": "3.11.7", "nproc": 2}
    assert run["metrics"] == {"wall_s": 0.75, "eval_tokens_per_s": 2.0e4,
                              "peak_rss_mb": 200.5, "prune_s": 0.3}
    assert run["outputs"] == {"ppl_pruned": 12.5}
    assert (run["rounds"], run["failed"], run["attempted"]) == (4, 1, 30)


def test_parse_run_without_result_line_is_an_error(rec):
    with pytest.raises(ValueError, match="result line"):
        rec.parse_run("".join(run_stdout(0, 1.0, 1.0, 1.0).splitlines(True)[:3]))


def test_summary_and_seeds(rec):
    assert rec.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 1.5, "q3": 4.5,
                                                      "iqr": 3.0}
    assert rec.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert rec.parse_seeds("40-42,7") == [40, 41, 42, 7]


def record_file(rec, path, runs, proc_minflt) -> Path:
    parsed = [{"seed": s, **rec.parse_run(run_stdout(s, *values))} for s, *values in runs]
    for run, faults in zip(parsed, proc_minflt):
        run["metrics"]["proc_minflt"] = faults
    path.write_text(json.dumps(
        {"sides": {"change": {"workloads": {"prune-wide": rec.side_record(parsed)}}}}))
    return path


def test_compare_prints_ratio_and_wins(rec, tmp_path, capsys):
    # seed, wall_s, eval_tokens_per_s, peak_rss_mb(, ppl)
    a = record_file(rec, tmp_path / "a.json",
                    [(1, 0.80, 2.0e4, 215.0), (2, 0.70, 2.2e4, 214.0), (3, 0.90, 1.8e4, 216.0)],
                    [800_000, 810_000, 820_000])
    b = record_file(rec, tmp_path / "b.json",
                    [(1, 0.75, 2.1e4, 200.0), (2, 0.72, 2.3e4, 201.0),
                     (3, 0.70, 1.9e4, 199.0, 12.75)],
                    [40_000, 41_000, 42_000])
    assert rec.main(["--compare", str(a), str(b)]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["prune-wide:"] == "prune-wide: outputs equal on 2/3 seeds"
    # medians 0.80 -> 0.72, won at seeds 1 and 3; A's IQR is 0.2
    assert "x0.900" in lines["wall_s"] and lines["wall_s"].endswith("wins 2/3")
    # higher is better for a rate: won at every seed, but within A's IQR
    assert lines["eval_tokens_per_s"].endswith("wins 3/3")
    assert "x0.930" in lines["peak_rss_mb"] and lines["peak_rss_mb"].endswith("wins 3/3  clears")
    assert "x0.051" in lines["proc_minflt"] and lines["proc_minflt"].endswith("clears")

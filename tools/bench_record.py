"""Benchmark record: the end-to-end metrics of bench/run.py, per seed, for the
working tree and optionally a git ref, in one JSON file.

    python tools/bench_record.py --parent <ref> --seeds 40-49 --out BENCH_<n>.json
    python tools/bench_record.py --compare A.json B.json

For each workload in BENCHMARK.json and each seed, runs the committed `bench/run.py --workload W
--seed S --seconds N --trace 0` in its own process, from the working tree
and, given --parent, from `<ref>`'s tree (extracted as tools/parity.py
does); the two sides alternate which runs first. It parses the env, report
and result lines that run.py prints, and reads the child's own counters
from os.wait4: proc_minflt (minor page faults) and proc_sys_s (system CPU
seconds), over the whole process, set-up included. (run.py's peak_rss_mb is
the child's ru_maxrss already.)

The file holds, per side ("change", and "parent" given --parent) and
workload, each seed's metrics and outputs (perplexities), and the median
and quartiles of each metric. With --parent it also holds the comparison
that --compare prints: per workload and metric, the new side's median over
the base side's, and the pairs (same workload and seed) the new side wins.
A metric ending in _per_s is better higher, any other lower. A row is
marked "clears" when the new side wins at least 9 in 10 pairs and the
medians differ by more than the base side's interquartile range.
--compare A.json B.json compares B's "change" side against A's.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from parity import REPO, checkout

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
# outputs of a run, not costs: recorded per seed, compared for equality
OUTPUTS = ("ppl_pruned", "ppl_distilled")


def parse_run(stdout: str) -> dict:
    """One run.py run from its stdout: {env, metrics, outputs, failed,
    attempted, rounds}. metrics are the report line's values (the result
    line's are among them), less the OUTPUTS."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    env = next((d["env"] for d in lines if "env" in d), None)
    report = next((d["report"] for d in lines if "report" in d), None)
    result = next((d for d in lines if "correct" in d), None)
    if env is None or report is None or result is None:
        raise ValueError("run.py printed no env, report or result line")
    values = {n: m["value"] for n, m in report["metrics"].items()}
    values |= {n: m["value"] for n, m in result["metrics"].items()}
    return {"env": env, "rounds": report["rounds"],
            "metrics": {n: v for n, v in values.items() if n not in OUTPUTS},
            "outputs": {n: v for n, v in values.items() if n in OUTPUTS},
            "failed": result["failed"], "attempted": result["attempted"]}


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of tree's bench/run.py, parsed, with the child's counters."""
    # run.py puts its own tree's src/ first on sys.path
    proc = subprocess.Popen([sys.executable, "bench/run.py", "--workload", workload,
                             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                            cwd=tree, stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{tree}: bench/run.py --workload {workload} --seed {seed} "
                         f"exited {proc.returncode}")
    run = parse_run(stdout)
    run["metrics"] |= {"proc_minflt": usage.ru_minflt, "proc_sys_s": usage.ru_stime}
    return {"seed": seed, **run}


def summary(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles' default method); a single
    value is its own median and quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def side_record(runs: list[dict]) -> dict:
    """A side's record of one workload: its runs, each metric's summary and
    the outputs by seed."""
    names = [n for n in runs[0]["metrics"] if all(n in r["metrics"] for r in runs)]
    return {
        "runs": [{k: r[k] for k in ("seed", "rounds", "failed", "attempted", "metrics")}
                 for r in runs],
        "summary": {n: summary([r["metrics"][n] for r in runs]) for n in names},
        "outputs": {str(r["seed"]): r["outputs"] for r in runs},
    }


def compare(base: dict, new: dict) -> dict:
    """Per workload in both and metric in both: the ratio of medians
    (new/base), the pairs of runs at one seed that new wins (ties count for
    neither), and whether the claim rule clears; plus the seeds whose
    outputs are equal."""
    out = {}
    for w in [w for w in new if w in base]:
        b_runs = {r["seed"]: r for r in base[w]["runs"]}
        pairs = [(b_runs[r["seed"]], r) for r in new[w]["runs"] if r["seed"] in b_runs]
        rows = {}
        for m, s in new[w]["summary"].items():
            if m not in base[w]["summary"]:
                continue
            b = base[w]["summary"][m]
            sign = 1 if m.endswith("_per_s") else -1  # higher is better for a rate
            wins = sum(sign * (n["metrics"][m] - o["metrics"][m]) > 0 for o, n in pairs)
            rows[m] = {"base": b["median"], "new": s["median"],
                       "ratio": s["median"] / b["median"] if b["median"] else None,
                       "wins": wins, "pairs": len(pairs),
                       "clears": (wins >= 0.9 * len(pairs) > 0
                                  and abs(s["median"] - b["median"]) > b["iqr"])}
        same = sum(base[w]["outputs"].get(seed) == o for seed, o in new[w]["outputs"].items())
        out[w] = {"metrics": rows, "outputs_equal": same, "seeds": len(new[w]["outputs"])}
    return out


def format_comparison(comparison: dict) -> str:
    lines = []
    for w, c in comparison.items():
        lines.append(f"{w}: outputs equal on {c['outputs_equal']}/{c['seeds']} seeds")
        for m, r in c["metrics"].items():
            ratio = "n/a" if r["ratio"] is None else f"x{r['ratio']:.3f}"
            lines.append(f"  {m:<20} {r['base']:>12.4g} -> {r['new']:<12.4g} {ratio:>7}  "
                         f"wins {r['wins']}/{r['pairs']}{'  clears' if r['clears'] else ''}")
    return "\n".join(lines)


def parse_seeds(text: str) -> list[int]:
    """"40-49" or "1,5,9" (or a mix) as a list of seeds."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def record(parent: str | None, workloads: list[str], seeds: list[int], seconds: float,
           out: Path) -> dict:
    """Run every (workload, seed) on each side, alternating which side goes
    first, and write the record to out after each workload."""
    trees = {"change": REPO}
    sides = {"change": {"tree": f"working tree at {_git('rev-parse', 'HEAD')}"
                                + (" with changes" if _git("status", "--porcelain") else "")}}
    with checkout(parent) if parent else contextlib.nullcontext() as parent_tree:
        if parent:
            trees["parent"] = parent_tree
            sides["parent"] = {"tree": f"{parent} ({_git('rev-parse', parent)})"}
        doc = {"command": "bench/run.py --workload W --seed S --seconds N --trace 0",
               "seconds": seconds, "seeds": seeds,
               "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
               "sides": sides}
        for w in workloads:
            runs = {side: [] for side in trees}
            for i, seed in enumerate(seeds):
                # the parent runs first at even positions, the change at odd
                for side in (list(trees) if i % 2 else list(trees)[::-1]):
                    t0 = perf_counter()
                    run = run_bench(trees[side], w, seed, seconds)
                    sides[side].setdefault("env", run["env"])
                    runs[side].append(run)
                    m = run["metrics"]
                    print(f"{w} seed {seed} {side}: peak_rss_mb {m['peak_rss_mb']:.1f} "
                          f"wall_s {m['wall_s']:.3f} proc_minflt {m['proc_minflt']} "
                          f"({perf_counter() - t0:.0f} s)", file=sys.stderr)
            for side in trees:
                sides[side].setdefault("workloads", {})[w] = side_record(runs[side])
            if parent:
                doc["comparison"] = compare(sides["parent"]["workloads"],
                                            sides["change"]["workloads"])
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="git ref whose bench/run.py alternates with the tree's")
    p.add_argument("--seeds", default="0-9", help='e.g. "40-49" or "1,5,9"')
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--out", type=Path, help="record file to write")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="print B's change side against A's")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(f.read_text())["sides"]["change"]["workloads"]
                for f in args.compare)
        print(format_comparison(compare(a, b)))
        return 0
    if args.out is None:
        p.error("--out is required unless --compare")
    doc = record(args.parent, [w["name"] for w in SPEC["workloads"]],
                 parse_seeds(args.seeds), args.seconds, args.out)
    if "comparison" in doc:
        print(format_comparison(doc["comparison"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

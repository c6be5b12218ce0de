"""moeprune benchmark.

    python3 bench/run.py --workload prune-toy --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Runs one workload in this process, through ``moeprune.cli.main`` on inputs
generated from the seed (see workloads.py). Set-up is repeated (setup_s is
the median) and the last one feeds the measurement; then the workload's fixed
command mix repeats, one round after another, for about --seconds. Each
command's time is its median over the rounds.

--trace 0 reports the end-to-end metrics and never imports tracer.py.
--trace 1 alternates untraced rounds with rounds in which the moeprune modules
are wrapped (tracer.py), and reports per-layer metrics from the traced rounds;
the spans go to .bench_out/trace-<workload>.jsonl.

Every round's outputs are checked (checks.py). Stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}; the lines before it hold the
environment, every end-to-end metric the workload exercises with its unit,
and (traced TOY runs) the stage times next to the ROADMAP baseline.

--smoke runs every workload at minimal size, untraced and traced, and exits 1
unless every metric BENCHMARK.json names is emitted with its unit and every
output check passes.
"""

import os

# One thread everywhere, fixed before numpy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up runs at least SETUPS times, and for at least SETUP_MIN_S in all
# (never longer than the measurement): a cheap set-up is timed more often.
SETUPS = 3
SETUP_MIN_S = 2.0

# End-to-end metrics every workload reports on the result line.
RESULT_E2E = ("setup_s", "wall_s", "eval_tokens_per_s", "ppl_pruned", "peak_rss_mb")
# Every end-to-end metric each workload exercises (the report line).
REPORTED = {
    "prune-toy": RESULT_E2E + ("calib_tokens_per_s", "prune_s", "sweep_point_s",
                               "ops_failed_frac"),
    "train-kd-toy": RESULT_E2E + ("train_tokens_per_s", "kd_tokens_per_s", "ppl_distilled",
                                  "ops_failed_frac"),
    "prune-wide": RESULT_E2E + ("calib_tokens_per_s", "prune_s", "ops_failed_frac"),
}


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS, so it is counted below)

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(), "cpu": cpu,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports at run time."""
    out = {}
    libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def os_threads() -> int:
    for line in open("/proc/self/status"):
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def run_workload(name: str, size_key: str, seed: int, seconds: float, traced: bool,
                 work: Path, env: dict | None = None) -> dict:
    import checks
    import workloads as wl

    size = wl.SIZES[size_key][name]
    ck = checks.Checks()
    attempted_cmds = failed_cmds = 0

    def count(records):
        nonlocal attempted_cmds, failed_cmds
        attempted_cmds += len(records)
        failed_cmds += sum(r.rc != 0 for r in records)

    setup_s = []
    while len(setup_s) < SETUPS or sum(setup_s) < min(SETUP_MIN_S, seconds):
        i = len(setup_s)
        gc.collect()
        t0 = perf_counter()
        inp = wl.setup(name, size, seed, work / f"setup{i}")
        setup_s.append(perf_counter() - t0)
        count(inp.records)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    for rec in inp.records:
        ck.run(f"setup {rec.cmd.kind}: outputs finite", checks.outputs_finite, rec)

    if traced:
        import tracer
        recorder = tracer.Recorder()
    rounds, traced_rounds, layer_rounds, first = [], [], [], None
    start = perf_counter()
    while True:
        # A traced run alternates untraced and traced rounds, so both see the
        # same host conditions and their difference is the tracing overhead.
        tracing = traced and len(traced_rounds) < len(rounds)
        out = work / "round"
        shutil.rmtree(out, ignore_errors=True)
        cmds = wl.round_commands(name, size, inp, out)
        with recorder.installed() if tracing else nullcontext():
            mark = recorder.mark() if tracing else None
            gc.collect()
            records = [wl.invoke(c, recorder.span if tracing else None) for c in cmds]
        count(records)
        if tracing:
            traced_rounds.append(records)
            layer_rounds.append(tracer.layer_metrics(recorder, mark))
        else:
            rounds.append(records)

        # output checks, outside the timed interval
        for rec in records:
            ck.run(f"{rec.cmd.kind} {rec.cmd.role or rec.cmd.target or ''}: outputs finite",
                   checks.outputs_finite, rec)
            if rec.cmd.kind == "prune" and rec.rc == 0:
                ck.run(f"prune {rec.cmd.target}: mask structure", checks.mask_structure,
                       rec.cmd.out, rec.cmd.target)
        produced = {}
        for rec in records:
            if rec.rc == 0 and rec.cmd.kind in ("prune", "train", "distill"):
                produced[f"{rec.cmd.out.name}.tensors"] = checks.digest(rec.cmd.out)
            if rec.rc == 0 and rec.cmd.kind == "eval":
                produced[f"eval {rec.cmd.argv[2]}"] = rec.output["perplexity"]
        if first is None:
            first = produced
            masked = next((r.cmd.out for r in records if r.rc == 0 and
                           r.cmd.kind in ("prune", "distill")), inp.student)
            ck.run("save twice, load after save", checks.save_roundtrip, masked, work)
            ppl = {k: v for k, v in wl.metrics([records], size).items() if k.startswith("ppl_")}
            ck.run("perplexities match golden", checks.golden, f"{size_key}/{name}", seed, ppl)
        else:
            ck.run("round reproduces the first", checks.same_as_first, produced, first)
        if tracing and len(layer_rounds) > 1:
            ck.run("per-layer counts repeat", _same_counts, layer_rounds, tracer.COUNTS)

        elapsed = perf_counter() - start
        done = len(rounds) + len(traced_rounds)
        if elapsed + elapsed / done > seconds and (not traced or len(layer_rounds) >= 2):
            break

    ck.run("one OS thread", _require_one_thread)
    attempted = attempted_cmds + len(ck.results)
    failed = failed_cmds + len(ck.failed)
    e2e = wl.metrics(rounds, size)
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["ops_failed_frac"] = failed / attempted
    result = {"workload": name, "seed": seed, "size": size_key, "rounds": len(rounds),
              "round_walls_s": [sum(r.seconds for r in records) for records in rounds],
              "setup_runs_s": setup_s, "e2e": e2e, "attempted": attempted, "failed": failed,
              "failures": [f"{n}: {d}" for n, _, d in ck.failed]
              + [f"{r.cmd.kind} exit {r.rc}: {r.error}" for r in inp.records if r.rc]}
    if traced:
        layers = tracer.summarize(layer_rounds)
        layers["trace.wall_s"] = wl.metrics(traced_rounds, size)["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        result["layers"] = layers
        result["traced_rounds"] = len(traced_rounds)
        if name.endswith("-toy"):
            result["crosscheck"] = tracer.crosscheck(layers, size.nsamples)
        recorder.write(OUT / f"trace-{name}.jsonl",
                       {"workload": name, "seed": seed, "size": size_key,
                        "rounds": len(layer_rounds), "env": env})
    return result


def _same_counts(layer_rounds, names) -> str:
    diff = [n for n in names if any(r[n] != layer_rounds[0][n] for r in layer_rounds)]
    if diff:
        raise AssertionError(f"counts differ between rounds: {diff[:3]}")
    return f"{len(names)} counts"


def _require_one_thread() -> str:
    n = os_threads()
    if n != 1:
        raise AssertionError(f"{n} OS threads running")
    return "1"


def e2e_payload(result: dict, names) -> dict:
    from workloads import UNITS

    return {n: {"value": result["e2e"][n], "unit": UNITS[n]} for n in names
            if n in result["e2e"]}


def layer_payload(result: dict) -> dict:
    from tracer import PER_LAYER

    return {n: {"value": result["layers"][n], "unit": u} for n, u in PER_LAYER}


def smoke(work: Path, env: dict) -> int:
    """Every workload at minimal size, untraced then traced, in one process."""
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for traced in (False, True):
        for name in wl.WORKLOADS:
            res = run_workload(name, "smoke", 0, 0, traced, work / f"{name}-{int(traced)}", env)
            problems += [f"{name}: {f}" for f in res["failures"]]
            if not traced:
                emitted = e2e_payload(res, REPORTED[name])
                wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
                wanted += [(n, wl.UNITS[n]) for n in REPORTED[name]]
            else:
                emitted = layer_payload(res)
                wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            for n, unit in wanted:
                got = emitted.get(n)
                if got is None or got["unit"] != unit or not wl.finite(got["value"]):
                    problems.append(f"{name}: metric {n} [{unit}] missing or wrong: {got}")
            print(json.dumps({"smoke": name, "traced": traced, "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": len(emitted)}))
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(REPORTED))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke")
    if not (SRC / "moeprune" / "__init__.py").is_file():
        print(f"error: moeprune sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print(json.dumps({"env": env}))
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.smoke:
            return smoke(work, env)
        res = run_workload(args.workload, "full", args.seed, args.seconds, bool(args.trace),
                           work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"report": {
        **{k: res[k] for k in ("workload", "seed", "rounds", "round_walls_s", "setup_runs_s",
                               "failures")},
        "metrics": e2e_payload(res, REPORTED[args.workload])}}))
    if args.trace:
        print(json.dumps({"traced_rounds": res["traced_rounds"],
                          "crosscheck": res.get("crosscheck")}))
        metrics = layer_payload(res)
    else:
        metrics = e2e_payload(res, RESULT_E2E)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

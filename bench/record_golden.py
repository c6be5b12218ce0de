"""Record the perplexities that the golden check compares against.

    python3 bench/record_golden.py [N]

Runs one round of every workload for seeds 0..N-1 (default 30) at full size,
and for seed 0 at smoke size, then rewrites golden.json. Rerun it only when a
change is meant to move results; the diff of golden.json then shows by how
much.
"""

import json
import shutil
import sys

import run  # pins the thread variables before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seeds = range(int(sys.argv[1]) if len(sys.argv) > 1 else 30)
    run.SETUPS = 1
    checks.GOLDEN.write_text("{}\n")  # nothing to compare against while recording
    work = run.OUT / "record-golden"
    table: dict[str, dict] = {}
    try:
        for size_key, size_seeds in (("smoke", [0]), ("full", seeds)):
            for name in workloads.WORKLOADS:
                for seed in size_seeds:
                    res = run.run_workload(name, size_key, seed, 0, False,
                                           work / f"{size_key}-{name}-{seed}")
                    if res["failed"]:
                        print(f"{size_key}/{name} seed {seed}: {res['failures']}", file=sys.stderr)
                        return 1
                    table.setdefault(f"{size_key}/{name}", {})[str(seed)] = {
                        k: v for k, v in res["e2e"].items() if k.startswith("ppl_")}
                    print(size_key, name, seed, table[f"{size_key}/{name}"][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Artifact parity between a git ref and the working tree.

    python tools/parity.py --parent <ref> [--smoke] [--expect-diff GLOB ...]

extracts `<ref>`'s committed tree into a temporary directory (`checkout`,
which tools/bench_record.py shares) and runs one fixed command matrix with
each tree's `src/`, each in its own subprocess with single-thread BLAS. On
three configs (TOY; WIDE, one 16-expert d_ff=512 layer; TOP1, a top-1
16-expert layer whose idle experts take sparsegpt's magnitude fallback) the
matrix is: train, and train --upcycle; prune with 4
methods x {0.5, 2:4} x {dense, recompute}, each followed by an eval; distill,
and distill --full-parameter --lam 0.5, each followed by an eval; analyze
argmax and topk, and analyze --freq on a fixed file; a sparsity sweep with
recompute; an nsamples sweep; and one train, one prune and one distill that
set their config values by flags over the file's.

Every file the matrix writes, and each command's stdout, stderr (warnings
included) and exit code, is hashed with the run's output directory masked.
One line is printed per file that differs or exists on one side only. The
exit status is 1 if any such file matches no --expect-diff glob, else 0.
--smoke shrinks the configs and the corpus, not the command list.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
METHODS = ("magnitude", "wanda", "moe-pruner", "sparsegpt")
TARGETS = (("--sparsity", "0.5"), ("--pattern", "2:4"))


def _model(d_model, n_heads, n_layers, n_experts, top_k, d_ff, seq_len, seed):
    return {"d_model": d_model, "n_heads": n_heads, "n_layers": n_layers,
            "n_experts": n_experts, "top_k": top_k, "d_ff": d_ff, "seq_len": seq_len,
            "vocab_size": 256, "seed": seed}


# name -> (model, train steps, learning rate, calibration windows); WIDE and
# TOP1 train at a tenth of TOY's rate, which leaves experts idle
CONFIGS = {
    "toy": (_model(64, 4, 2, 4, 2, 128, 64, 77), 20, 1e-3, 16),
    "wide": (_model(128, 4, 1, 16, 2, 512, 128, 78), 4, 1e-4, 8),
    "top1": (_model(32, 2, 2, 16, 1, 64, 32, 79), 4, 1e-4, 4),
}
SMOKE = {
    "toy": (_model(16, 2, 2, 4, 2, 16, 16, 77), 2, 1e-3, 4),
    "wide": (_model(16, 2, 1, 16, 2, 32, 16, 78), 1, 1e-4, 4),
    "top1": (_model(8, 2, 1, 16, 1, 8, 8, 79), 1, 1e-4, 2),
}
# analyze --freq's input: two entries, integer and fractional counts
FREQ = [{"model_name": "counts", "layers": [[3, 1, 0, 4], [2, 2, 2, 2]]},
        {"mode": "topk", "layers": [[0.5, 1.5, 2.25]]}]
# smoke -> (calibration corpus bytes, held-out bytes)
CORPUS_BYTES = {False: (1 << 16, 2048), True: (1 << 12, 256)}

WORDS = ("the a cat dog bird fish tree star ship king wolf bear rose lake moon sun "
         "sees likes finds takes keeps red blue old new big small dark bright and").split()


def corpus(seed: int, size: int) -> bytes:
    """Deterministic English-like bytes from a fixed word pool."""
    rng = np.random.default_rng(seed)
    words = rng.integers(len(WORDS), size=size // 3)
    return " ".join(WORDS[w] for w in words).encode()[:size]


def commands(name: str, root: Path, smoke: bool) -> list[tuple[str, list[str]]]:
    """Write config `name`'s inputs under root; return its (label, argv) list."""
    model, steps, lr, nsamples = (SMOKE if smoke else CONFIGS)[name]
    size, heldout_size = CORPUS_BYTES[smoke]
    root.mkdir(parents=True)
    text = corpus(model["seed"], size + heldout_size)
    calib, heldout, config = root / "corpus.txt", root / "heldout.txt", root / "config.json"
    freq = root / "freq.json"
    freq.write_text(json.dumps(FREQ))
    calib.write_bytes(text[:size])
    heldout.write_bytes(text[size:])
    config.write_text(json.dumps({
        "model": model,
        "train": {"steps": steps, "batch_size": 4, "learning_rate": lr, "seed": 1},
        "calibration": {"nsamples": nsamples, "seed": 2},
        "kd": {"samples": 8, "epochs": 2, "batch_size": 4, "learning_rate": 1e-4, "seed": 3},
    }))
    cfg, teacher = ["--config", str(config)], str(root / "teacher")
    cmds = [("train", ["train", *cfg, "--corpus", str(calib), "--out", teacher]),
            ("train-upcycle", ["train", *cfg, "--corpus", str(calib), "--upcycle",
                               "--out", str(root / "upcycled")])]

    def evaluate(ckpt: str) -> tuple[str, list[str]]:
        return f"eval-{Path(ckpt).name}", ["eval", "--ckpt", ckpt, "--corpus", str(heldout)]

    for method in METHODS:
        for flag, target in TARGETS:
            for propagate in ("dense", "recompute"):
                out = str(root / f"{method}-{target.replace(':', 'of')}-{propagate}")
                cmds += [(f"prune-{Path(out).name}",
                          ["prune", *cfg, "--ckpt", teacher, "--method", method, flag, target,
                           "--calib", str(calib), "--propagate", propagate, "--out", out]),
                         evaluate(out)]
    for label, name, flags in (("distill", "distilled", []),
                               ("distill-full", "distilled-full",
                                ["--full-parameter", "--lam", "0.5"])):
        distilled = str(root / name)
        cmds += [(label, ["distill", *cfg, "--teacher", teacher, "--student",
                          str(root / "moe-pruner-0.5-dense"), "--corpus", str(calib), *flags,
                          "--out", distilled]),
                 evaluate(distilled)]
    # the flag path: each section flag over the config file's value
    cmds += [("train-flags", ["train", *cfg, "--corpus", str(calib), "--steps", "2",
                              "--seed", "5", "--lr", "5e-4", "--batch-size", "2",
                              "--out", str(root / "teacher-flags")]),
             ("prune-flags", ["prune", *cfg, "--ckpt", teacher, "--sparsity", "0.5",
                              "--calib", str(calib), "--nsamples", "3", "--seed", "6",
                              "--out", str(root / "pruned-flags")]),
             ("distill-flags", ["distill", *cfg, "--teacher", teacher, "--student",
                                str(root / "pruned-flags"), "--corpus", str(calib),
                                "--samples", "4", "--epochs", "1", "--lr", "5e-5",
                                "--batch-size", "2", "--seed", "7",
                                "--out", str(root / "distilled-flags")])]
    for mode in ("argmax", "topk"):
        cmds.append((f"analyze-{mode}", ["analyze", "--ckpt", teacher, "--corpus", str(calib),
                                         "--nsamples", str(nsamples), "--mode", mode]))
    cmds.append(("analyze-freq", ["analyze", "--freq", str(freq)]))
    sweep = ["sweep", "--ckpt", teacher, "--calib", str(calib), "--eval-corpus", str(heldout)]
    cmds += [("sweep-sparsities", [*sweep, "--sparsities", "0.25,0.5", "--propagate",
                                   "recompute", "--nsamples", str(nsamples),
                                   "--out", str(root / "sweep-sparsities.csv")]),
             ("sweep-nsamples", [*sweep, "--nsamples-list", f"1,{nsamples}",
                                 "--out", str(root / "sweep-nsamples.csv")])]
    return cmds


def run_matrix(out: Path, smoke: bool) -> None:
    """Run the whole matrix in this process, through moeprune.cli.main, with
    each command's stdout, stderr and exit code in out/<config>/<label>.log."""
    from moeprune.cli import main

    for name in CONFIGS:
        for label, argv in commands(name, out / name, smoke):
            stdout, stderr = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                rc = main(argv)
            notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
            (out / name / f"{label}.log").write_text(
                f"exit {rc}\n--- stdout\n{stdout.getvalue()}--- stderr\n"
                f"{stderr.getvalue()}{notes}")


def hashes(out: Path) -> dict[str, str]:
    """sha256 of every file under out, with out's path masked, by relative path."""
    mark = str(out).encode()
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes().replace(mark, b"<OUT>"))
            .hexdigest() for p in sorted(out.rglob("*")) if p.is_file()}


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))


@contextlib.contextmanager
def checkout(ref: str):
    """`ref`'s committed tree (git archive) in a temporary directory, removed
    on exit; the repository's own state is not touched."""
    tree = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref],
                          stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="checkout-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def _run_tree(src: Path, out: Path, smoke: bool) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, __file__, "--run-matrix", str(out)]
                   + ["--smoke"] * smoke, env=env, check=True)
    return hashes(out)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="git ref to compare the working tree against")
    p.add_argument("--smoke", action="store_true", help="tiny configs, same command list")
    p.add_argument("--expect-diff", action="append", default=[], metavar="GLOB",
                   help="a relative output path that may differ (repeatable)")
    p.add_argument("--run-matrix", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run_matrix:
        run_matrix(Path(args.run_matrix), args.smoke)
        return 0
    if not args.parent:
        p.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        with checkout(args.parent) as parent:
            old = _run_tree(parent / "src", Path(tmp) / "out-parent", args.smoke)
        new = _run_tree(REPO / "src", Path(tmp) / "out-change", args.smoke)
    diff = differing(old, new)
    unexpected = [f for f in diff
                  if not any(fnmatch.fnmatch(f, g) for g in args.expect_diff)]
    for f in diff:
        state = ("only in parent" if f not in new else "only in change" if f not in old
                 else "differs")
        print(f"{state}: {f}{'' if f in unexpected else ' (expected)'}")
    print(f"parity: {len(new)} files, {len(diff)} differing, {len(unexpected)} unexpected "
          f"({args.parent} vs working tree)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

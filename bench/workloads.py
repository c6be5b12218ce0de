"""The three benchmark workloads: generated inputs, set-up, the fixed command
mix of one round, and the end-to-end metrics derived from a round.

Every command goes through ``moeprune.cli.main`` in this process, on corpus
and config files written from the run's seed, so a round costs what a user
running the same commands would pay (argument parsing, checkpoint reads and
writes included).
"""

from __future__ import annotations

import io
import json
import math
import statistics
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from moeprune import cli

NOUNS = ["cat", "dog", "bird", "fish", "tree", "star", "ship", "king",
         "wolf", "bear", "rose", "lake", "moon", "sun", "rain", "wind"]
VERBS = ["sees", "likes", "finds", "takes", "keeps", "meets", "hears", "helps"]
ADJS = ["red", "blue", "old", "new", "big", "small", "dark", "bright"]
TEMPLATES = [
    "the {a} {n1} {v} the {n2}. ",
    "a {n1} {v} the {a} {n2}. ",
    "the {n1} and the {n2} {v} the {a} {n3}. ",
]


def make_corpus(seed: int, size: int) -> bytes:
    """Low-entropy English-like bytes from fixed word pools; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    parts: list[str] = []
    total = 0
    while total < size:
        s = TEMPLATES[rng.integers(len(TEMPLATES))].format(
            a=ADJS[rng.integers(len(ADJS))], v=VERBS[rng.integers(len(VERBS))],
            n1=NOUNS[rng.integers(len(NOUNS))], n2=NOUNS[rng.integers(len(NOUNS))],
            n3=NOUNS[rng.integers(len(NOUNS))],
        )
        parts.append(s)
        total += len(s)
    return "".join(parts).encode()[:size]


# The TOY shape is acceptance criterion 10's ModelConfig. WIDE is one layer of
# a 16-expert, d_ff=512 block: heavy on Hessians and OBS, light on dispatch.
# The wide teacher trains 4 steps at a tenth of TOY's learning rate, which
# leaves 0 to 4 of its 16 experts without a calibration token (2 or 3 on 22
# of seeds 0-29): they take the magnitude fallback. At TOY's rate even two steps leave 3 to 9
# idle, depending on the seed, and the OBS work swings with it; left at its
# init, set-up is a memory-bound 0.2 s that moved by 40% between runs.
TOY = {"d_model": 64, "n_heads": 4, "n_layers": 2, "n_experts": 4, "top_k": 2,
       "d_ff": 128, "seq_len": 64, "vocab_size": 256, "seed": 77}
WIDE = {"d_model": 128, "n_heads": 4, "n_layers": 1, "n_experts": 16, "top_k": 2,
        "d_ff": 512, "seq_len": 128, "vocab_size": 256, "seed": 78}
TOY_SMOKE = {"d_model": 16, "n_heads": 2, "n_layers": 1, "n_experts": 4, "top_k": 2,
             "d_ff": 32, "seq_len": 16, "vocab_size": 256, "seed": 77}
WIDE_SMOKE = {"d_model": 16, "n_heads": 2, "n_layers": 1, "n_experts": 16, "top_k": 2,
              "d_ff": 64, "seq_len": 32, "vocab_size": 256, "seed": 78}


@dataclass(frozen=True)
class Size:
    model: dict
    corpus_bytes: int      # training and calibration text
    heldout_bytes: int     # eval text
    teacher_steps: int     # set-up training of the teacher
    nsamples: int          # calibration windows per prune / analyze / sweep point
    train_steps: int = 0   # train-kd-toy: steps of the measured `train`
    kd_samples: int = 0    # train-kd-toy: KD windows per epoch
    kd_epochs: int = 0
    learning_rate: float = 3e-3  # `train`, in set-up and in the round


SIZES = {
    "full": {
        "prune-toy": Size(TOY, 1 << 16, 2048, teacher_steps=20, nsamples=16),
        "train-kd-toy": Size(TOY, 1 << 16, 2048, teacher_steps=20, nsamples=16,
                             train_steps=12, kd_samples=32, kd_epochs=2),
        "prune-wide": Size(WIDE, 1 << 16, 2048, teacher_steps=4, nsamples=8,
                           learning_rate=3e-4),
    },
    "smoke": {
        "prune-toy": Size(TOY_SMOKE, 1 << 13, 256, teacher_steps=2, nsamples=4),
        "train-kd-toy": Size(TOY_SMOKE, 1 << 13, 256, teacher_steps=2, nsamples=4,
                             train_steps=2, kd_samples=4, kd_epochs=2),
        "prune-wide": Size(WIDE_SMOKE, 1 << 13, 256, teacher_steps=1, nsamples=4,
                           learning_rate=3e-4),
    },
}
WORKLOADS = tuple(SIZES["full"])
BATCH = 8


@dataclass
class Command:
    kind: str                 # train | prune | distill | eval | analyze | sweep
    argv: list[str]
    role: str = ""            # eval: which checkpoint it scores
    out: Path | None = None   # artifact the command writes
    target: str | None = None  # prune: "p=<fraction>" or "<n>:<m>"


@dataclass
class Record:
    cmd: Command
    seconds: float
    rc: int
    output: object = None     # parsed stdout JSON, or None
    error: str = ""


@dataclass
class Inputs:
    """Files the program reads, and the checkpoints set-up produced."""

    corpus: Path
    heldout: Path
    config: Path
    teacher: Path
    student: Path | None = None
    records: list[Record] = field(default_factory=list)


def invoke(cmd: Command, span=None) -> Record:
    """Run one command through the CLI entry point and time it.

    `span` (traced runs only) is a context-manager factory that opens the
    command's root span.
    """
    out, err = io.StringIO(), io.StringIO()
    ctx = span(f"cmd.{cmd.kind}") if span is not None else nullcontext()
    t0 = perf_counter()
    try:
        with ctx, redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    try:
        output = json.loads(out.getvalue()) if rc == 0 else None
    except json.JSONDecodeError:
        output = None
    return Record(cmd, seconds, rc, output, err.getvalue().strip()[-500:])


def setup(workload: str, size: Size, seed: int, root: Path) -> Inputs:
    """Write the inputs for `seed` and build the checkpoints the round needs."""
    root.mkdir(parents=True)
    corpus = make_corpus(seed, size.corpus_bytes + size.heldout_bytes)
    inp = Inputs(corpus=root / "corpus.txt", heldout=root / "heldout.txt",
                 config=root / "config.json", teacher=root / "teacher")
    inp.corpus.write_bytes(corpus[: size.corpus_bytes])
    inp.heldout.write_bytes(corpus[size.corpus_bytes :])
    inp.config.write_text(json.dumps({
        "model": size.model,
        "train": {"batch_size": BATCH, "learning_rate": size.learning_rate, "seed": seed},
        "calibration": {"nsamples": size.nsamples, "seed": seed},
        "kd": {"batch_size": BATCH, "learning_rate": 1e-4, "seed": seed,
               "samples": size.kd_samples or BATCH, "epochs": size.kd_epochs},
    }))
    base = ["--config", str(inp.config)]
    steps = [Command("train", ["train", *base, "--corpus", str(inp.corpus),
                               "--steps", str(size.teacher_steps), "--out", str(inp.teacher)],
                     out=inp.teacher)]
    if workload == "train-kd-toy":
        inp.student = root / "student"
        steps.append(_prune(inp, "moe-pruner", "0.5", "dense", inp.student))
    for cmd in steps:
        inp.records.append(invoke(cmd))
    return inp


def _prune(inp: Inputs, method: str, target: str, propagate: str, out: Path) -> Command:
    flag = ["--pattern", target] if ":" in target else ["--sparsity", target]
    return Command("prune", ["prune", "--config", str(inp.config), "--ckpt", str(inp.teacher),
                             "--method", method, *flag, "--calib", str(inp.corpus),
                             "--propagate", propagate, "--out", str(out)],
                   out=out, target=target if ":" in target else f"p={float(target)}")


def _eval(ckpt: Path, heldout: Path, role: str) -> Command:
    return Command("eval", ["eval", "--ckpt", str(ckpt), "--corpus", str(heldout)], role=role)


def round_commands(workload: str, size: Size, inp: Inputs, out: Path) -> list[Command]:
    """The fixed command mix of one round; every round repeats it exactly."""
    cmds: list[Command] = []
    if workload == "train-kd-toy":
        trained, distilled = out / "trained", out / "distilled"
        cmds.append(Command("train", ["train", "--config", str(inp.config), "--corpus",
                                      str(inp.corpus), "--steps", str(size.train_steps),
                                      "--out", str(trained)], out=trained))
        cmds.append(Command("distill", ["distill", "--config", str(inp.config),
                                        "--teacher", str(inp.teacher), "--student",
                                        str(inp.student), "--corpus", str(inp.corpus),
                                        "--out", str(distilled)], out=distilled))
        cmds += [_eval(trained, inp.heldout, "trained"),
                 _eval(inp.student, inp.heldout, "pruned"),
                 _eval(distilled, inp.heldout, "distilled")]
        return cmds

    if workload == "prune-toy":
        mix = [("magnitude", "0.5", "dense"), ("wanda", "0.5", "dense"),
               ("moe-pruner", "0.5", "dense"), ("sparsegpt", "0.5", "dense"),
               ("moe-pruner", "2:4", "dense"), ("sparsegpt", "2:4", "dense"),
               ("moe-pruner", "0.5", "recompute")]
    else:
        mix = [("sparsegpt", "0.5", "dense"), ("moe-pruner", "2:4", "dense")]
    cmds.append(Command("analyze", ["analyze", "--ckpt", str(inp.teacher), "--corpus",
                                    str(inp.corpus), "--nsamples", str(size.nsamples)]))
    for k, (method, target, propagate) in enumerate(mix):
        dest = out / f"pruned{k}"
        cmds.append(_prune(inp, method, target, propagate, dest))
        cmds.append(_eval(dest, inp.heldout, "pruned"))
    if workload == "prune-toy":
        sweep = out / "sweep.csv"
        cmds.append(Command("sweep", ["sweep", "--ckpt", str(inp.teacher), "--sparsities",
                                      "0.3,0.6", "--nsamples", str(size.nsamples),
                                      "--calib", str(inp.corpus), "--eval-corpus",
                                      str(inp.heldout), "--out", str(sweep)], out=sweep))
    return cmds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# name -> unit, for every metric a round can yield; which ones a workload
# yields depends on the commands in its mix.
UNITS = {
    "setup_s": "s", "wall_s": "s", "train_tokens_per_s": "tok/s",
    "kd_tokens_per_s": "tok/s", "calib_tokens_per_s": "tok/s", "prune_s": "s",
    "sweep_point_s": "s", "eval_tokens_per_s": "tok/s", "peak_rss_mb": "MB",
    "ppl_pruned": "ppl", "ppl_distilled": "ppl", "ops_failed_frac": "fraction",
}


def metrics(rounds: list[list[Record]], size: Size) -> dict[str, float]:
    """End-to-end metrics over rounds of the same command mix.

    Each command's time is its median over the rounds, so a burst of host
    noise during one round moves few of them; wall_s is their sum, one pass
    of the mix. Outputs are the same in every round (a check enforces it), so
    they come from the first round that succeeded.
    """
    seq_len = size.model["seq_len"]
    slots = []  # (kind, role, median seconds, output) per command of the mix
    for same_cmd in zip(*rounds):
        ok = [r for r in same_cmd if r.rc == 0 and isinstance(r.output, dict)]
        if ok:
            slots.append((ok[0].cmd.kind, ok[0].cmd.role,
                          statistics.median(r.seconds for r in ok), ok[0].output))
    m = {"wall_s": sum(s for _, _, s, _ in slots)}

    def of(kind):
        return [(role, s, out) for k, role, s, out in slots if k == kind]

    if of("eval"):
        m["eval_tokens_per_s"] = (sum(out["token_count"] for _, _, out in of("eval"))
                                  / sum(s for _, s, _ in of("eval")))
        for want in ("pruned", "distilled"):
            ppl = [out["perplexity"] for role, _, out in of("eval") if role == want]
            if ppl:
                m[f"ppl_{want}"] = sum(ppl) / len(ppl)
    if of("prune"):
        m["prune_s"] = sum(s for _, s, _ in of("prune")) / len(of("prune"))
    if of("analyze"):
        m["calib_tokens_per_s"] = (size.nsamples * seq_len * len(of("analyze"))
                                   / sum(s for _, s, _ in of("analyze")))
    if of("sweep"):
        m["sweep_point_s"] = (sum(s for _, s, _ in of("sweep"))
                              / sum(out["rows"] for _, _, out in of("sweep")))
    if of("train"):
        m["train_tokens_per_s"] = (sum(out["steps"] for _, _, out in of("train")) * BATCH
                                   * seq_len / sum(s for _, s, _ in of("train")))
    if of("distill"):
        m["kd_tokens_per_s"] = (size.kd_samples * size.kd_epochs * seq_len * len(of("distill"))
                                / sum(s for _, s, _ in of("distill")))
    return m


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)

"""Traced runs: spans around the public functions of every moeprune module.

Importing this module changes nothing. While `Recorder.installed()` is
active, each binding is replaced in the module that *calls* it (``moeprune.pruning.model_forward`` and
``moeprune.distill.model_forward`` are wrapped separately), so every span is
charged to the layer that made the call. Methods shared by two layers
(``HessianAccumulator.add``, ``ScaledNormAccumulator.add``) are named after
the calling module instead.

A span is (id, parent, name, start, end) plus the autograd op calls made
directly inside it and a few counts. Op calls are not spans: a 64-token
forward makes ~170 of them, so each is tallied per kind and charged to the
enclosing span's `ops` / `ops_s`. A span's self time is its duration minus
its children's durations minus `ops_s`. Spans stay in memory and are written
as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# By module path: the package re-exports a `distill` function under the
# submodule's name.
(ag, analysis, calibration, cli, distill, model, optim, pruning, training) = (
    importlib.import_module(f"moeprune.{m}") for m in
    ("autograd", "analysis", "calibration", "cli", "distill", "model", "optim", "pruning",
     "training"))

OP_KINDS = ("matmul", "add", "mul", "silu", "row_softmax", "rmsnorm", "gather_rows",
            "scatter_rows", "cross_entropy", "mse", "scale", "masked_assign")

# Every per-layer metric, with its unit. Names ending in .calls, and the
# other "count" metrics, are counts that repeat exactly for a given seed.
PER_LAYER = (
    [("autograd.ops", "count"), ("autograd.ops_per_window", "ops/window"),
     ("autograd.op.s", "s"), ("autograd.backward.s", "s")]
    + [(f"autograd.op.{k}.{f}", u) for k in OP_KINDS for f, u in (("calls", "count"), ("s", "s"))]
    + [("model.forward_pass.calls", "count"), ("model.forward_pass.s", "s"),
       ("model.forward_pass.self_s", "s"), ("model.tokens", "count"),
       ("calibration.collect.s", "s"), ("calibration.collect.self_s", "s"),
       ("calibration.windows", "count"), ("calibration.hessian_add.calls", "count"),
       ("calibration.hessian_add.s", "s"), ("calibration.norm_add.s", "s"),
       ("pruning.prune_model.s", "s"), ("pruning.prune_model.self_s", "s"),
       ("pruning.model_forward.calls", "count"), ("pruning.hessian_add.s", "s"),
       ("pruning.norm_add.s", "s"), ("pruning.score.s", "s"), ("pruning.select_mask.s", "s"),
       ("pruning.obs_update.s", "s"), ("pruning.reconstruction_error.s", "s"),
       ("pruning.targets", "count"), ("pruning.fallbacks", "count"),
       ("numerics.spd_inverse.calls", "count"), ("numerics.spd_inverse.s", "s"),
       ("distill.distill.s", "s"), ("distill.teacher_forwards", "count"),
       ("distill.student_forwards", "count"), ("distill.steps", "count"),
       ("training.train_model.s", "s"), ("training.batch_ce_graph.s", "s"),
       ("training.steps", "count"), ("training.evaluate_perplexity.s", "s"),
       ("optim.adam_step.calls", "count"), ("optim.adam_step.s", "s"),
       ("persistence.save_checkpoint.s", "s"), ("persistence.save_checkpoint.bytes", "bytes"),
       ("persistence.load_checkpoint.s", "s"), ("analysis.analyze_model.s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)
COUNTS = tuple(n for n, u in PER_LAYER if u in ("count", "ops/window", "bytes"))

# Span slots: [id, parent, name, start, end, ops, ops_s, fields]
ID, PARENT, NAME, START, END, OPS, OPS_S, FIELDS = range(8)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.ops: dict[str, list] = {k: [0, 0.0] for k in OP_KINDS}
        self.patches = _patches(self)

    @contextmanager
    def installed(self):
        """Wrap every traced binding, and restore the originals on exit."""
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self.patches:
                setattr(owner, attr, original)

    def mark(self) -> tuple[int, dict[str, tuple[int, float]]]:
        return len(self.spans), {k: tuple(v) for k, v in self.ops.items()}

    def _open(self, name: str, fields: dict | None) -> list:
        span = [len(self.spans), self.stack[-1][ID] if self.stack else None, name,
                perf_counter(), 0.0, 0, 0.0, fields]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name, None)
        try:
            yield
        finally:
            self._close(s)

    def wrap(self, name: str, fn, before=None, after=None):
        """Span around `fn`; `before(args)` / `after(args, result)` add counts
        to the span, outside its timed interval where they cost anything."""
        def wrapper(*args, **kwargs):
            s = self._open(name, before(args, kwargs) if before else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if after:
                s[FIELDS] = {**(s[FIELDS] or {}), **after(args, out)}
            return out
        return wrapper

    def wrap_by_caller(self, suffix: str, fn):
        """Span named `<calling module>.<suffix>`."""
        def wrapper(*args, **kwargs):
            layer = sys._getframe(1).f_globals.get("__name__", "?").rsplit(".", 1)[-1]
            s = self._open(f"{layer}.{suffix}", None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)
        return wrapper

    def wrap_op(self, kind: str, fn):
        stat, stack = self.ops[kind], self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stat[0] += 1
            stat[1] += dt
            if stack:
                stack[-1][OPS] += 1
                stack[-1][OPS_S] += dt
            return out
        return wrapper

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                                     "start": s[START] - t0, "end": s[END] - t0,
                                     "ops": s[OPS], "ops_s": s[OPS_S], **(s[FIELDS] or {})})
                         + "\n")
            fh.write(json.dumps({"op_totals": self.ops}) + "\n")


def _ckpt_bytes(args, _out) -> dict:
    return {"bytes": sum(p.stat().st_size for p in Path(args[1]).iterdir() if p.is_file())}


def _prune_counts(_args, out) -> dict:
    targets = out[2].targets
    return {"targets": len(targets),
            "fallbacks": sum("fallback" in t["method"] for t in targets)}


def _patches(rec: Recorder) -> list[tuple]:
    """(owner, attribute, original, wrapper) for every traced binding."""
    patches = [(ag, kind, rec.wrap_op(kind, getattr(ag, kind))) for kind in OP_KINDS]

    def tokens(args, _kw):
        return {"tokens": len(args[1])}

    def student_tokens(args, _kw):
        return {"tokens": len(args[1]), "student": 1}

    patches += [
        (model, "forward_pass", rec.wrap("model.forward_pass", model.forward_pass, tokens)),
        (training, "forward_pass", rec.wrap("model.forward_pass", training.forward_pass, tokens)),
        (distill, "forward_pass",
         rec.wrap("model.forward_pass", distill.forward_pass, student_tokens)),
        (distill, "model_forward", rec.wrap("distill.model_forward", distill.model_forward)),
        (pruning, "model_forward", rec.wrap("pruning.model_forward", pruning.model_forward)),
        (training, "batch_ce_graph", rec.wrap("training.batch_ce_graph", training.batch_ce_graph)),
        (pruning, "spd_inverse", rec.wrap("numerics.spd_inverse", pruning.spd_inverse)),
        (cli, "train_model", rec.wrap("training.train_model", cli.train_model,
                                      after=lambda a, out: {"steps": len(out[1])})),
        (cli, "evaluate_perplexity",
         rec.wrap("training.evaluate_perplexity", cli.evaluate_perplexity,
                  after=lambda a, out: {"tokens": out[1], "bytes": len(a[1])})),
        (cli, "distill", rec.wrap("distill.distill", cli.distill,
                                  after=lambda a, out: {"steps": len(out.log)})),
        (cli, "analyze_model", rec.wrap("analysis.analyze_model", cli.analyze_model)),
        (cli, "prune_model", rec.wrap(
            "pruning.prune_model", cli.prune_model,
            before=lambda a, kw: {"method": a[2], "propagate": kw.get("propagate", "dense")},
            after=_prune_counts)),
        (cli, "save_checkpoint", rec.wrap("persistence.save_checkpoint", cli.save_checkpoint,
                                          after=_ckpt_bytes)),
        (cli, "load_checkpoint", rec.wrap("persistence.load_checkpoint", cli.load_checkpoint)),
    ]
    windows = rec.wrap("calibration.collect", calibration.collect,
                       before=lambda a, kw: {"windows": len(a[1].sequences)})
    patches += [(cli, "collect", windows), (analysis, "collect", windows)]
    for name in ("score_magnitude", "score_wanda", "score_moe_pruner", "score_sparsegpt"):
        patches.append((pruning, name, rec.wrap("pruning.score", getattr(pruning, name))))
    for name in ("select_mask", "obs_update", "reconstruction_error"):
        patches.append((pruning, name, rec.wrap(f"pruning.{name}", getattr(pruning, name))))
    patches += [
        (calibration.HessianAccumulator, "add",
         rec.wrap_by_caller("hessian_add", calibration.HessianAccumulator.add)),
        (calibration.ScaledNormAccumulator, "add",
         rec.wrap_by_caller("norm_add", calibration.ScaledNormAccumulator.add)),
        (optim.Adam, "step", rec.wrap("optim.adam_step", optim.Adam.step)),
        (ag.Tape, "backward", rec.wrap("autograd.backward", ag.Tape.backward)),
    ]
    return [(owner, attr, getattr(owner, attr), wrapper) for owner, attr, wrapper in patches]


def layer_metrics(rec: Recorder, mark) -> dict[str, float]:
    """Per-layer metrics over the spans and op calls recorded since `mark`."""
    first, ops_before = mark
    spans = rec.spans[first:]
    child_s: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            child_s[s[PARENT]] = child_s.get(s[PARENT], 0.0) + s[END] - s[START]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    fields: dict[str, float] = {}
    for s in spans:
        n, d = s[NAME], s[END] - s[START]
        calls[n] = calls.get(n, 0) + 1
        total[n] = total.get(n, 0.0) + d
        self_s[n] = self_s.get(n, 0.0) + d - child_s.get(s[ID], 0.0) - s[OPS_S]
        for k, v in (s[FIELDS] or {}).items():
            if isinstance(v, (int, float)):
                fields[f"{n}:{k}"] = fields.get(f"{n}:{k}", 0) + v

    m: dict[str, float] = {}
    for k in OP_KINDS:
        m[f"autograd.op.{k}.calls"] = rec.ops[k][0] - ops_before[k][0]
        m[f"autograd.op.{k}.s"] = rec.ops[k][1] - ops_before[k][1]
    m["autograd.ops"] = sum(m[f"autograd.op.{k}.calls"] for k in OP_KINDS)
    m["autograd.op.s"] = sum(m[f"autograd.op.{k}.s"] for k in OP_KINDS)
    fwd = calls.get("model.forward_pass", 0)
    m["autograd.ops_per_window"] = m["autograd.ops"] / fwd if fwd else 0.0
    for name in ("autograd.backward", "calibration.collect", "pruning.prune_model",
                 "model.forward_pass", "calibration.hessian_add", "calibration.norm_add",
                 "pruning.hessian_add", "pruning.norm_add", "pruning.score",
                 "pruning.select_mask", "pruning.obs_update", "pruning.reconstruction_error",
                 "numerics.spd_inverse", "distill.distill", "training.train_model",
                 "training.batch_ce_graph", "training.evaluate_perplexity", "optim.adam_step",
                 "persistence.save_checkpoint", "persistence.load_checkpoint",
                 "analysis.analyze_model"):
        m[f"{name}.s"] = total.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["model.tokens"] = fields.get("model.forward_pass:tokens", 0)
    m["calibration.windows"] = fields.get("calibration.collect:windows", 0)
    m["pruning.model_forward.calls"] = calls.get("pruning.model_forward", 0)
    m["pruning.targets"] = fields.get("pruning.prune_model:targets", 0)
    m["pruning.fallbacks"] = fields.get("pruning.prune_model:fallbacks", 0)
    m["distill.teacher_forwards"] = calls.get("distill.model_forward", 0)
    m["distill.student_forwards"] = fields.get("model.forward_pass:student", 0)
    m["distill.steps"] = fields.get("distill.distill:steps", 0)
    m["training.steps"] = fields.get("training.train_model:steps", 0)
    m["persistence.save_checkpoint.bytes"] = fields.get("persistence.save_checkpoint:bytes", 0)
    # Internal figures for the re-anchor cross-check, not reported as metrics:
    # the dense moe-pruner and sparsegpt prunes, each split into its
    # re-forwards (which scale with the calibration windows) and the rest.
    reforward_s: dict[int, float] = {}
    for s in spans:
        if s[NAME] == "pruning.model_forward":
            reforward_s[s[PARENT]] = reforward_s.get(s[PARENT], 0.0) + s[END] - s[START]
    dense = [(s[END] - s[START], reforward_s.get(s[ID], 0.0)) for s in spans
             if s[NAME] == "pruning.prune_model" and s[FIELDS]["propagate"] == "dense"
             and s[FIELDS]["method"] in ("moe-pruner", "sparsegpt")]
    m["_dense_prune_s"] = statistics.mean(d for d, _ in dense) if dense else 0.0
    m["_dense_reforward_s"] = statistics.mean(r for _, r in dense) if dense else 0.0
    m["_eval_bytes"] = fields.get("training.evaluate_perplexity:bytes", 0)
    return m


def summarize(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced round (later rounds must equal it), times
    as the median over rounds."""
    out = {}
    for name in rounds[0]:
        vals = [r[name] for r in rounds]
        out[name] = vals[0] if name in COUNTS else statistics.median(vals)
    return out


# Re-anchor stage times from the ROADMAP (idle 2-core box, TOY config).
ROADMAP = {"forward_ms": 4.7, "train_step_ms": 95.0, "kd_step_ms": 167.0,
           "collect_128_s": 0.85, "dense_prune_128_s": 1.7, "eval_16kb_s": 1.33}


def crosscheck(m: dict[str, float], nsamples: int) -> dict[str, dict]:
    """Stage times from a traced TOY round next to their ROADMAP figures.
    Collect and the dense prune's re-forwards scale linearly to 128 windows
    (the rest of a prune does not depend on them), eval to 16 KiB."""
    got = {}
    if m["model.forward_pass.calls"] and m["calibration.windows"]:
        got["forward_ms"] = 1e3 * m["model.forward_pass.s"] / m["model.forward_pass.calls"]
        got["collect_128_s"] = m["calibration.collect.s"] / m["calibration.windows"] * 128
    if m["_dense_prune_s"]:
        got["dense_prune_128_s"] = (m["_dense_prune_s"] - m["_dense_reforward_s"]
                                    + m["_dense_reforward_s"] * 128 / nsamples)
    if m["_eval_bytes"]:
        got["eval_16kb_s"] = m["training.evaluate_perplexity.s"] / m["_eval_bytes"] * 16384
    if m["training.steps"]:
        got["train_step_ms"] = 1e3 * m["training.train_model.s"] / m["training.steps"]
    if m["distill.steps"]:
        got["kd_step_ms"] = 1e3 * m["distill.distill.s"] / m["distill.steps"]
    return {k: {"measured": v, "roadmap": ROADMAP[k], "ratio": v / ROADMAP[k]}
            for k, v in got.items()}

"""Output checks run on every round. Each check is one attempted operation;
a check that fails or raises counts as one failed operation."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from moeprune.persistence import load_checkpoint, save_checkpoint

from workloads import Record, finite

GOLDEN = Path(__file__).with_name("golden.json")
# Perplexities must match the recorded value to this relative tolerance: wide
# enough for a different BLAS summation order, far below any change in masks.
GOLDEN_RTOL = 1e-6


class Checks:
    """Collects (name, ok, detail) results."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def run(self, name: str, fn, *args) -> None:
        try:
            detail = fn(*args)
            self.results.append((name, True, detail or ""))
        except Exception as exc:  # any check error is a failed check, never a crash
            self.results.append((name, False, f"{type(exc).__name__}: {exc}"))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def mask_structure(ckpt: Path, target: str) -> str:
    """Pruned positions hold exactly 0.0, and every comparison group keeps the
    count the target asks for. Stored weights are (d_in, d_out); a group is
    one output neuron's column, or an aligned run of m inputs within it."""
    model, masks = load_checkpoint(ckpt)
    _require(bool(masks), f"{ckpt.name}: no masks saved")
    for name, keep in masks.items():
        w = model.params[name]
        _require(bool((w[keep == 0] == 0.0).all()), f"{name}: nonzero weight under mask")
        per_neuron = keep.T  # (d_out, d_in) pruning orientation
        if target.startswith("p="):
            cols = per_neuron.shape[1]
            want = cols - math.floor(float(target[2:]) * cols)
            got = per_neuron.sum(axis=1)
            _require(bool((got == want).all()), f"{name}: rows keep {set(got.tolist())}, want {want}")
        else:
            n, m = (int(v) for v in target.split(":"))
            groups = per_neuron.reshape(per_neuron.shape[0], -1, m).sum(axis=2)
            _require(bool((groups == n).all()), f"{name}: groups keep {set(groups.ravel().tolist())}, want {n}")
    return f"{len(masks)} masks"


def outputs_finite(rec: Record) -> str:
    """Every loss and perplexity a command reports or logs is finite."""
    _require(rec.rc == 0, f"exit code {rec.rc}: {rec.error}")
    _require(isinstance(rec.output, dict), "no JSON on stdout")
    out = rec.output
    values: list = []
    if rec.cmd.kind == "train":
        if out["steps"] == 0:  # the init checkpoint: no loss to check
            return "0 steps"
        values = [out["final_loss"]] + _log_values(rec.cmd.out / "train_log.jsonl", ("loss",))
    elif rec.cmd.kind == "distill":
        values = [out["final_total"], out["lambda"]] + _log_values(
            rec.cmd.out / "kd_log.jsonl", ("l_ce", "l_expert", "total"))
    elif rec.cmd.kind == "prune":
        values = [out["sparsity_achieved"], out["recon_error_after_update"]]
    elif rec.cmd.kind == "eval":
        values = [out["perplexity"]]
        _require(out["token_count"] > 0, "eval scored no tokens")
    elif rec.cmd.kind == "analyze":
        values = [out["model_score"], *out["layer_scores"]]
    elif rec.cmd.kind == "sweep":
        with rec.cmd.out.open() as fh:
            values = [float(row["perplexity"]) for row in csv.DictReader(fh)]
        _require(len(values) == out["rows"], "sweep CSV row count differs from report")
    _require(len(values) > 0, "no values to check")
    bad = [v for v in values if not finite(v)]
    _require(not bad, f"non-finite values {bad[:3]}")
    return f"{len(values)} values"


def _log_values(path: Path, keys: tuple[str, ...]) -> list:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    _require(len(rows) > 0, f"{path.name} is empty")
    return [row[k] for row in rows for k in keys]


def save_roundtrip(ckpt: Path, scratch: Path) -> str:
    """Saving one model twice gives byte-identical files, and loading what was
    saved returns identical parameters and masks."""
    model, masks = load_checkpoint(ckpt)
    a, b = scratch / "save_a", scratch / "save_b"
    for d in (a, b):
        shutil.rmtree(d, ignore_errors=True)
        save_checkpoint(model, d, masks=masks)
    files = sorted(p.name for p in a.iterdir())
    _require(files == sorted(p.name for p in b.iterdir()), "saves wrote different files")
    for fname in files:
        _require((a / fname).read_bytes() == (b / fname).read_bytes(), f"{fname} differs between saves")
    again, again_masks = load_checkpoint(a)
    _require(all(np.array_equal(model.params[n], again.params[n]) for n in model.params),
             "params differ after save and load")
    _require((masks is None) == (again_masks is None), "masks lost in save and load")
    if masks:
        _require(all(np.array_equal(masks[n], again_masks[n]) for n in masks),
                 "masks differ after save and load")
    return "byte-identical"


def digest(ckpt: Path) -> str:
    return hashlib.sha256((ckpt / "tensors.bin").read_bytes()).hexdigest()


def same_as_first(now: dict, first: dict) -> str:
    """A repeated round reproduces the first round's artifacts and perplexities."""
    diff = sorted(k for k in first if now.get(k) != first[k])
    _require(not diff, f"round differs from the first on {diff[:3]}")
    return f"{len(first)} outputs"


def golden(key: str, seed: int, values: dict[str, float]) -> str:
    """Perplexities match the values recorded for this workload and seed."""
    table = json.loads(GOLDEN.read_text()).get(key, {})
    want = table.get(str(seed))
    if want is None:
        return f"no golden values recorded for {key} seed {seed}"
    for name, ref in want.items():
        got = values.get(name)
        _require(got is not None and abs(got - ref) <= GOLDEN_RTOL * abs(ref),
                 f"{name} = {got}, golden {ref} (rtol {GOLDEN_RTOL})")
    return f"{len(want)} values within rtol {GOLDEN_RTOL}"

"""Expert load-balance analysis: coefficient of variation of per-expert
dispatch counts, per layer and averaged over layers. Works on a live model or
on externally measured frequency files."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibration import CalibrationConfig, build_calibration_set, count_dispatch
from .calibration import collect  # noqa: F401  (bench/tracer.py wraps analysis.collect by name)
from .errors import FormatError, InputError
from .model import MoEModel

__all__ = ["BalanceReport", "balance_score", "analyze_model", "ingest_frequencies"]


@dataclass
class BalanceReport:
    model_name: str
    layer_scores: list[float]
    model_score: float
    frequencies: list[list[int]] | list[list[float]]
    mode: str = "argmax"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "mode": self.mode,
            "model_score": self.model_score,
            "layer_scores": self.layer_scores,
            "frequencies": self.frequencies,
            **self.extra,
        }


def balance_score(f) -> float:
    """Coefficient of variation sigma/mu of dispatch counts, population
    (1/n) standard deviation. 0 = perfectly balanced, sqrt(n-1) = fully
    concentrated. Counts so large that the score overflows raise InputError."""
    f = np.asarray(f, dtype=np.float64).ravel()
    if f.size == 0 or (f < 0).any():
        raise InputError("frequencies must be a nonempty nonnegative vector")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = f.mean()
        score = np.sqrt(((f - mu) ** 2).mean()) / mu
    if mu == 0.0:
        raise InputError("all-zero frequency vector has no balance score")
    if not np.isfinite(score):
        raise InputError("frequencies too large for a finite balance score")
    return float(score)


def _report_from_counts(counts: np.ndarray, name: str, mode: str) -> BalanceReport:
    layer_scores = [balance_score(row) for row in counts]
    return BalanceReport(
        model_name=name,
        layer_scores=layer_scores,
        model_score=float(np.mean(layer_scores)),
        frequencies=[list(map(int, row)) if np.issubdtype(counts.dtype, np.integer)
                     else list(map(float, row)) for row in counts],
        mode=mode,
    )


def analyze_model(
    model: MoEModel,
    corpus: bytes | str,
    calib: CalibrationConfig = CalibrationConfig(),
    mode: str = "argmax",
    name: str = "model",
) -> BalanceReport:
    """Route the calibration windows (no expert runs) and score the dispatch
    counts."""
    cal = build_calibration_set(corpus, calib.nsamples, model.config.seq_len, calib.seed)
    counts, total_tokens = count_dispatch(model, cal, mode)
    report = _report_from_counts(counts, name, mode)
    report.extra["total_tokens"] = int(total_tokens)
    return report


def ingest_frequencies(path) -> list[BalanceReport]:
    """Score externally measured frequencies.

    File schema: {"model_name": str, "mode": str, "layers": [[f_0..f_{n-1}],
    ...]} (names optional) or a nonempty list of such objects for side-by-side
    comparison. Each layer is a flat list of JSON numbers.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    entries = payload if isinstance(payload, list) else [payload]
    if not entries:
        raise FormatError(f"{path}: no entries")
    reports = []
    for entry in entries:
        if not isinstance(entry, dict) or "layers" not in entry:
            raise FormatError(f"{path}: each entry needs a 'layers' array")
        for key in ("model_name", "mode"):
            if not isinstance(entry.get(key, ""), str):
                raise FormatError(f"{path}: '{key}' must be a string")
        layers = entry["layers"]
        # type(), not isinstance(): JSON true and false parse to bools, which are ints
        if not isinstance(layers, list) or not layers or not all(
                isinstance(l, list) and all(type(f) in (int, float) for f in l) for l in layers):
            raise FormatError(f"{path}: 'layers' must be a nonempty list of lists of numbers")
        widths = {len(l) for l in layers}
        if len(widths) != 1:
            raise FormatError(f"{path}: ragged layer arrays (lengths {sorted(widths)})")
        try:
            counts = np.asarray(layers, dtype=np.float64)
        except OverflowError:
            raise FormatError(f"{path}: a frequency is too large for a float") from None
        if not np.isfinite(counts).all() or (counts < 0).any():
            raise FormatError(f"{path}: frequencies must be finite and nonnegative")
        reports.append(_report_from_counts(
            counts, entry.get("model_name", "unnamed"), entry.get("mode", "argmax")))
    return reports

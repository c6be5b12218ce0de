"""Command-line pipeline: train, prune, distill, eval, analyze, sweep.

Config file (JSON) sections: "model", "train", "calibration", "kd"; flags
override file values, and the effective configuration is echoed into every
artifact. Exit codes: 0 success, 2 usage error, 3 input/format error or out
of memory, 4 numerical error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import platform
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

from .analysis import analyze_model, ingest_frequencies
from .calibration import CalibrationConfig, CalibrationSet, build_calibration_set, collect
from .config import Section
from .distill import KDConfig, distill
from .errors import (ConfigError, FormatError, InputError, MoePruneError, NumericalError,
                     StorageError, UsageError)
from .model import ModelConfig, MoEModel
from .persistence import load_checkpoint, save_checkpoint
from .pruning import METHODS, SparsityTarget, prune_model
from .training import TrainConfig, evaluate_perplexity, train_model


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@functools.cache
def keep_freed_memory() -> None:
    """Under glibc, keep freed memory in the process for the next window's
    activations instead of handing it back to the kernel and faulting it in
    again: the heap's top is trimmed only past 1 GiB free, and blocks under
    32 MiB come from the heap, not from their own mmap (a fixed threshold
    also stops glibc's own adjustment of it). Other libcs are left alone."""
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL("libc.so.6")
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)


def _read_corpus(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}") from exc


def _calibration_set(corpus: bytes, calib: CalibrationConfig, model: MoEModel) -> CalibrationSet:
    return build_calibration_set(corpus, calib.nsamples, model.config.seq_len, calib.seed)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: config root must be a JSON object")
    sections = [c.SECTION for c in (ModelConfig, TrainConfig, CalibrationConfig, KDConfig)]
    for key in cfg:
        if key not in sections:
            raise ConfigError(f"config section {key!r} is not known; "
                              f"expected one of {', '.join(sections)}")
    return cfg


def _section(cls: type[Section], file_cfg: dict, args) -> Section:
    """A config section: its defaults, then the file's values, then each flag
    given (not None) whose dest is one of the section's fields."""
    return cls.from_dict(file_cfg.get(cls.SECTION, {}),
                         **{f.name: getattr(args, f.name, None) for f in fields(cls)})


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    _write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    config = _section(ModelConfig, file_cfg, args)
    train_cfg = _section(TrainConfig, file_cfg, args)
    corpus = _read_corpus(args.corpus)
    model = MoEModel.init(config, upcycle=args.upcycle)
    trained, log = train_model(model, corpus, train_cfg)
    effective = {"model": asdict(config), "train": asdict(train_cfg), "upcycle": args.upcycle}
    save_checkpoint(trained, args.out, extra={"config": effective})
    _write_jsonl(Path(args.out) / "train_log.jsonl", log)
    final = log[-1]["loss"] if log else None
    print(json.dumps({"out": str(args.out), "steps": len(log), "final_loss": final}))
    return 0


def cmd_prune(args) -> int:
    if (args.sparsity is None) == (args.pattern is None):
        raise UsageError("specify exactly one of --sparsity or --pattern")
    target = (SparsityTarget.unstructured(args.sparsity) if args.sparsity is not None
              else SparsityTarget.parse(args.pattern))
    file_cfg = _load_config_file(args.config)
    calib = _section(CalibrationConfig, file_cfg, args)
    model, _ = load_checkpoint(args.ckpt)
    stats = collect(model, _calibration_set(_read_corpus(args.calib), calib, model))
    pruned, masks, report = prune_model(model, stats, args.method, target,
                                        propagate=args.propagate)
    effective = {"model": asdict(model.config), "calibration": asdict(calib),
                 "method": args.method, "sparsity": target.describe(),
                 "propagate": args.propagate}
    save_checkpoint(pruned, args.out, masks=masks, extra={"config": effective})
    payload = {"config": effective, **asdict(report)}
    _write_json(Path(args.out) / "prune_report.json", payload)
    print(json.dumps({
        "out": str(args.out),
        "sparsity_achieved": report.totals["sparsity_achieved"],
        "recon_error_after_update": report.totals["recon_error_after_update"],
    }))
    return 0


def cmd_distill(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _section(KDConfig, file_cfg, args)
    student, masks = load_checkpoint(args.student)
    masks = {} if masks is None else masks
    # no name holds the teacher, so distill frees it once its cache is built
    result = distill(load_checkpoint(args.teacher)[0], student, masks,
                     _read_corpus(args.corpus), cfg)
    effective = {"model": asdict(student.config),
                 "kd": {**asdict(cfg), "lambda_resolved": result.lam}}
    save_checkpoint(result.student, args.out, masks=masks, extra={"config": effective})
    _write_jsonl(Path(args.out) / "kd_log.jsonl", result.log)
    last = result.log[-1] if result.log else None
    print(json.dumps({"out": str(args.out), "steps": len(result.log),
                      "lambda": result.lam,
                      "final_total": (last or {}).get("total")}))
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    ppl, tokens = evaluate_perplexity(model, _read_corpus(args.corpus))
    print(json.dumps({"perplexity": ppl, "token_count": tokens}))
    return 0


def cmd_analyze(args) -> int:
    if (args.ckpt is None) == (args.freq is None):
        raise UsageError("specify exactly one input: --ckpt (with --corpus) or --freq")
    if args.ckpt is not None:
        if args.corpus is None:
            raise UsageError("--ckpt requires --corpus")
        calib = _section(CalibrationConfig, {}, args)
        model, _ = load_checkpoint(args.ckpt)
        cal = _calibration_set(_read_corpus(args.corpus), calib, model)
        reports = [analyze_model(model, cal, mode=args.mode, name=str(args.ckpt))]
    else:
        reports = ingest_frequencies(args.freq)
    print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    return 0


def _sweep_list(flag: str, text: str, parse) -> list:
    """The distinct entries of a comma-separated sweep list, parsed, in order;
    at least one."""
    values = []
    for entry in filter(None, (e.strip() for e in text.split(","))):
        try:
            value = parse(entry)
        except ValueError:
            want = "an integer" if parse is int else "a number"
            raise UsageError(f"{flag} entry {entry!r} is not {want}") from None
        if value in values:
            warnings.warn(f"duplicate sweep setting {value} skipped", stacklevel=1)
        else:
            values.append(value)
    if not values:
        raise UsageError(f"{flag} lists no setting")
    return values


def cmd_sweep(args) -> int:
    if (args.sparsities is None) == (args.nsamples_list is None):
        raise UsageError("specify exactly one of --sparsities or --nsamples-list")
    calib = _section(CalibrationConfig, {}, args)
    # every setting is checked before the first prune
    if args.sparsities is not None:
        kind = "sparsity"
        settings = [(v, calib, SparsityTarget.unstructured(v))
                    for v in _sweep_list("--sparsities", args.sparsities, float)]
    else:
        kind = "nsamples"
        target = SparsityTarget.unstructured(args.sparsity)
        settings = [(v, replace(calib, nsamples=v), target)
                    for v in _sweep_list("--nsamples-list", args.nsamples_list, int)]
    out = Path(args.out)
    if out.is_dir():
        raise StorageError(f"cannot write {out}: it is a directory")
    model, _ = load_checkpoint(args.ckpt)
    calib_corpus = _read_corpus(args.calib)
    eval_corpus = _read_corpus(args.eval_corpus)

    rows = []
    stats = None
    for value, cal_cfg, target in settings:
        # a sparsity sweep holds nsamples and the seed fixed: collect once
        if stats is None or kind == "nsamples":
            stats = collect(model, _calibration_set(calib_corpus, cal_cfg, model))
        pruned, _, _ = prune_model(model, stats, args.method, target,
                                   propagate=args.propagate)
        ppl, _ = evaluate_perplexity(pruned, eval_corpus)
        rows.append(f"{value},{ppl}\r\n")
        print(f"{kind}={value}: perplexity={ppl:.4f}", file=sys.stderr)

    # CSV with RFC 4180 line ends (\r\n)
    _write_text(out, "setting,perplexity\r\n" + "".join(rows))
    print(json.dumps({"out": str(out), "rows": len(rows)}))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on each call, so no flag carries over between calls.

    A flag that several commands take is declared once, in `shared`. A flag
    that sets a config field has that field's name as its dest, which is how
    _section finds it."""
    shared = {
        "config": {}, "ckpt": {"required": True}, "corpus": {"required": True},
        "calib": {"required": True}, "out": {"required": True},
        "seed": {"type": int}, "nsamples": {"type": int}, "batch-size": {"type": int},
        "lr": {"type": float, "dest": "learning_rate", "metavar": "LR"},
        "method": {"choices": list(METHODS), "default": "moe-pruner"},
        "propagate": {"choices": ["dense", "recompute"], "default": "dense"},
    }
    p = argparse.ArgumentParser(prog="moeprune",
                                description="Desk-scale MoE pruning toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags, **helps):
        """Subcommand `name`, run by func, with the shared flags listed in
        flags (space-separated, no dashes), each with its help from helps."""
        c = sub.add_parser(name, help=help)
        c.set_defaults(func=func)
        for flag in flags.split():
            c.add_argument(f"--{flag}", help=helps.get(flag), **shared[flag])
        return c

    t = command("train", cmd_train, "train a toy MoE teacher with plain CE",
                "config corpus seed lr batch-size out", config="JSON run-config file")
    t.add_argument("--steps", type=int)
    t.add_argument("--upcycle", action="store_true",
                   help="clone expert 0 across each layer at init")

    pr = command("prune", cmd_prune, "one-shot prune expert matrices",
                 "config ckpt method calib nsamples seed propagate out",
                 calib="calibration corpus path")
    pr.add_argument("--sparsity", type=float, help="unstructured fraction in [0,1)")
    pr.add_argument("--pattern", help="semi-structured N:M, e.g. 2:4")

    di = command("distill", cmd_distill, "expert-wise KD from teacher to pruned student",
                 "config corpus lr batch-size seed out")
    di.add_argument("--teacher", required=True)
    di.add_argument("--student", required=True)
    di.add_argument("--samples", type=int)
    di.add_argument("--epochs", type=int)
    di.add_argument("--lam", type=float, dest="lambda_mode", metavar="LAM",
                    help="fixed lambda (default: auto l_ce/l_expert)")
    di.add_argument("--full-parameter", action="store_const", const=False, dest="router_frozen",
                    help="also update the router (default keeps it frozen)")

    command("eval", cmd_eval, "perplexity over non-overlapping windows", "ckpt corpus")

    an = command("analyze", cmd_analyze, "expert load-balance report", "nsamples seed")
    an.add_argument("--ckpt")
    an.add_argument("--corpus")
    an.add_argument("--freq", help="external frequency JSON file")
    an.add_argument("--mode", choices=["argmax", "topk"], default="argmax")

    sw = command("sweep", cmd_sweep, "prune+eval over a list of settings, CSV out",
                 "ckpt method calib propagate seed nsamples out",
                 nsamples="fixed nsamples for --sparsities")
    sw.add_argument("--sparsities", help="comma list, e.g. 0.1,0.3,0.5")
    sw.add_argument("--nsamples-list", help="comma list, e.g. 2,8,32,128")
    sw.add_argument("--sparsity", type=float, default=0.5,
                    help="fixed sparsity for --nsamples-list")
    sw.add_argument("--eval-corpus", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except MoePruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

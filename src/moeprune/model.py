"""Toy MoE transformer: byte-level tokens, causal attention, top-k softmax
router, SwiGLU experts.

Blocks are pre-norm residual (parameter-free RMSNorm) with the MoE layer in
the FFN slot. There is no positional encoding: the residual path carries the
current token's embedding straight to the head, and content-based attention
supplies the rest, which is enough at desk scale. Attention and router weights
are never pruned; only expert matrices are.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tape, Var
from .config import Section
from .errors import ConfigError, ContractError, InputError, NumericalError, ShapeError
from .numerics import SeededRng

__all__ = [
    "ModelConfig",
    "MoEModel",
    "model_forward",
    "ForwardResult",
    "LayerTrace",
]

INIT_STD = 0.02
# Rows (tokens) one batched forward of stacked windows may hold: callers
# that stream a corpus cut it into batches of at most this many, so memory
# stays bounded for any corpus length.
ROWS_PER_FORWARD = 4096


@dataclass(frozen=True)
class ModelConfig(Section):
    SECTION = "model"

    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    n_experts: int = 4
    top_k: int = 2
    d_ff: int = 128
    seq_len: int = 128
    vocab_size: int = 256
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        for name in self.__dataclass_fields__:
            if name != "seed" and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be at least 2 (a window needs a next token), "
                              f"got {self.seq_len}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(f"top_k={self.top_k} must be in [1, n_experts={self.n_experts}]")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")

    def architecture_diff(self, other: "ModelConfig") -> str:
        """The first architecture field (any but seq_len and seed) on which
        the two configs differ, as "field: mine vs other's"; "" if none."""
        for f in ("d_model", "n_heads", "n_layers", "n_experts", "top_k", "d_ff", "vocab_size"):
            if getattr(self, f) != getattr(other, f):
                return f"{f}: {getattr(self, f)} vs {getattr(other, f)}"
        return ""


def param_count(cfg: ModelConfig) -> int:
    """len(param_shapes(cfg)), without building the table."""
    return 2 + cfg.n_layers * (5 + 3 * cfg.n_experts)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's shape, by name, in canonical order."""
    d, f = cfg.d_model, cfg.d_ff
    shapes = {"token_embedding": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        shapes |= {f"layers.{i}.attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")}
        shapes[f"layers.{i}.router"] = (d, cfg.n_experts)
        for e in range(cfg.n_experts):
            base = f"layers.{i}.experts.{e}"
            shapes |= {f"{base}.w_gate": (d, f), f"{base}.w_up": (d, f), f"{base}.w_down": (f, d)}
    shapes["lm_head"] = (d, cfg.vocab_size)
    return shapes


class MoEModel:
    """Named-parameter container; forward passes live in free functions."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        expected = param_shapes(config)
        for name, shape in expected.items():
            if name not in params or params[name].shape != shape:
                raise ShapeError(f"parameter {name} is missing or not of shape {shape}")
        self.params = {n: np.ascontiguousarray(params[n], dtype=np.float64) for n in expected}

    @classmethod
    def init(cls, config: ModelConfig, upcycle: bool = False) -> "MoEModel":
        """Gaussian init (std 0.02) from one seeded stream, in canonical name
        order. upcycle=True clones expert 0 across each layer."""
        rng = SeededRng(config.seed)
        params: dict[str, np.ndarray] = {}
        for name, (r, c) in param_shapes(config).items():
            params[name] = rng.normal_matrix(r, c, INIT_STD)
        if upcycle:
            for i in range(config.n_layers):
                for part in ("w_gate", "w_up", "w_down"):
                    src = params[f"layers.{i}.experts.0.{part}"]
                    for e in range(1, config.n_experts):
                        params[f"layers.{i}.experts.{e}.{part}"] = src.copy()
        return cls(config, params)

    def copy(self) -> "MoEModel":
        return MoEModel(self.config, {n: p.copy() for n, p in self.params.items()})


def _topk_mask(logits: np.ndarray, k: int) -> np.ndarray:
    """Boolean keep-mask of each row's k largest logits. Ties broken by
    lowest expert index (stable argsort on negated logits)."""
    order = np.argsort(-logits, axis=1, kind="stable")
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


# ---------------------------------------------------------------------------
# Batched forward pass (tape-based; with constant parameters nothing is taped)
# ---------------------------------------------------------------------------


@dataclass
class LayerTrace:
    moe_input: np.ndarray                    # (B*T, d_model) input to the MoE layer
    # the normalized router weights, top_k nonzeros per row summing to 1, so
    # an expert's routed rows are the nonzeros of its column
    gates: np.ndarray                        # (B*T, n_experts)
    router_logits: np.ndarray                # (B*T, n_experts) the logits gates came from
    expert_tokens: dict[int, np.ndarray]     # expert -> flattened rows routed to it
    expert_outputs: dict[int, np.ndarray]    # expert -> (t_e, d_model) outputs
    # expert -> (t_e, d_ff) SwiGLU intermediate, filled only by a pass that
    # stops at "hidden"; any other pass leaves each entry empty
    expert_hidden: dict[int, np.ndarray]


@dataclass
class ForwardResult:
    """One forward's Vars, for building losses, plus its plain trace."""

    logits: Var | None                       # None when the pass stopped early
    tokens: np.ndarray                       # (B, T) validated batch
    layers: list[LayerTrace]
    layer_input_vars: list[Var]
    forced_outputs: list[dict[int, Var]]     # per layer, empty without forced_dispatch


def _validate_tokens(tokens, cfg: ModelConfig) -> np.ndarray:
    """The (B, T) batch of B equal-length windows; a 1-D sequence is B = 1."""
    try:
        toks = np.asarray(tokens, dtype=np.intp)
    except (TypeError, ValueError):
        raise InputError("a batch must hold integer windows of equal length") from None
    if toks.ndim == 1:
        toks = toks[None]
    if toks.ndim != 2 or toks.size == 0:
        raise InputError("tokens must be a nonempty sequence or a (batch, length) array")
    if toks.shape[1] > cfg.seq_len:
        raise InputError(f"sequence length {toks.shape[1]} exceeds seq_len {cfg.seq_len}")
    if toks.min() < 0 or toks.max() >= cfg.vocab_size:
        raise InputError(f"token out of vocabulary range [0, {cfg.vocab_size})")
    return toks


def window_batches(windows: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Consecutive equal-length windows stacked into (B, T) batches of at most
    ROWS_PER_FORWARD rows (one window at least), in order."""
    if not windows:
        return
    T = len(windows[0])
    if any(len(w) != T for w in windows):
        raise InputError("calibration and evaluation windows must have equal length")
    per_batch = max(1, ROWS_PER_FORWARD // max(T, 1))
    for b0 in range(0, len(windows), per_batch):
        yield np.stack(windows[b0 : b0 + per_batch])


def next_token_targets(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a (B, T) batch: the flattened rows that have a next token, and
    those next tokens."""
    B, T = tokens.shape
    rows = (np.arange(B)[:, None] * T + np.arange(T - 1)).ravel()
    return rows, tokens[:, 1:].ravel()


def make_param_vars(model: MoEModel, tape: Tape) -> dict[str, Var]:
    """A leaf Var on tape for each parameter, by name; each reads its
    parameter's array, with no copy. A sparsity mask acts on the gradient
    (optim.Adam), not here: a pruned weight is an exact zero already."""
    return {n: tape.var(p) for n, p in model.params.items()}


def _subset_rows(y: Var, rows: np.ndarray, sub: np.ndarray) -> Var:
    """The rows of y (one per entry of the increasing `rows`) at `sub`, an
    increasing subset of rows: y itself when sub is all of them."""
    return y if sub.size == rows.size else ag.gather_rows(y, np.searchsorted(rows, sub))


def forward_pass(
    model: MoEModel,
    tokens,
    pv: dict[str, Var],
    forced_dispatch: list[dict[int, np.ndarray]] | None = None,
    stop: tuple[int, str] | None = None,
) -> ForwardResult:
    """Build the causal forward graph of a (B, T) batch of equal-length
    windows (a 1-D sequence is B = 1) on the tape of the parameter Vars pv;
    returns its ForwardResult: the Vars losses are built from, plus a plain
    trace.

    pv maps every parameter name to the Var the graph reads: the leaf Vars
    of make_param_vars, read directly (a pruned weight, an exact zero,
    contributes nothing; its mask acts on the gradient, in optim.Adam), or
    constants, which record no tape.
    The batch is flattened to B*T rows, window-major: logits, MoE inputs and
    every token index (expert_tokens, forced_dispatch) address those rows.
    forced_dispatch: per layer, expert -> increasing row indices; the trace's
    forced_outputs then holds, per layer, each such expert's output on those
    rows (the teacher-forced sets distillation needs). An expert runs once per
    layer, on the union of its own and its forced rows.
    stop: (layer i, point) ends the pass inside layer i, for callers that read
    no further, and excludes forced_dispatch; the trace then ends at layer i
    and logits is None. At
    "router" layer i's trace holds its MoE input and gates, and no expert
    entries; at "hidden" it also holds each expert's rows, and no expert
    outputs (no w_down, no combine); at "experts" it holds the expert
    outputs too (no combine, no head). Only a pass that stops at "hidden"
    records the experts' SwiGLU intermediates, in every layer it runs; any
    other pass leaves each expert_hidden entry empty.
    """
    cfg = model.config
    toks = _validate_tokens(tokens, cfg)
    B = toks.shape[0]
    last, until = stop if stop is not None else (cfg.n_layers - 1, None)
    if not 0 <= last < cfg.n_layers or until not in (None, "router", "hidden", "experts"):
        raise ContractError(f"no stop point {stop!r} in a {cfg.n_layers}-layer forward")
    if stop is not None and forced_dispatch is not None:
        raise ContractError("a stopped forward takes no forced_dispatch")

    h = ag.gather_rows(pv["token_embedding"], toks.ravel())
    layers: list[LayerTrace] = []
    layer_input_vars: list[Var] = []
    forced_outputs: list[dict[int, Var]] = []

    for i in range(last + 1):
        stop_here = until if i == last else None
        # attention block
        a = ag.rmsnorm(h)
        attn = ag.causal_attention(ag.matmul(a, pv[f"layers.{i}.attn.wq"]),
                                   ag.matmul(a, pv[f"layers.{i}.attn.wk"]),
                                   ag.matmul(a, pv[f"layers.{i}.attn.wv"]), B, cfg.n_heads)
        h = ag.add(h, ag.matmul(attn, pv[f"layers.{i}.attn.wo"]))

        # MoE block
        m = ag.rmsnorm(h)
        layer_input_vars.append(m)
        logits = ag.matmul(m, pv[f"layers.{i}.router"])
        gates = ag.row_softmax(logits, _topk_mask(logits.value, cfg.top_k))
        if not (np.count_nonzero(gates.value, axis=1) == cfg.top_k).all():
            raise NumericalError(f"gate rows must have exactly {cfg.top_k} nonzeros")
        if not np.abs(gates.value.sum(axis=1) - 1.0).max() < 1e-12:
            raise NumericalError("gate rows must sum to 1")

        expert_tokens: dict[int, np.ndarray] = {}
        expert_outputs: dict[int, np.ndarray] = {}
        expert_hidden: dict[int, np.ndarray] = {}
        layers.append(LayerTrace(
            moe_input=m.value, gates=gates.value, router_logits=logits.value,
            expert_tokens=expert_tokens, expert_outputs=expert_outputs, expert_hidden=expert_hidden,
        ))
        if stop_here == "router":
            break
        outs: dict[int, Var] = {}
        forced_outs: dict[int, Var] = {}
        for e in range(cfg.n_experts):
            own = np.nonzero(gates.value[:, e])[0]
            forced = (np.asarray(forced_dispatch[i].get(e, ()), dtype=np.intp)
                      if forced_dispatch is not None else own[:0])
            # one expert call serves both uses: on the own rows, or on the
            # union when the forced rows differ; each use takes its rows
            rows = own if not forced.size or np.array_equal(own, forced) else np.union1d(own, forced)
            expert_tokens[e] = own
            expert_outputs[e] = np.zeros((0, cfg.d_model))
            expert_hidden[e] = np.zeros((0, cfg.d_ff))
            if rows.size == 0:
                continue
            # one fused node per expert call, w_down included unless the pass
            # records intermediates: it keeps two (rows x d_ff) arrays when taped
            base = f"layers.{i}.experts.{e}"
            operands = [ag.gather_rows(m, rows), pv[f"{base}.w_gate"], pv[f"{base}.w_up"]]
            w_down = pv[f"{base}.w_down"]
            if until == "hidden":  # a stopped pass forces no rows: rows == own
                hid = ag.swiglu(*operands)
                expert_hidden[e] = hid.value
                if stop_here:
                    continue
            y = ag.matmul(hid, w_down) if until == "hidden" else ag.swiglu(*operands, w_down)
            if forced.size:
                forced_outs[e] = _subset_rows(y, rows, forced)
            if own.size:
                outs[e] = _subset_rows(y, rows, own)
                expert_outputs[e] = outs[e].value
        if stop_here:
            break
        if forced_dispatch is not None:
            forced_outputs.append(forced_outs)
        h = ag.add(h, ag.moe_combine(gates, outs, expert_tokens))

    logits = ag.matmul(ag.rmsnorm(h), pv["lm_head"]) if until is None else None
    return ForwardResult(logits=logits, tokens=toks, layers=layers,
                         layer_input_vars=layer_input_vars, forced_outputs=forced_outputs)


def model_forward(model: MoEModel, tokens, stop: tuple[int, str] | None = None) -> ForwardResult:
    """forward_pass with every parameter a constant, so nothing is taped: the
    causal next-token logits of a (B, T) batch as a constant Var, one row per
    token, plus the per-layer trace calibration and distillation consume (MoE
    inputs, gates, per-expert outputs). stop ends the pass early, as in
    forward_pass; only a pass that stops at "hidden" records the experts'
    SwiGLU intermediates."""
    tape = Tape()
    return forward_pass(model, tokens, {n: tape.const(p) for n, p in model.params.items()},
                        stop=stop)

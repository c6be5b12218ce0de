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
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tape, Var
from .errors import ConfigError, InputError, ShapeError
from .numerics import SeededRng, matmul, silu

__all__ = [
    "ModelConfig",
    "ExpertWeights",
    "MoELayer",
    "GateMatrix",
    "MoEModel",
    "route",
    "expert_forward",
    "moe_layer_forward",
    "model_forward",
    "ce_loss",
    "ForwardResult",
    "LayerTrace",
]

INIT_STD = 0.02
# Rows (tokens) one batched forward of stacked windows may hold: callers
# that stream a corpus cut it into batches of at most this many, so memory
# stays bounded for any corpus length.
ROWS_PER_FORWARD = 4096


@dataclass(frozen=True)
class ModelConfig:
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
        dims = {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "n_experts": self.n_experts,
            "top_k": self.top_k,
            "d_ff": self.d_ff,
            "seq_len": self.seq_len,
            "vocab_size": self.vocab_size,
        }
        for name, v in dims.items():
            if v <= 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(f"top_k={self.top_k} must be in [1, n_experts={self.n_experts}]")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "n_experts": self.n_experts,
            "top_k": self.top_k,
            "d_ff": self.d_ff,
            "seq_len": self.seq_len,
            "vocab_size": self.vocab_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = cls.__dataclass_fields__
        for k, v in d.items():
            if k not in known:
                raise ConfigError(f"unknown model config key {k!r}; known keys: {', '.join(known)}")
            if type(v) is not int:
                raise ConfigError(f"model config key {k!r} must be an integer, got {v!r}")
        return cls(**d)


@dataclass
class ExpertWeights:
    w_gate: np.ndarray  # (d_model, d_ff)
    w_up: np.ndarray    # (d_model, d_ff)
    w_down: np.ndarray  # (d_ff, d_model)


@dataclass
class MoELayer:
    router: np.ndarray  # (d_model, n_experts)
    experts: list[ExpertWeights]


@dataclass
class GateMatrix:
    """Normalized router weights: zeros at unselected experts, rows sum to 1.

    probs holds the full (pre-top-k) softmax over router logits, the p(x) that
    dispatch-frequency counting takes its argmax over.
    """

    values: np.ndarray    # (tokens, n_experts)
    selected: np.ndarray  # (tokens, top_k) expert indices, ascending
    probs: np.ndarray     # (tokens, n_experts)

    def validate(self, top_k: int) -> None:
        nz = np.count_nonzero(self.values, axis=1)
        assert (nz == top_k).all(), f"gate rows must have exactly {top_k} nonzeros"
        sums = self.values.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12, "gate rows must sum to 1"


def _canonical_param_names(cfg: ModelConfig) -> list[str]:
    names = ["token_embedding"]
    for i in range(cfg.n_layers):
        names += [f"layers.{i}.attn.wq", f"layers.{i}.attn.wk",
                  f"layers.{i}.attn.wv", f"layers.{i}.attn.wo",
                  f"layers.{i}.router"]
        for e in range(cfg.n_experts):
            names += [f"layers.{i}.experts.{e}.w_gate",
                      f"layers.{i}.experts.{e}.w_up",
                      f"layers.{i}.experts.{e}.w_down"]
    names.append("lm_head")
    return names


def _param_shape(name: str, cfg: ModelConfig) -> tuple[int, int]:
    if name == "token_embedding":
        return (cfg.vocab_size, cfg.d_model)
    if name == "lm_head":
        return (cfg.d_model, cfg.vocab_size)
    if name.endswith(".router"):
        return (cfg.d_model, cfg.n_experts)
    if ".attn." in name:
        return (cfg.d_model, cfg.d_model)
    if name.endswith(".w_down"):
        return (cfg.d_ff, cfg.d_model)
    return (cfg.d_model, cfg.d_ff)  # w_gate / w_up


class MoEModel:
    """Named-parameter container; forward passes live in free functions."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        expected = _canonical_param_names(config)
        missing = [n for n in expected if n not in params]
        if missing:
            raise ShapeError(f"missing parameters: {missing[:3]}...")
        for name in expected:
            shape = _param_shape(name, config)
            if params[name].shape != shape:
                raise ShapeError(f"parameter {name} has shape {params[name].shape}, expected {shape}")
        self.params = {n: np.ascontiguousarray(params[n], dtype=np.float64) for n in expected}

    @classmethod
    def init(cls, config: ModelConfig, upcycle: bool = False) -> "MoEModel":
        """Gaussian init (std 0.02) from one seeded stream, in canonical name
        order. upcycle=True clones expert 0 across each layer."""
        rng = SeededRng(config.seed)
        params: dict[str, np.ndarray] = {}
        for name in _canonical_param_names(config):
            r, c = _param_shape(name, config)
            params[name] = rng.normal_matrix(r, c, INIT_STD)
        if upcycle:
            for i in range(config.n_layers):
                for part in ("w_gate", "w_up", "w_down"):
                    src = params[f"layers.{i}.experts.0.{part}"]
                    for e in range(1, config.n_experts):
                        params[f"layers.{i}.experts.{e}.{part}"] = src.copy()
        return cls(config, params)

    def param_names(self) -> list[str]:
        return _canonical_param_names(self.config)

    def expert_param_names(self) -> list[str]:
        return [n for n in self.param_names() if ".experts." in n]

    def moe_layer(self, i: int) -> MoELayer:
        cfg = self.config
        experts = [
            ExpertWeights(
                w_gate=self.params[f"layers.{i}.experts.{e}.w_gate"],
                w_up=self.params[f"layers.{i}.experts.{e}.w_up"],
                w_down=self.params[f"layers.{i}.experts.{e}.w_down"],
            )
            for e in range(cfg.n_experts)
        ]
        return MoELayer(router=self.params[f"layers.{i}.router"], experts=experts)

    def copy(self) -> "MoEModel":
        return MoEModel(self.config, {n: p.copy() for n, p in self.params.items()})


def _topk_mask(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean keep-mask and (tokens, k) ascending selected indices.

    Ties broken by lowest expert index (stable argsort on negated logits).
    """
    order = np.argsort(-logits, axis=1, kind="stable")
    selected = np.sort(order[:, :k], axis=1)
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, selected, True, axis=1)
    return mask, selected


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    masked = np.where(mask, x, -np.inf)
    shifted = x - masked.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum(axis=1, keepdims=True)


def _full_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def route(x: np.ndarray, layer: MoELayer, k: int) -> GateMatrix:
    """Top-k softmax gate: keep the k largest logits per row, softmax over the
    survivors, zeros elsewhere."""
    if k > layer.router.shape[1]:
        raise ConfigError(f"top_k={k} exceeds n_experts={layer.router.shape[1]}")
    logits = matmul(x, layer.router)
    mask, selected = _topk_mask(logits, k)
    gates = _masked_softmax(logits, mask)
    gm = GateMatrix(values=gates, selected=selected, probs=_full_softmax(logits))
    gm.validate(k)
    return gm


def expert_forward(x: np.ndarray, e: ExpertWeights) -> np.ndarray:
    """SwiGLU expert: (silu(x W_gate) * (x W_up)) W_down."""
    if x.shape[1] != e.w_gate.shape[0]:
        raise ShapeError(f"expert input width {x.shape[1]} != d_model {e.w_gate.shape[0]}")
    return matmul(silu(matmul(x, e.w_gate)) * matmul(x, e.w_up), e.w_down)


def moe_layer_forward(x: np.ndarray, layer: MoELayer, k: int) -> tuple[np.ndarray, GateMatrix]:
    """Gate-weighted sum of expert outputs; experts with zero gate for a token
    are not evaluated on it."""
    gm = route(x, layer, k)
    y = np.zeros_like(x)
    for e, expert in enumerate(layer.experts):
        idx = np.nonzero(gm.values[:, e])[0]
        if idx.size == 0:
            continue
        out = expert_forward(x[idx], expert)
        y[idx] += gm.values[idx, e][:, None] * out
    return y, gm


def ce_loss(logits: np.ndarray, targets) -> float:
    """Mean next-token cross-entropy, natural log."""
    targets = np.asarray(targets, dtype=np.intp)
    if targets.ndim != 1 or targets.size != logits.shape[0]:
        raise ShapeError(f"targets length {targets.size} != logits rows {logits.shape[0]}")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise InputError(f"target out of vocabulary range [0, {logits.shape[1]})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    picked = shifted[np.arange(targets.size), targets]
    logz = np.log(np.exp(shifted, out=shifted).sum(axis=1))
    return float((logz - picked).mean())


# ---------------------------------------------------------------------------
# Batched forward pass (tape-based; with constant parameters nothing is taped)
# ---------------------------------------------------------------------------


@dataclass
class LayerTrace:
    moe_input: np.ndarray                    # (B*T, d_model) input to the MoE layer
    gates: GateMatrix
    expert_tokens: dict[int, np.ndarray]     # expert -> flattened rows routed to it
    expert_outputs: dict[int, np.ndarray]    # expert -> (t_e, d_model) outputs
    expert_hidden: dict[int, np.ndarray]     # expert -> (t_e, d_ff) SwiGLU intermediate


@dataclass
class ForwardResult:
    logits: np.ndarray
    layers: list[LayerTrace]


@dataclass
class _TapeTrace:
    """Internal forward handle: Var references for loss building."""

    logits: Var
    tokens: np.ndarray                       # (B, T) validated batch
    layers: list[LayerTrace]
    layer_input_vars: list[Var]
    tape: Tape
    forced_outputs: list[dict[int, Var]] | None = None
    result: ForwardResult = field(init=False)

    def __post_init__(self):
        self.result = ForwardResult(logits=self.logits.value, layers=self.layers)


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


def make_param_vars(
    model: MoEModel, tape: Tape, masks: dict[str, np.ndarray] | None = None
) -> tuple[dict[str, Var], dict[str, Var]]:
    """(leaf, effective) parameter Vars; masked parameters flow through
    masked-assign so pruned positions carry zero value and zero gradient."""
    leaf = {n: tape.var(p) for n, p in model.params.items()}
    pv: dict[str, Var] = dict(leaf)
    if masks:
        for name, m in masks.items():
            if name not in pv:
                raise ShapeError(f"mask targets unknown parameter {name!r}")
            pv[name] = ag.masked_assign(leaf[name], m)
    return leaf, pv


def _expert(pv: dict[str, Var], i: int, e: int, x: Var) -> tuple[Var, Var]:
    """SwiGLU expert e of layer i on rows x: (intermediate, output)."""
    base = f"layers.{i}.experts.{e}"
    hid = ag.mul(ag.silu(ag.matmul(x, pv[f"{base}.w_gate"])),
                 ag.matmul(x, pv[f"{base}.w_up"]))
    return hid, ag.matmul(hid, pv[f"{base}.w_down"])


def forward_pass(
    model: MoEModel,
    tokens,
    tape: Tape | None = None,
    masks: dict[str, np.ndarray] | None = None,
    forced_dispatch: list[dict[int, np.ndarray]] | None = None,
    params: tuple[dict[str, Var], dict[str, Var]] | None = None,
) -> _TapeTrace:
    """Build the causal forward graph of a (B, T) batch of equal-length
    windows (a 1-D sequence is B = 1); returns Vars plus a plain trace.

    The batch is flattened to B*T rows, window-major: logits, MoE inputs and
    every token index (expert_tokens, forced_dispatch) address those rows.
    masks: sparsity masks applied in-graph (masked-assign), so pruned weights
    contribute nothing and receive zero gradient.
    forced_dispatch: per layer, expert -> row indices; additionally evaluates
    those experts on those rows (the teacher-forced sets distillation needs).
    params: (leaf, effective) Vars from make_param_vars, or constants.
    """
    cfg = model.config
    toks = _validate_tokens(tokens, cfg)
    B = toks.shape[0]
    if tape is None:
        tape = Tape()

    if params is None:
        params = make_param_vars(model, tape, masks)
    pv = params[1]

    h = ag.gather_rows(pv["token_embedding"], toks.ravel())
    layers: list[LayerTrace] = []
    layer_input_vars: list[Var] = []

    for i in range(cfg.n_layers):
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
        keep, selected = _topk_mask(logits.value, cfg.top_k)
        gates = ag.row_softmax(logits, mask=keep)
        gm = GateMatrix(values=gates.value, selected=selected,
                        probs=_full_softmax(logits.value))
        gm.validate(cfg.top_k)

        expert_tokens: dict[int, np.ndarray] = {}
        expert_outputs: dict[int, np.ndarray] = {}
        expert_hidden: dict[int, np.ndarray] = {}
        outs: dict[int, Var] = {}
        for e in range(cfg.n_experts):
            idx = np.nonzero(gm.values[:, e])[0]
            expert_tokens[e] = idx
            if idx.size == 0:
                expert_outputs[e] = np.zeros((0, cfg.d_model))
                expert_hidden[e] = np.zeros((0, cfg.d_ff))
                continue
            hid, outs[e] = _expert(pv, i, e, ag.gather_rows(m, idx))
            expert_outputs[e] = outs[e].value
            expert_hidden[e] = hid.value
        h = ag.add(h, ag.moe_combine(gates, outs, expert_tokens))

        layers.append(LayerTrace(
            moe_input=m.value, gates=gm, expert_tokens=expert_tokens,
            expert_outputs=expert_outputs, expert_hidden=expert_hidden,
        ))

    logits = ag.matmul(ag.rmsnorm(h), pv["lm_head"])
    trace = _TapeTrace(logits=logits, tokens=toks, layers=layers,
                       layer_input_vars=layer_input_vars, tape=tape)
    if forced_dispatch is not None:
        trace.forced_outputs = [
            {e: _expert(pv, i, e, ag.gather_rows(m, idx))[1]
             for e, idx in forced_dispatch[i].items() if len(idx)}
            for i, m in enumerate(layer_input_vars)
        ]
    return trace


def model_forward(model: MoEModel, tokens) -> ForwardResult:
    """Causal next-token logits of a (B, T) batch, one row per token, plus the
    per-layer trace calibration and distillation consume (MoE inputs, gates,
    per-expert outputs). Parameters enter as constants, so nothing is taped."""
    tape = Tape()
    consts = {n: tape.const(p) for n, p in model.params.items()}
    return forward_pass(model, tokens, tape=tape, params=(consts, consts)).result

"""moeprune: desk-scale Mixture-of-Experts pruning toolkit.

Train or load a tiny MoE transformer, collect gate-weighted calibration
statistics, prune expert weights one-shot (gate-weighted metric plus
magnitude / input-norm / Hessian baselines) under unstructured or N:M
sparsity, recover quality with expert-wise knowledge distillation, and analyze
expert load balance.
"""

from .analysis import BalanceReport, balance_score
from .calibration import (
    CalibrationConfig,
    CalibrationSet,
    CalibrationStats,
    build_calibration_set,
    collect,
)
from .distill import KDConfig, distill
from .model import ModelConfig, MoEModel, model_forward
from .pruning import PruneReport, SparsityTarget, prune_model
from .training import TrainConfig, evaluate_perplexity, train_model

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "balance_score",
    "CalibrationConfig",
    "CalibrationSet",
    "CalibrationStats",
    "build_calibration_set",
    "collect",
    "KDConfig",
    "distill",
    "ModelConfig",
    "MoEModel",
    "model_forward",
    "PruneReport",
    "SparsityTarget",
    "prune_model",
    "TrainConfig",
    "evaluate_perplexity",
    "train_model",
    "__version__",
]

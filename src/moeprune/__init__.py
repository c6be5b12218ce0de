"""moeprune: desk-scale Mixture-of-Experts pruning toolkit.

Train or load a tiny MoE transformer, collect gate-weighted calibration
statistics, prune expert weights one-shot (gate-weighted metric plus
magnitude / input-norm / Hessian baselines) under unstructured or N:M
sparsity, recover quality with expert-wise knowledge distillation, and analyze
expert load balance.
"""

__version__ = "0.1.0"

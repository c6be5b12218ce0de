"""The benchmark's tracer wraps moeprune functions by name (bench/tracer.py).

Building a Recorder resolves every binding, so a renamed or deleted function
fails here, in the tier-1 suite, rather than only in the benchmark's own run;
a traced run of the pipeline does the same for the results the tracer reads.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from moeprune import cli

from conftest import synth_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer


def test_every_binding_resolves_and_is_restored(tracer):
    rec = tracer.Recorder()
    patches = rec.patches
    assert len(patches) == 39
    assert len({(id(owner), attr) for owner, attr, _, _ in patches}) == len(patches)
    for owner, attr, original, wrapper in patches:
        assert getattr(owner, attr) is original
        assert callable(original) and wrapper is not original
    with rec.installed():
        for owner, attr, _, wrapper in patches:
            assert getattr(owner, attr) is wrapper, attr
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, attr



def test_traced_pipeline_yields_every_metric(tracer, tmp_path):
    # the tracer reads what train, prune, distill, eval and analyze return:
    # step logs, prune targets, token counts
    (tmp_path / "corpus.txt").write_bytes(synth_corpus(seed=3, size=1 << 12))
    (tmp_path / "config.json").write_text(json.dumps({"model": {
        "d_model": 16, "n_heads": 2, "n_layers": 1, "n_experts": 4, "top_k": 2, "d_ff": 16,
        "seq_len": 16, "vocab_size": 256, "seed": 5}}))
    corpus, teacher, student = tmp_path / "corpus.txt", tmp_path / "t", tmp_path / "s"
    commands = [
        ["train", "--config", tmp_path / "config.json", "--corpus", corpus, "--steps", "2",
         "--batch-size", "2", "--out", teacher],
        ["prune", "--ckpt", teacher, "--method", "sparsegpt", "--sparsity", "0.5",
         "--calib", corpus, "--nsamples", "4", "--out", student],
        ["distill", "--teacher", teacher, "--student", student, "--corpus", corpus,
         "--samples", "4", "--epochs", "1", "--batch-size", "2", "--out", tmp_path / "kd"],
        ["eval", "--ckpt", tmp_path / "kd", "--corpus", corpus],
        ["analyze", "--ckpt", teacher, "--corpus", corpus, "--nsamples", "4"],
    ]
    rec = tracer.Recorder()
    mark = rec.mark()
    with rec.installed():
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0, argv[0]
    metrics = tracer.layer_metrics(rec, mark)
    for name, _ in tracer.PER_LAYER:
        if not name.startswith("trace."):
            assert math.isfinite(metrics[name]), name
    for name in ("training.steps", "distill.steps", "pruning.targets"):
        assert metrics[name] > 0, name
    # one Adam step, and one graph, per train and KD step
    assert metrics["optim.adam_step.calls"] == metrics["training.steps"] + metrics["distill.steps"]
    assert metrics["training.batch_ce_graph.calls"] == metrics["training.steps"]
    assert metrics["distill.student_forwards"] == metrics["distill.steps"]

import json
import math

import numpy as np
import pytest

from moeprune import autograd as ag
from moeprune.analysis import analyze_model, balance_score, ingest_frequencies
from moeprune.calibration import build_calibration_set
from moeprune.errors import FormatError, InputError
from moeprune.model import MoEModel
from moeprune.numerics import SeededRng

from conftest import TINY, random_bytes_corpus
from oracles import full_forward_stats


class TestBalanceScore:
    def test_uniform_loads(self):
        assert balance_score([5, 5, 5, 5]) == 0.0

    def test_hand_case(self):
        assert balance_score([3, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_fully_concentrated(self):
        assert balance_score([1000, 0, 0, 0]) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            balance_score([0, 0, 0])

    def test_scale_and_permutation_invariance(self):
        rng = SeededRng(0)
        for _ in range(200):
            n = 2 + int(rng.integers(2, 12))
            f = np.abs(rng.normal_matrix(1, n)).ravel() + 1e-9
            s = balance_score(f)
            assert abs(balance_score(7.3 * f) - s) < 1e-12
            perm = rng.permutation(n)
            assert abs(balance_score(f[perm]) - s) < 1e-12

    def test_bounds(self):
        rng = SeededRng(1)
        for _ in range(200):
            n = 2 + int(rng.integers(2, 10))
            f = np.abs(rng.normal_matrix(1, n)).ravel()
            if f.sum() == 0:
                continue
            s = balance_score(f)
            assert 0.0 <= s <= math.sqrt(n - 1) + 1e-12


def symmetric_router_model() -> MoEModel:
    """Identical (zero) experts, exchangeable router: orthonormal router
    columns over isotropic inputs make every expert equally likely to win."""
    model = MoEModel.init(TINY).copy()
    rng = np.random.default_rng(99)
    for name in model.params:
        if ".attn." in name or ".experts." in name:
            model.params[name] = np.zeros_like(model.params[name])
        elif name.endswith(".router"):
            q, _ = np.linalg.qr(rng.normal(size=(TINY.d_model, TINY.n_experts)))
            model.params[name] = np.ascontiguousarray(q)
        elif name == "token_embedding":
            model.params[name] = rng.normal(size=model.params[name].shape)
    return model


def windows(corpus, nsamples, seed=0):
    """The calibration set `analyze` routes: nsamples TINY windows."""
    return build_calibration_set(corpus, nsamples, TINY.seq_len, seed)


class TestAnalyzeModel:
    def test_symmetric_router_near_zero(self):
        cal = windows(random_bytes_corpus(5, 320 * 32), nsamples=313)
        report = analyze_model(symmetric_router_model(), cal)
        assert report["total_tokens"] >= 10000
        assert report["model_score"] < 0.2
        assert len(report["layer_scores"]) == TINY.n_layers

    def test_dominant_expert_concentrates(self, tiny_model):
        # identical router columns force every argmax tie to expert 0: the
        # fully concentrated extreme
        biased = tiny_model.copy()
        for i in range(TINY.n_layers):
            col = biased.params[f"layers.{i}.router"][:, [0]]
            biased.params[f"layers.{i}.router"] = np.repeat(col, TINY.n_experts, axis=1)
        corpus = random_bytes_corpus(6, 64 * 32)
        report = analyze_model(biased, windows(corpus, nsamples=32))
        assert report["model_score"] == pytest.approx(math.sqrt(TINY.n_experts - 1), abs=1e-9)
        assert report["frequencies"][0][1:] == [0] * (TINY.n_experts - 1)

    def test_deterministic(self, tiny_model):
        corpus = random_bytes_corpus(7, 64 * 32)
        a = analyze_model(tiny_model, windows(corpus, nsamples=16, seed=3))
        b = analyze_model(tiny_model, windows(corpus, nsamples=16, seed=3))
        assert a == b

    def test_topk_mode(self, tiny_model):
        corpus = random_bytes_corpus(8, 64 * 32)
        report = analyze_model(tiny_model, windows(corpus, nsamples=16), mode="topk")
        for row in report["frequencies"]:
            assert sum(row) == report["total_tokens"] * TINY.top_k

    @pytest.mark.parametrize("mode", ["argmax", "topk"])
    def test_counts_equal_collect_frequencies(self, tiny_model, monkeypatch, mode):
        # analyze stops at the last router: no expert of the last layer runs,
        # and its counts equal those collected from forwards to the logits
        corpus = random_bytes_corpus(9, 64 * 32)
        cal = windows(corpus, nsamples=20, seed=3)
        want = full_forward_stats(tiny_model, cal.sequences, mode)
        swiglu, layers_run = ag.swiglu, set()
        layer_of = {id(tiny_model.params[f"layers.{i}.experts.{e}.w_gate"]): i
                    for i in range(TINY.n_layers) for e in range(TINY.n_experts)}

        def recording(x, w_gate, w_up, w_down=None):
            layers_run.add(layer_of[id(w_gate.value)])
            return swiglu(x, w_gate, w_up, w_down)

        monkeypatch.setattr(ag, "swiglu", recording)
        report = analyze_model(tiny_model, cal, mode=mode)
        assert layers_run == set(range(TINY.n_layers - 1))
        assert report["frequencies"] == want["counts"].tolist()
        assert report["total_tokens"] == want["total_tokens"] == 20 * TINY.seq_len


class TestIngestFrequencies:
    def test_single_layer_hand_case(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps({"model_name": "m", "layers": [[3, 1]]}))
        (report,) = ingest_frequencies(p)
        assert report["layer_scores"][0] == pytest.approx(0.5, abs=1e-12)
        assert report["model_score"] == pytest.approx(0.5, abs=1e-12)

    def test_uniform_layers_zero_score(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps({"model_name": "m", "layers": [[4, 4, 4], [9, 9, 9]]}))
        (report,) = ingest_frequencies(p)
        assert report["model_score"] == 0.0

    def test_multi_model_file(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps([
            {"model_name": "a", "layers": [[1, 1]]},
            {"model_name": "b", "layers": [[2, 0]]},
        ]))
        reports = ingest_frequencies(p)
        assert [r["model_name"] for r in reports] == ["a", "b"]
        assert reports[1]["model_score"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text("{not json")
        with pytest.raises(FormatError, match="JSON"):
            ingest_frequencies(p)

    def test_ragged_layers(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps({"model_name": "m", "layers": [[1, 2], [1, 2, 3]]}))
        with pytest.raises(FormatError, match="ragged"):
            ingest_frequencies(p)

    def test_negative_frequency_rejected(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps({"model_name": "m", "layers": [[1, -2]]}))
        with pytest.raises(FormatError):
            ingest_frequencies(p)

    def test_names_echoed_as_given(self, tmp_path):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps({"model_name": "m", "mode": "topk", "layers": [[1.5, 0]]}))
        (report,) = ingest_frequencies(p)
        assert (report["model_name"], report["mode"]) == ("m", "topk")
        assert report["frequencies"] == [[1.5, 0]]

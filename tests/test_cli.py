import argparse
import csv
import json
import time

import numpy as np
import pytest

from moeprune.cli import main
from moeprune.model import ModelConfig, MoEModel
from moeprune.numerics import SeededRng
from moeprune.persistence import load_checkpoint, save_checkpoint

from conftest import expert_names, synth_corpus

CLI_MODEL = {"d_model": 16, "n_heads": 2, "n_layers": 1, "n_experts": 2,
             "top_k": 2, "d_ff": 16, "seq_len": 32, "vocab_size": 256, "seed": 5}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "corpus.txt").write_bytes(synth_corpus(seed=12, size=1 << 15))
    (d / "config.json").write_text(json.dumps({"model": CLI_MODEL}))
    rc = main(["train", "--config", str(d / "config.json"),
               "--corpus", str(d / "corpus.txt"), "--steps", "0",
               "--out", str(d / "init_ckpt")])
    assert rc == 0
    return d


def run(args):
    return main([str(a) for a in args])


class TestTrain:
    def test_zero_steps_equals_random_init(self, workdir):
        model, _ = load_checkpoint(workdir / "init_ckpt")
        fresh = MoEModel.init(ModelConfig.from_dict(CLI_MODEL))
        for name in fresh.params:
            assert np.array_equal(model.params[name], fresh.params[name])

    def test_same_seed_identical_checkpoints(self, workdir):
        for i in (1, 2):
            rc = run(["train", "--config", workdir / "config.json",
                      "--corpus", workdir / "corpus.txt", "--steps", "3",
                      "--seed", "7", "--out", workdir / f"det{i}"])
            assert rc == 0
        a = (workdir / "det1" / "tensors.bin").read_bytes()
        b = (workdir / "det2" / "tensors.bin").read_bytes()
        assert a == b

    def test_training_reduces_loss(self, workdir):
        rc = run(["train", "--config", workdir / "config.json",
                  "--corpus", workdir / "corpus.txt", "--steps", "30",
                  "--out", workdir / "trained"])
        assert rc == 0
        log = [json.loads(l) for l in (workdir / "trained" / "train_log.jsonl").read_text().splitlines()]
        assert log[-1]["loss"] < log[0]["loss"]


    @pytest.mark.parametrize("model_section", [{"bogus": 1}, {"d_model": "16"},
                                               {"d_model": 16.5}, {"n_layers": True}])
    def test_bad_model_config_is_one_line_error(self, workdir, tmp_path, capsys,
                                                model_section):
        (tmp_path / "bad.json").write_text(json.dumps({"model": model_section}))
        capsys.readouterr()
        rc = run(["train", "--config", tmp_path / "bad.json",
                  "--corpus", workdir / "corpus.txt", "--steps", "0",
                  "--out", tmp_path / "never"])
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert next(iter(model_section)) in err


BAD_SECTIONS = [
    ("train", {"model": 5}, "'model'"),
    ("train", {"train": [1, 2]}, "'train'"),
    ("prune", {"calibration": "x"}, "'calibration'"),
    ("distill", {"kd": None}, "'kd'"),
    ("train", {"train": {"steps": "10"}}, "train.steps"),
    ("train", {"train": {"learning_rate": "fast"}}, "train.learning_rate"),
    ("train", {"train": {"batch_size": 2.5}}, "train.batch_size"),
    ("prune", {"calibration": {"nsamples": "x"}}, "calibration.nsamples"),
    ("prune", {"calibration": {"seed": True}}, "calibration.seed"),
    ("distill", {"kd": {"lambda_mode": "big"}}, "kd.lambda_mode"),
    ("distill", {"kd": {"router_frozen": 1}}, "kd.router_frozen"),
    ("distill", {"kd": {"epochs": 1.0}}, "kd.epochs"),
    ("train", {"train": {"step": 10}}, "train.step"),
    ("prune", {"calibration": {"nsample": 2}}, "calibration.nsample"),
    ("distill", {"kd": {"lambda": 0.5}}, "kd.lambda"),
    ("train", {"model": {"d_modle": 16}}, "model.d_modle"),
    ("distill", {"kd": {"batch_size": 0}}, "kd.batch_size"),
    ("distill", {"kd": {"batch_size": -1}}, "kd.batch_size"),
    ("distill", {"kd": {"samples": -3}}, "kd.samples"),
    ("distill", {"kd": {"samples": 0}}, "kd.samples"),
    ("distill", {"kd": {"epochs": -1}}, "kd.epochs"),
    ("distill", {"kd": {"learning_rate": 0}}, "kd.learning_rate"),
    ("distill", {"kd": {"learning_rate": float("inf")}}, "kd.learning_rate"),
    ("distill", {"kd": {"lambda_mode": -1}}, "kd.lambda_mode"),
    ("distill", {"kd": {"lambda_mode": 0}}, "kd.lambda_mode"),
    ("distill", {"kd": {"lambda_mode": float("nan")}}, "kd.lambda_mode"),
    ("train", {"train": {"learning_rate": -1}}, "train.learning_rate"),
    ("train", {"train": {"learning_rate": float("nan")}}, "train.learning_rate"),
    ("train", {"train": {"batch_size": 0}}, "train.batch_size"),
    ("train", {"train": {"steps": -1}}, "train.steps"),
    ("prune", {"calibration": {"nsamples": 0}}, "calibration.nsamples"),
    ("distill", {"kd": {"schedule": "cosine"}}, "kd.schedule"),
    ("prune", {"calibraton": {"nsamples": 2}}, "'calibraton'"),
    ("train", {"model": CLI_MODEL, "upcycle": True}, "'upcycle'"),
    ("distill", {"extra": 1}, "'extra'"),
    ("train", {"model": {**CLI_MODEL, "seq_len": 1}}, "seq_len"),
]


def _bad_config(command, config):
    def argv(workdir, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps(config))
        args = {
            "train": ["--corpus", workdir / "corpus.txt", "--steps", "0"],
            "prune": ["--ckpt", workdir / "init_ckpt", "--sparsity", "0.5",
                      "--calib", workdir / "corpus.txt"],
            "distill": ["--teacher", workdir / "init_ckpt", "--student", workdir / "init_ckpt",
                        "--corpus", workdir / "corpus.txt"],
        }[command]
        return [command, "--config", tmp_path / "bad.json", *args, "--out", tmp_path / "never"]
    return argv


BAD_FLAGS = [
    (["train", "--lr", "-1"], "train.learning_rate", 3),
    (["train", "--batch-size", "0"], "train.batch_size", 3),
    (["distill", "--batch-size", "0"], "kd.batch_size", 3),
    (["distill", "--samples", "-3"], "kd.samples", 3),
    (["distill", "--lam", "-1"], "kd.lambda_mode", 3),
    (["distill", "--lr", "inf"], "kd.learning_rate", 3),
    (["prune", "--nsamples", "-2"], "calibration.nsamples", 3),
    (["sweep", "--nsamples-list", "0,-1"], "calibration.nsamples", 3),
    (["analyze", "--nsamples", "-2"], "calibration.nsamples", 3),
    (["sweep", "--sparsities", "0.5", "--nsamples", "0"], "calibration.nsamples", 3),
    (["sweep", "--sparsities", "abc"], "'abc'", 2),
    (["sweep", "--nsamples-list", "x"], "'x'", 2),
    (["train", "--seed", "-1"], "model.seed", 3),
    (["prune", "--seed", "-3"], "calibration.seed", 3),
    (["prune", "--pattern", "2:4:6"], "'2:4:6'", 2),
    (["prune", "--pattern", "a:b"], "'a:b'", 2),
    (["prune", "--pattern", "0.5"], "--sparsity", 2),
    (["sweep", "--sparsities", ","], "--sparsities", 2),
    (["sweep", "--sparsities", " "], "--sparsities", 2),
    (["sweep", "--sparsities", ""], "--sparsities", 2),
    (["sweep", "--nsamples-list", " , "], "--nsamples-list", 2),
]


def _bad_flags(flags):
    def argv(workdir, tmp_path):
        never = ["--out", tmp_path / "never"]
        inputs = {
            "train": ["--corpus", workdir / "corpus.txt", "--steps", "1", *never],
            "distill": ["--teacher", workdir / "init_ckpt", "--student", workdir / "init_ckpt",
                        "--corpus", workdir / "corpus.txt", *never],
            "prune": ["--ckpt", workdir / "init_ckpt", "--calib", workdir / "corpus.txt", *never,
                      *([] if "--pattern" in flags else ["--sparsity", "0.5"])],
            "sweep": ["--ckpt", workdir / "init_ckpt", "--calib", workdir / "corpus.txt",
                      "--eval-corpus", workdir / "corpus.txt", *never],
            "analyze": ["--ckpt", workdir / "init_ckpt", "--corpus", workdir / "corpus.txt"],
        }[flags[0]]
        return [*flags, *inputs]
    return argv


def test_empty_sweep_list_exits_before_loading(tmp_path, capsys, monkeypatch):
    def no_load(*_args):
        raise AssertionError("the checkpoint must not be loaded")

    monkeypatch.setattr("moeprune.cli.load_checkpoint", no_load)
    rc = run(["sweep", "--ckpt", tmp_path / "missing", "--sparsities", ",",
              "--calib", tmp_path / "c.txt", "--eval-corpus", tmp_path / "c.txt",
              "--out", tmp_path / "never.csv"])
    assert rc == 2 and "--sparsities" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


BAD_FREQ_FILES = [
    ({"layers": [[[1, 2]]]}, "'layers'"),
    ([{"layers": [[True, False, 2]]}], "'layers'"),
    ([{"layers": [["3", "4"]]}], "'layers'"),
    ([], "no entries"),
    ({"model_name": None, "layers": [[1, 2]]}, "'model_name'"),
    ({"mode": 7, "layers": [[1, 2]]}, "'mode'"),
    ({"layers": [[None, 1]]}, "'layers'"),
    ({"layers": {"0": [1, 2]}}, "'layers'"),
    ({"layers": [[1, 10 ** 400]]}, "too large"),
    # finite counts whose balance score overflows: no NaN or Infinity in the JSON
    ({"layers": [[1e308, 1e308]]}, "too large"),
    ({"layers": [[1e200, 1e200, 1]]}, "too large"),
]


def _bad_freq_file(payload):
    def argv(workdir, tmp_path):
        (tmp_path / "freq.json").write_text(json.dumps(payload))
        return ["analyze", "--freq", tmp_path / "freq.json"]
    return argv


# each command, with the file under its --out made a directory so that the
# command cannot write it ("" blocks --out itself)
@pytest.mark.parametrize("command,blocked", [("prune", "prune_report.json"),
                                             ("train", "train_log.jsonl"), ("sweep", "")])
def test_unwritable_output_is_storage_error(workdir, tmp_path, capsys, command, blocked):
    args = {
        "prune": ["--ckpt", workdir / "init_ckpt", "--sparsity", "0.5",
                  "--calib", workdir / "corpus.txt", "--nsamples", "2"],
        "train": ["--config", workdir / "config.json", "--corpus", workdir / "corpus.txt",
                  "--steps", "1"],
        "sweep": ["--ckpt", workdir / "init_ckpt", "--sparsities", "0.5", "--nsamples", "2",
                  "--calib", workdir / "corpus.txt", "--eval-corpus", workdir / "corpus.txt"],
    }[command]
    (tmp_path / "out" / blocked).mkdir(parents=True)
    capsys.readouterr()
    rc = run([command, *args, "--out", tmp_path / "out"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert len(err.strip().splitlines()) == 1 and "cannot write" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command", ["train", "distill"])
def test_diverged_step_is_numerical_error(workdir, tmp_path, capsys, command):
    args = {
        "train": ["train", "--config", workdir / "config.json",
                  "--corpus", workdir / "corpus.txt", "--steps", "5"],
        "distill": ["distill", "--teacher", workdir / "init_ckpt",
                    "--student", workdir / "init_ckpt", "--corpus", workdir / "corpus.txt",
                    "--samples", "16", "--batch-size", "4", "--epochs", "2", "--lam", "1"],
    }[command]
    capsys.readouterr()
    rc = run([*args, "--lr", "1e300", "--out", tmp_path / "never"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert {"train": "training", "distill": "KD"}[command] + " step 1 diverged" in err
    assert out == "" and not (tmp_path / "never").exists()


NAN_LOADS = {
    "prune": lambda nan, ok, corpus, out: [
        "prune", "--ckpt", nan, "--sparsity", "0.5", "--calib", corpus, "--out", out],
    "analyze": lambda nan, ok, corpus, out: [
        "analyze", "--ckpt", nan, "--corpus", corpus, "--nsamples", "2"],
    "distill-teacher": lambda nan, ok, corpus, out: [
        "distill", "--teacher", nan, "--student", ok, "--corpus", corpus, "--out", out],
    "distill-student": lambda nan, ok, corpus, out: [
        "distill", "--teacher", ok, "--student", nan, "--corpus", corpus, "--out", out],
    "sweep": lambda nan, ok, corpus, out: [
        "sweep", "--ckpt", nan, "--sparsities", "0.5", "--calib", corpus,
        "--eval-corpus", corpus, "--out", out],
}


@pytest.mark.parametrize("command", list(NAN_LOADS))
def test_non_finite_weight_at_load_is_numerical_error(workdir, tmp_path, capsys, command):
    model, _ = load_checkpoint(workdir / "init_ckpt")
    model.params["layers.0.router"][0, 0] = np.nan
    save_checkpoint(model, tmp_path / "nan_ckpt")
    capsys.readouterr()
    rc = run(NAN_LOADS[command](tmp_path / "nan_ckpt", workdir / "init_ckpt",
                                workdir / "corpus.txt", tmp_path / "never"))
    out, err = capsys.readouterr()
    assert rc == 4
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "layers.0.router" in err
    assert out == "" and not (tmp_path / "never").exists()


def test_out_of_memory_is_one_line_error(workdir, tmp_path, capsys, monkeypatch):
    def no_memory(*_args):
        raise MemoryError("Unable to allocate 32.0 GiB for an array with shape "
                          "(65536, 65536) and data type float64")

    monkeypatch.setattr(SeededRng, "normal_matrix", no_memory)
    capsys.readouterr()
    rc = run(["train", "--config", workdir / "config.json", "--corpus", workdir / "corpus.txt",
              "--steps", "1", "--out", tmp_path / "never"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert err.splitlines() == ["error: out of memory: Unable to allocate 32.0 GiB for an "
                                "array with shape (65536, 65536) and data type float64"]
    assert out == "" and not (tmp_path / "never").exists()


def test_main_builds_one_parser_and_no_flag_carries_over(workdir, monkeypatch):
    parsed, parse_args = [], argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        parsed.append((parser, parse_args(parser, *args, **kwargs)))
        return parsed[-1][1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    common = ["analyze", "--ckpt", workdir / "init_ckpt", "--corpus", workdir / "corpus.txt",
              "--nsamples", "2"]
    assert run(common + ["--mode", "topk", "--seed", "3"]) == 0
    assert run(common) == 0
    (first, a), (second, b) = parsed
    assert first is second
    assert (a.mode, a.seed) == ("topk", 3)
    assert (b.mode, b.seed) == ("argmax", None)


def _edit(section, edit):
    def mutate(manifest):
        edit(manifest[section])
        return manifest
    return mutate


def _move(name, offset):
    return _edit("tensors", lambda ix: ix[name].update(byte_offset=offset(ix)))


def _swap_offsets(a, b):
    def swap(ix):
        ix[a]["byte_offset"], ix[b]["byte_offset"] = ix[b]["byte_offset"], ix[a]["byte_offset"]
    return _edit("tensors", swap)


# manifest edits that leave tensors.bin, masks.bin and their CRCs valid: the
# tensor index's ranges, its entries against the model config, then the
# manifest's root and the masks' CRC. A config with 2**40 experts or layers
# fails on its parameter count, before any per-parameter work. An edit that
# every other check accepts fails on the manifest's own CRC, and a version-1
# checkpoint (which has none) on its version.
BAD_RANGES = {
    "negative": (_move("lm_head", lambda ix: -2 * ix["lm_head"]["byte_length"]), "lm_head"),
    "aliased": (_move("layers.0.attn.wk", lambda ix: ix["layers.0.attn.wq"]["byte_offset"]),
                "layers.0.attn.wk"),
    "overlapping": (_move("layers.0.attn.wk", lambda ix: ix["layers.0.attn.wk"]["byte_offset"] - 8),
                    "layers.0.attn.wk"),
    "misaligned": (_move("lm_head", lambda ix: ix["lm_head"]["byte_offset"] - 4), "lm_head"),
    "string": (_move("lm_head", lambda ix: str(ix["lm_head"]["byte_offset"])), "lm_head"),
    "float": (_move("lm_head", lambda ix: float(ix["lm_head"]["byte_offset"])), "lm_head"),
    "past-end": (_move("lm_head", lambda ix: ix["lm_head"]["byte_offset"] + 8), "lm_head"),
    "unknown-name": (_edit("tensors", lambda ix: ix.update(
        bogus={"shape": [0, 0], "byte_offset": 0, "byte_length": 0})), "'bogus'"),
    "missing-entry": (_edit("tensors", lambda ix: ix.pop("lm_head")), "tensor index"),
    "config-disagrees": (_edit("model_config", lambda c: c.update(d_model=32)),
                         "layers.0.attn.wk"),
    "huge-n-experts": (_edit("model_config", lambda c: c.update(n_experts=2**40)),
                       "tensor index"),
    "huge-n-layers": (_edit("model_config", lambda c: c.update(n_layers=2**40)),
                      "tensor index"),
    "seq-len-1": (_edit("model_config", lambda c: c.update(seq_len=1)), "seq_len"),
    "root-array": (lambda m: [m], "root is not a JSON object"),
    "masks-without-crc": (lambda m: {k: v for k, v in m.items() if k != "masks_crc32"},
                          "masks_crc32"),
    "masks-crc-not-integer": (lambda m: {**m, "masks_crc32": [m["masks_crc32"]]},
                              "malformed mask index"),
    "top-k-edited": (_edit("model_config", lambda c: c.update(top_k=1)), "manifest CRC32"),
    "offsets-swapped": (_swap_offsets("layers.0.attn.wq", "layers.0.attn.wk"),
                        "manifest CRC32"),
    "manifest-crc-missing": (lambda m: {k: v for k, v in m.items() if k != "manifest_crc32"},
                             "manifest CRC32"),
    "version-1": (lambda m: {**m, "format_version": 1}, "unsupported checkpoint version 1"),
}


def _bad_ranges(mutate):
    def argv(workdir, tmp_path):
        ckpt = tmp_path / "ckpt"
        model, _ = load_checkpoint(workdir / "init_ckpt")
        save_checkpoint(model, ckpt, masks={n: np.ones(model.params[n].shape, dtype=np.uint8)
                                            for n in expert_names(model)})
        manifest = json.loads((ckpt / "manifest.json").read_text())
        (ckpt / "manifest.json").write_text(json.dumps(mutate(manifest)))
        return ["prune", "--ckpt", ckpt, "--sparsity", "0.5", "--calib", workdir / "corpus.txt",
                "--out", tmp_path / "never"]
    return argv


# Every bad input above in one table of (command line builder, exit code,
# text stderr must name) rows, by kind, each row run by check_bad_input. A
# builder writes its bad file into tmp_path and returns the command line.
# Row ids stay as they were: a flag row's names its key, not its exit code.
BAD_INPUTS = {
    "config": [pytest.param(_bad_config(command, config), 3, named,
                            id=f"{command}-config{i}-{named}")
               for i, (command, config, named) in enumerate(BAD_SECTIONS)],
    "flag": [pytest.param(_bad_flags(flags), code, named, id=f"flags{i}-{named}")
             for i, (flags, named, code) in enumerate(BAD_FLAGS)],
    "freq": [pytest.param(_bad_freq_file(payload), 3, named, id=f"freq{i}")
             for i, (payload, named) in enumerate(BAD_FREQ_FILES)],
    "range": [pytest.param(_bad_ranges(mutate), 3, named, id=case)
              for case, (mutate, named) in BAD_RANGES.items()],
}


def check_bad_input(workdir, tmp_path, capsys, argv, code, named) -> float:
    """Run one row: it exits with its code (2, 3 or 4) and one stderr line
    naming `named`, with no traceback, no file written and nothing on stdout
    (so no JSON, and no NaN or Infinity in it). Returns the run's seconds."""
    argv = argv(workdir, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    t0 = time.perf_counter()
    rc = run(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert rc == code and code in (2, 3, 4)
    assert len(err.strip().splitlines()) == 1 and named in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert out == ""
    return elapsed


@pytest.mark.parametrize("argv,code,named", BAD_INPUTS["config"])
def test_bad_config_value_is_one_line_error(workdir, tmp_path, capsys, argv, code, named):
    check_bad_input(workdir, tmp_path, capsys, argv, code, named)


@pytest.mark.parametrize("argv,code,named", BAD_INPUTS["flag"])
def test_bad_flag_value_is_one_line_error(workdir, tmp_path, capsys, argv, code, named):
    check_bad_input(workdir, tmp_path, capsys, argv, code, named)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,code,named", BAD_INPUTS["freq"])
def test_bad_freq_file_is_one_line_error(workdir, tmp_path, capsys, argv, code, named):
    check_bad_input(workdir, tmp_path, capsys, argv, code, named)


@pytest.mark.parametrize("argv,code,named", BAD_INPUTS["range"])
def test_bad_tensor_range_is_format_error(workdir, tmp_path, capsys, argv, code, named):
    assert check_bad_input(workdir, tmp_path, capsys, argv, code, named) < 1.0


class TestPrune:
    def test_usage_error_on_no_sparsity_flag(self, workdir):
        rc = run(["prune", "--ckpt", workdir / "init_ckpt",
                  "--calib", workdir / "corpus.txt", "--out", workdir / "x"])
        assert rc == 2

    def test_usage_error_on_both_flags(self, workdir):
        rc = run(["prune", "--ckpt", workdir / "init_ckpt", "--sparsity", "0.5",
                  "--pattern", "2:4", "--calib", workdir / "corpus.txt",
                  "--out", workdir / "x"])
        assert rc == 2

    def test_unstructured_mask_exactness(self, workdir):
        rc = run(["prune", "--ckpt", workdir / "init_ckpt", "--method", "moe-pruner",
                  "--sparsity", "0.5", "--calib", workdir / "corpus.txt",
                  "--nsamples", "4", "--out", workdir / "pruned50"])
        assert rc == 0
        model, masks = load_checkpoint(workdir / "pruned50")
        assert masks
        for name, mask in masks.items():
            out_in = mask.T
            assert ((out_in == 0).sum(axis=1) == out_in.shape[1] // 2).all()
            assert (model.params[name][mask == 0] == 0.0).all()
        report = json.loads((workdir / "pruned50" / "prune_report.json").read_text())
        assert report["totals"]["sparsity_achieved"] == pytest.approx(0.5)

    def test_2to4_pattern(self, workdir):
        rc = run(["prune", "--ckpt", workdir / "init_ckpt", "--pattern", "2:4",
                  "--calib", workdir / "corpus.txt", "--nsamples", "4",
                  "--out", workdir / "pruned24"])
        assert rc == 0
        _, masks = load_checkpoint(workdir / "pruned24")
        for mask in masks.values():
            m = mask.T
            assert ((m.reshape(m.shape[0], -1, 4) == 0).sum(axis=2) == 2).all()

    def test_two_calibration_samples_suffice(self, workdir):
        rc = run(["prune", "--ckpt", workdir / "init_ckpt", "--sparsity", "0.5",
                  "--calib", workdir / "corpus.txt", "--nsamples", "2",
                  "--out", workdir / "pruned_n2"])
        assert rc == 0

    def test_missing_checkpoint_is_input_error(self, workdir):
        rc = run(["prune", "--ckpt", workdir / "nowhere", "--sparsity", "0.5",
                  "--calib", workdir / "corpus.txt", "--out", workdir / "x"])
        assert rc == 3


class TestEval:
    def test_json_output(self, workdir, capsys):
        rc = run(["eval", "--ckpt", workdir / "init_ckpt",
                  "--corpus", workdir / "corpus.txt"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {"perplexity", "token_count"}
        assert payload["perplexity"] > 1.0

    def test_zero_sparsity_pipeline_reproduces_perplexity(self, workdir, capsys):
        rc = run(["prune", "--ckpt", workdir / "init_ckpt", "--sparsity", "0.0",
                  "--calib", workdir / "corpus.txt", "--nsamples", "2",
                  "--out", workdir / "pruned0"])
        assert rc == 0
        run(["eval", "--ckpt", workdir / "init_ckpt", "--corpus", workdir / "corpus.txt"])
        p_orig = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["perplexity"]
        run(["eval", "--ckpt", workdir / "pruned0", "--corpus", workdir / "corpus.txt"])
        p_noop = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["perplexity"]
        assert abs(p_orig - p_noop) < 1e-10

    def test_non_finite_weight_is_numerical_error(self, workdir, tmp_path, capsys):
        model, _ = load_checkpoint(workdir / "init_ckpt")
        model.params["lm_head"][0, 0] = np.nan
        save_checkpoint(model, tmp_path / "nan_ckpt")
        capsys.readouterr()
        rc = run(["eval", "--ckpt", tmp_path / "nan_ckpt", "--corpus", workdir / "corpus.txt"])
        out, err = capsys.readouterr()
        assert rc == 4
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "lm_head" in err
        assert out == ""

    def test_empty_corpus_is_input_error(self, workdir, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        rc = run(["eval", "--ckpt", workdir / "init_ckpt", "--corpus", empty])
        assert rc == 3


class TestDistillCmd:
    def test_zero_epochs_output_equals_student(self, workdir):
        rc = run(["distill", "--teacher", workdir / "init_ckpt",
                  "--student", workdir / "pruned50", "--corpus", workdir / "corpus.txt",
                  "--samples", "4", "--epochs", "0", "--out", workdir / "kd0"])
        assert rc == 0
        student, _ = load_checkpoint(workdir / "pruned50")
        distilled, _ = load_checkpoint(workdir / "kd0")
        for name in student.params:
            assert np.array_equal(distilled.params[name], student.params[name])

    def test_fixed_lambda_echoed_without_steps(self, workdir, tmp_path, capsys):
        capsys.readouterr()
        rc = run(["distill", "--teacher", workdir / "init_ckpt",
                  "--student", workdir / "pruned50", "--corpus", workdir / "corpus.txt",
                  "--samples", "4", "--epochs", "0", "--lam", "0.5", "--out", tmp_path / "kd"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == 0.5
        assert echoed(tmp_path / "kd")["kd"]["lambda_resolved"] == 0.5

    def test_distill_preserves_masks_and_logs(self, workdir):
        rc = run(["distill", "--teacher", workdir / "init_ckpt",
                  "--student", workdir / "pruned50", "--corpus", workdir / "corpus.txt",
                  "--samples", "8", "--epochs", "1", "--lr", "1e-3",
                  "--batch-size", "4", "--out", workdir / "kd1"])
        assert rc == 0
        model, masks = load_checkpoint(workdir / "kd1")
        for name, m in masks.items():
            assert (model.params[name][m == 0] == 0.0).all()
        log_lines = (workdir / "kd1" / "kd_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        rec = json.loads(log_lines[0])
        assert {"step", "lr", "l_ce", "l_expert", "lambda", "total"} <= set(rec)

    def test_architecture_mismatch_is_contract_error(self, workdir, tmp_path):
        other_cfg = dict(CLI_MODEL, n_experts=4)
        (tmp_path / "cfg.json").write_text(json.dumps({"model": other_cfg}))
        rc = run(["train", "--config", tmp_path / "cfg.json",
                  "--corpus", workdir / "corpus.txt", "--steps", "0",
                  "--out", tmp_path / "other"])
        assert rc == 0
        rc = run(["distill", "--teacher", tmp_path / "other",
                  "--student", workdir / "pruned50", "--corpus", workdir / "corpus.txt",
                  "--samples", "4", "--epochs", "1", "--out", tmp_path / "kd"])
        assert rc == 3


class TestAnalyze:
    def test_requires_exactly_one_source(self, workdir):
        assert run(["analyze"]) == 2
        assert run(["analyze", "--ckpt", workdir / "init_ckpt"]) == 2  # missing corpus

    def test_model_report(self, workdir, capsys):
        rc = run(["analyze", "--ckpt", workdir / "init_ckpt",
                  "--corpus", workdir / "corpus.txt", "--nsamples", "4"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "model_score" in report and len(report["layer_scores"]) == 1

    def test_freq_file_report(self, workdir, tmp_path, capsys):
        p = tmp_path / "freq.json"
        p.write_text(json.dumps({"model_name": "ext", "layers": [[3, 1]]}))
        rc = run(["analyze", "--freq", p])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model_score"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("layers", ["[[3,1,0,4]]", "[[0.5,1.5]]"])
    def test_freq_file_counts_echoed_as_read(self, tmp_path, capsys, layers):
        # integer counts print as integers, not as floats
        p = tmp_path / "freq.json"
        p.write_text(f'{{"layers": {layers}}}')
        capsys.readouterr()
        assert run(["analyze", "--freq", p]) == 0
        assert f'"frequencies":{layers}' in "".join(capsys.readouterr().out.split())


class TestSweep:
    def test_sparsity_sweep_csv(self, workdir):
        out = workdir / "sweep.csv"
        rc = run(["sweep", "--ckpt", workdir / "init_ckpt", "--method", "magnitude",
                  "--sparsities", "0.1,0.3,0.5", "--calib", workdir / "corpus.txt",
                  "--eval-corpus", workdir / "corpus.txt", "--nsamples", "2",
                  "--out", out])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["setting"] for r in rows] == ["0.1", "0.3", "0.5"]
        assert all(float(r["perplexity"]) > 0 for r in rows)

    def test_duplicates_deduplicated_with_warning(self, workdir):
        out = workdir / "sweep_dup.csv"
        with pytest.warns(UserWarning, match="duplicate"):
            rc = run(["sweep", "--ckpt", workdir / "init_ckpt", "--method", "magnitude",
                      "--sparsities", "0.2,0.2", "--calib", workdir / "corpus.txt",
                      "--eval-corpus", workdir / "corpus.txt", "--nsamples", "2",
                      "--out", out])
        assert rc == 0
        assert len(list(csv.DictReader(out.open()))) == 1

    def test_nsamples_sweep(self, workdir):
        out = workdir / "sweep_n.csv"
        rc = run(["sweep", "--ckpt", workdir / "init_ckpt", "--method", "wanda",
                  "--nsamples-list", "2,4", "--sparsity", "0.5",
                  "--calib", workdir / "corpus.txt",
                  "--eval-corpus", workdir / "corpus.txt", "--out", out])
        assert rc == 0
        assert len(list(csv.DictReader(out.open()))) == 2

    def test_sparsity_sweep_collects_once(self, workdir, monkeypatch):
        import moeprune.cli

        def sweep(sparsities, out):
            return run(["sweep", "--ckpt", workdir / "init_ckpt", "--method", "wanda",
                        "--sparsities", sparsities, "--calib", workdir / "corpus.txt",
                        "--eval-corpus", workdir / "corpus.txt", "--nsamples", "2",
                        "--out", out])

        # reference: each point as its own sweep, with its own calibration pass
        assert sweep("0.3", workdir / "one_a.csv") == 0
        assert sweep("0.6", workdir / "one_b.csv") == 0
        calls = []
        original = moeprune.cli.collect

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(moeprune.cli, "collect", counting)
        assert sweep("0.3,0.6", workdir / "two.csv") == 0
        assert len(calls) == 1
        a, b = ((workdir / f).read_text().splitlines() for f in ("one_a.csv", "one_b.csv"))
        assert (workdir / "two.csv").read_text().splitlines() == a + b[1:]

    def test_requires_exactly_one_list(self, workdir):
        rc = run(["sweep", "--ckpt", workdir / "init_ckpt",
                  "--calib", workdir / "corpus.txt",
                  "--eval-corpus", workdir / "corpus.txt", "--out", workdir / "x.csv"])
        assert rc == 2

    def test_zero_sparsity_reports_dense_perplexity(self, workdir, capsys):
        out = workdir / "sweep_zero.csv"
        rc = run(["sweep", "--ckpt", workdir / "init_ckpt", "--nsamples-list", "2",
                  "--sparsity", "0", "--calib", workdir / "corpus.txt",
                  "--eval-corpus", workdir / "corpus.txt", "--out", out])
        assert rc == 0
        run(["eval", "--ckpt", workdir / "init_ckpt", "--corpus", workdir / "corpus.txt"])
        dense = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["perplexity"]
        (row,) = csv.DictReader(out.open())
        assert abs(float(row["perplexity"]) - dense) < 1e-10


def echoed(ckpt) -> dict:
    return json.loads((ckpt / "manifest.json").read_text())["extra"]["config"]


def test_echoed_config_defaults(workdir, tmp_path):
    corpus = workdir / "corpus.txt"
    assert run(["train", "--corpus", corpus, "--steps", "0", "--out", tmp_path / "t"]) == 0
    assert echoed(tmp_path / "t") == {
        "model": {"d_model": 64, "n_heads": 4, "n_layers": 2, "n_experts": 4, "top_k": 2,
                  "d_ff": 128, "seq_len": 128, "vocab_size": 256, "seed": 0},
        "train": {"steps": 0, "batch_size": 8, "learning_rate": 0.001, "seed": 0},
        "upcycle": False,
    }
    assert run(["prune", "--ckpt", workdir / "init_ckpt", "--sparsity", "0.5",
                "--calib", corpus, "--nsamples", "2", "--out", tmp_path / "p"]) == 0
    prune_config = {"model": CLI_MODEL, "calibration": {"nsamples": 2, "seed": 0},
                    "method": "moe-pruner", "sparsity": "p=0.5", "propagate": "dense"}
    assert echoed(tmp_path / "p") == prune_config
    report = json.loads((tmp_path / "p" / "prune_report.json").read_text())
    assert report["config"] == prune_config
    assert run(["distill", "--teacher", workdir / "init_ckpt", "--student", workdir / "init_ckpt",
                "--corpus", corpus, "--epochs", "0", "--out", tmp_path / "d"]) == 0
    assert echoed(tmp_path / "d")["kd"] == {
        "lambda_mode": "auto", "epochs": 0, "learning_rate": 2e-05, "batch_size": 8,
        "samples": 1000, "seed": 0, "router_frozen": True, "lambda_resolved": 1.0}


def test_echoed_config_keeps_values_as_given(workdir, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"model": CLI_MODEL,
                                                   "train": {"learning_rate": 1}}))
    assert run(["train", "--config", tmp_path / "cfg.json", "--corpus", workdir / "corpus.txt",
                "--steps", "0", "--out", tmp_path / "t"]) == 0
    assert '"learning_rate": 1,' in (tmp_path / "t" / "manifest.json").read_text()
    assert type(echoed(tmp_path / "t")["train"]["learning_rate"]) is int

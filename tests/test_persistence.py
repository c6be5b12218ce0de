import json

import numpy as np
import pytest

from moeprune.errors import (
    ChecksumError,
    FormatError,
    MaskConsistencyError,
    StorageError,
    VersionError,
)
from moeprune.model import MoEModel
from moeprune.persistence import load_checkpoint, save_checkpoint

from conftest import TINY, expert_names


def test_round_trip_bit_exact(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt")
    loaded, masks = load_checkpoint(tmp_path / "ckpt")
    assert masks is None
    assert loaded.config == tiny_model.config
    for name in tiny_model.param_names():
        assert loaded.params[name].tobytes() == tiny_model.params[name].tobytes()


def test_round_trip_preserves_subnormals_and_extremes(tiny_model, tmp_path):
    model = tiny_model.copy()
    w = model.params["lm_head"]
    w[0, 0] = 5e-324           # smallest subnormal
    w[0, 1] = -5e-324
    w[0, 2] = 1.7976931348623157e308
    w[0, 3] = -0.0
    save_checkpoint(model, tmp_path / "ckpt")
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    assert loaded.params["lm_head"].tobytes() == w.tobytes()


def test_loaded_parameters_do_not_alias(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt")
    on_disk = (tmp_path / "ckpt" / "tensors.bin").read_bytes()
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    for name in loaded.param_names():
        before = {n: p.copy() for n, p in loaded.params.items()}
        loaded.params[name][...] = 7.0
        assert (loaded.params[name] == 7.0).all()
        for other, p in loaded.params.items():
            if other != name:
                assert np.array_equal(p, before[other])
    assert (tmp_path / "ckpt" / "tensors.bin").read_bytes() == on_disk


def test_masks_round_trip(tiny_model, tmp_path):
    model = tiny_model.copy()
    rng = np.random.default_rng(0)
    masks = {}
    for name in expert_names(model)[:4]:
        m = (rng.random(model.params[name].shape) > 0.5).astype(np.uint8)
        model.params[name] *= m
        masks[name] = m
    save_checkpoint(model, tmp_path / "ckpt", masks=masks)
    _, loaded_masks = load_checkpoint(tmp_path / "ckpt")
    assert set(loaded_masks) == set(masks)
    for name, m in masks.items():
        assert np.array_equal(loaded_masks[name], m)


def test_corrupted_tensors_detected(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt")
    blob = bytearray((tmp_path / "ckpt" / "tensors.bin").read_bytes())
    blob[100] ^= 0xFF
    (tmp_path / "ckpt" / "tensors.bin").write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(tmp_path / "ckpt")


def test_version_mismatch(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format_version"] = 99
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(VersionError):
        load_checkpoint(tmp_path / "ckpt")


def test_mask_marking_nonzero_weight_rejected(tiny_model, tmp_path):
    model = tiny_model.copy()
    name = expert_names(model)[0]
    masks = {name: np.ones(model.params[name].shape, dtype=np.uint8)}
    masks[name][0, 0] = 0  # claims pruned, but the weight is nonzero
    save_checkpoint(model, tmp_path / "ckpt", masks=masks)
    with pytest.raises(MaskConsistencyError):
        load_checkpoint(tmp_path / "ckpt")


def test_bad_model_config_in_manifest_is_format_error(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["model_config"]["bogus"] = 1
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="bogus"):
        load_checkpoint(tmp_path / "ckpt")


def test_non_object_model_config_in_manifest_is_format_error(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["model_config"] = 5
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="'model' must be a JSON object"):
        load_checkpoint(tmp_path / "ckpt")


def _rename_mask(masks, name):
    masks["layers.0.experts.0.w_bogus"] = masks.pop(name)


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda masks, name: masks[name]["shape"].reverse(), id="swapped-shape"),
    pytest.param(lambda masks, name: masks[name]["shape"].append(1), id="three-element-shape"),
    pytest.param(lambda masks, name: masks[name].update(shape=[16.0, 32]), id="float-shape"),
    pytest.param(lambda masks, name: masks[name].update(byte_length=1), id="short-length"),
    pytest.param(lambda masks, name: masks[name].pop("byte_offset"), id="missing-offset"),
    pytest.param(_rename_mask, id="unknown-name"),
])
def test_bad_mask_index_is_format_error(tiny_model, tmp_path, mutate):
    name = expert_names(tiny_model)[0]
    rows, cols = tiny_model.params[name].shape
    assert rows != cols  # a swapped shape must disagree with the parameter
    save_checkpoint(tiny_model, tmp_path / "ckpt",
                    masks={name: np.ones((rows, cols), dtype=np.uint8)})
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    mutate(manifest["masks"], name)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ckpt")


def test_unwritable_target_raises_storage_error(tiny_model, tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory")
    with pytest.raises(StorageError):
        save_checkpoint(tiny_model, blocker)


def test_no_temp_files_left_behind(tiny_model, tmp_path):
    save_checkpoint(tiny_model, tmp_path / "ckpt",
                    masks={expert_names(tiny_model)[0]:
                           np.ones(tiny_model.params[expert_names(tiny_model)[0]].shape,
                                   dtype=np.uint8)})
    leftovers = list((tmp_path / "ckpt").glob("*.tmp"))
    assert leftovers == []


def test_manifest_is_written_last(tiny_model, tmp_path, monkeypatch):
    # crash while writing tensors.bin must not leave a manifest behind
    import moeprune.persistence as pers

    calls = []
    original = pers._atomic_write

    def crashing(path, data):
        calls.append(path.name)
        if path.name == "tensors.bin":
            raise StorageError("simulated crash")
        original(path, data)

    monkeypatch.setattr(pers, "_atomic_write", crashing)
    with pytest.raises(StorageError):
        save_checkpoint(tiny_model, tmp_path / "ckpt")
    assert not (tmp_path / "ckpt" / "manifest.json").exists()
    assert calls[0] == "tensors.bin"

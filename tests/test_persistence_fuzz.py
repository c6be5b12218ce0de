"""A corrupted checkpoint fails cleanly. Hypothesis mutates one saved
checkpoint: values anywhere in its manifest, and byte flips and truncations
of its three files (for tensors.bin and masks.bin, optionally with the
manifest's CRC of the file updated to match, so the checks behind the CRC
run too). The edited manifest is optionally resealed (its own CRC updated),
so an edit that passes every other check can load. Each load either
succeeds or raises a FormatError subclass or NumericalError; anything else
(a ShapeError, a MemoryError, a traceback) fails the test."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moeprune.errors import FormatError, NumericalError
from moeprune.model import ModelConfig, MoEModel
from moeprune.persistence import load_checkpoint, save_checkpoint

from conftest import expert_names, seal

SMALL = ModelConfig(d_model=8, n_heads=2, n_layers=1, n_experts=2, top_k=1, d_ff=8,
                    seq_len=8, vocab_size=16, seed=3)
FILES = ("manifest.json", "tensors.bin", "masks.bin")
# derandomized, so every run tries the same inputs; no example database
FUZZ = settings(derandomize=True, database=None, deadline=None)
DELETE = object()

VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([-1, 0, 1, 7, 2**31, 2**40, 2**70, -2**70]),
    st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 40), max_size=3), st.just({}), st.just(DELETE))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The files of a valid checkpoint with masks (pruned weights zeroed),
    and a directory to load mutated copies from, which holds them now."""
    model = MoEModel.init(SMALL)
    rng = np.random.default_rng(0)
    masks = {}
    for name in expert_names(model):
        masks[name] = (rng.random(model.params[name].shape) > 0.5).astype(np.uint8)
        model.params[name] *= masks[name]
    src = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(model, src, masks=masks)
    return {f: (src / f).read_bytes() for f in FILES}, src


def _paths(node, prefix=()):
    """The path of every value in a JSON tree, the root's children first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _load(directory, files):
    """Load the checkpoint of `files` from directory, rewriting only the files
    that differ from what it holds."""
    for name, blob in files.items():
        if (directory / name).read_bytes() != blob:
            (directory / name).write_bytes(blob)
    try:
        load_checkpoint(directory)
    except (FormatError, NumericalError):
        pass


def test_unmutated_checkpoint_loads(saved):
    files, work = saved
    _load(work, files)
    model, masks = load_checkpoint(work)
    assert model.config == SMALL and len(masks) == 3 * SMALL.n_experts


@st.composite
def manifest_edits(draw, manifest):
    """One to three (path, value) edits of the manifest; the top-level key is
    drawn first, so the short model config is hit as often as the index."""
    paths = list(_paths(manifest))
    by_root = {k: [p for p in paths if p[0] == k] for k in manifest}
    roots = st.sampled_from(sorted(by_root))
    path = roots.flatmap(lambda k: st.sampled_from(by_root[k]))
    return draw(st.lists(st.tuples(path, VALUES), min_size=1, max_size=3))


def _edit(manifest, path, value):
    """Set (or delete) the value at path, unless an earlier edit removed or
    replaced a node on it."""
    try:
        node = manifest
        for key in path[:-1]:
            node = node[key]
        if not isinstance(node, (dict, list)):
            return
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


@settings(FUZZ, max_examples=400)
@given(data=st.data(), reseal=st.booleans())
def test_manifest_mutations_fail_cleanly(saved, data, reseal):
    files, work = saved
    manifest = json.loads(files["manifest.json"])
    for path, value in data.draw(manifest_edits(manifest)):
        _edit(manifest, path, value)
    if reseal:
        manifest = seal(manifest)
    _load(work, {**files, "manifest.json": json.dumps(manifest).encode()})


@settings(FUZZ, max_examples=300)
@given(name=st.sampled_from(FILES), at=st.floats(0, 1, exclude_max=True),
       flip=st.one_of(st.integers(1, 255), st.none()), fix_crc=st.booleans())
def test_byte_flips_and_truncations_fail_cleanly(saved, name, at, flip, fix_crc):
    """flip None truncates the file at `at` of its length; otherwise the byte
    there is XORed with flip."""
    files, work = saved
    blob = bytearray(files[name])
    pos = int(at * len(blob))
    if flip is None:
        del blob[pos:]
    else:
        blob[pos] ^= flip
    changed = {**files, name: bytes(blob)}
    if fix_crc and name != "manifest.json":
        manifest = json.loads(files["manifest.json"])
        manifest[name.replace(".bin", "_crc32")] = zlib.crc32(blob) & 0xFFFFFFFF
        changed["manifest.json"] = json.dumps(seal(manifest)).encode()
    _load(work, changed)

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from seqrec.encoder import load_checkpoint
from seqrec.manifest import RunManifest, new_manifest
from seqrec.tensorio import load_tensors, quantize, save_tensors


def test_round_trip_values_and_meta(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(7),
               "scalarish": np.array(2.5)}
    stored = save_tensors(tmp_path / "t.ckpt", tensors, meta={"k": [1, 2]})
    loaded, meta = load_tensors(tmp_path / "t.ckpt")
    assert meta == {"k": [1, 2]}
    assert sorted(loaded) == sorted(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        np.testing.assert_array_equal(loaded[name], stored[name])


def test_bytes_stable_after_quantize(tmp_path):
    tensors = {"w": np.random.default_rng(1).standard_normal((5, 5))}
    save_tensors(tmp_path / "a.ckpt", tensors)
    loaded, _ = load_tensors(tmp_path / "a.ckpt")
    save_tensors(tmp_path / "b.ckpt", loaded)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_quantize_is_idempotent():
    t = {"x": np.array([0.1, 1.0 / 3.0, 7.7])}
    once = quantize(t)
    twice = quantize(once)
    np.testing.assert_array_equal(once["x"], twice["x"])
    assert once["x"].dtype == np.float64


def test_rejects_wrong_magic(tmp_path):
    (tmp_path / "junk.ckpt").write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError, match="not a tensor checkpoint"):
        load_tensors(tmp_path / "junk.ckpt")


def _with_manifest(data: bytes, edit) -> bytes:
    """The file with its manifest passed through edit (header rewritten)."""
    blob_end = 8 + struct.unpack("<I", data[4:8])[0]
    manifest = json.loads(data[8:blob_end])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return data[:4] + struct.pack("<I", len(blob)) + blob + data[blob_end:]


MANIFEST_EDITS = {
    "tensorz": lambda m: m.update(tensorz=m.pop("tensors")),
    "negative_offset": lambda m: m["tensors"]["b"].update(offset=-1),
    "float_offset": lambda m: m["tensors"]["b"].update(offset=24.0),
    "negative_dim": lambda m: m["tensors"]["a"].update(shape=[-2, 3]),
    "shape_not_list": lambda m: m["tensors"]["a"].update(shape="2x3"),
    "entry_not_object": lambda m: m["tensors"].update(b=[m["tensors"]["b"]]),
    "meta_not_object": lambda m: m.update(meta=[1]),
    # b overlaps a and the payload's first 8 bytes belong to no tensor
    "gap_and_overlap": lambda m: (m["tensors"]["a"].update(offset=16),
                                  m["tensors"]["b"].update(offset=8)),
}


def _damage(data: bytes, kind: str) -> bytes:
    if kind in MANIFEST_EDITS:
        return _with_manifest(data, MANIFEST_EDITS[kind])
    blob_end = 8 + struct.unpack("<I", data[4:8])[0]
    return {"header": data[:6],
            "manifest": data[:blob_end - 5],
            "bad_json": data[:8] + b"{" * (blob_end - 8) + data[blob_end:],
            "payload": data[:-4],
            "trailing": data + b"\x00" * 8}[kind]


@pytest.mark.parametrize("kind", ["header", "manifest", "bad_json", "payload", "trailing",
                                  *MANIFEST_EDITS])
def test_damaged_file_raises_value_error_naming_path(tmp_path, kind):
    good = tmp_path / "good.ckpt"
    save_tensors(good, {"a": np.ones((2, 3)), "b": np.arange(4.0)}, meta={"k": 1})
    bad = tmp_path / f"{kind}.ckpt"
    bad.write_bytes(_damage(good.read_bytes(), kind))
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        load_tensors(bad)


@pytest.mark.parametrize("meta", [{}, {"config": {"bogus": 1}}, {"config": {"n_heads": "x"}},
                                  {"config": 5}])
def test_bad_checkpoint_config_raises_value_error_naming_path(tmp_path, meta):
    path = tmp_path / "bad.ckpt"
    save_tensors(path, {"a": np.ones(2)}, meta=meta)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["empty", "extra_key", "not_object"])
def test_bad_run_manifest_raises_value_error_naming_path(tmp_path, edit):
    good = dataclasses.asdict(new_manifest("gen-data", {"train": {}}, 7))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"empty": {}, "extra_key": {**good, "bogus": 1},
                                "not_object": [1]}[edit]))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
        RunManifest.load(path)

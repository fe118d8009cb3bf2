"""Fuzzing of the NXTP, SRCK and JSONL readers.

Each reader gets a valid file cut at a random length, with random bytes
flipped, with random header fields, or with random JSON in place of a field.
It must either read the file into well-typed values or raise a ValueError that
names the path (and, for JSONL, the line). Any other exception fails the test.
"""
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqrec.actions import ActionType
from seqrec.configs import DatasetConfig
from seqrec.dataio import (
    read_events_jsonl, read_posts_jsonl, write_events_jsonl, write_posts_jsonl,
)
from seqrec.embeddings import EmbeddingSet, load_embeddings, save_embeddings
from seqrec.tensorio import load_tensors, save_tensors
from seqrec.world import generate_world

from helpers import random_embeddings

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def _damage(data: bytes, draw, header_fields) -> bytes:
    """One random kind of damage: a cut, byte flips or a random header field."""
    kind = draw(st.sampled_from(["cut", "flip", "header"] if header_fields
                                else ["cut", "flip"]))
    if kind == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    out = bytearray(data)
    offset = draw(st.sampled_from(header_fields))
    struct.pack_into("<I", out, offset, draw(st.integers(0, 2**32 - 1)))
    return bytes(out)


def _read_or_clean_error(reader, path, where: str = ""):
    """reader(path), or None when it raised a ValueError naming path."""
    try:
        return reader(path)
    except ValueError as exc:
        assert re.match(re.escape(f"{path}{where}"), str(exc)), str(exc)
        return None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def world():
    cfg = DatasetConfig(users=4, posts_per_day=3, days=3, n_topics=2, topic_dim=4,
                        channel_dim=3, image_rate=1.0, activity_rate=2.0,
                        calibrate_survival=False)
    posts, _, events = generate_world(cfg, seed=3)
    return posts[:4], events[:6]


@FUZZ
@given(data=st.data())
def test_nxtp_reader(fuzz_dir, data):
    good = fuzz_dir / "good.nxtp"
    save_embeddings(good, random_embeddings(4, 3, seed=1))
    path = fuzz_dir / "fuzz.nxtp"
    path.write_bytes(_damage(good.read_bytes(), data.draw, [4, 8, 12]))
    embs = _read_or_clean_error(load_embeddings, path)
    if embs is not None:
        _, _, count, dim = struct.unpack("<4sIII", path.read_bytes()[:16])
        assert isinstance(embs, EmbeddingSet)
        assert embs.vectors.shape == (count, dim) and len(set(embs.ids.tolist())) == count


@FUZZ
@given(data=st.data())
def test_srck_reader(fuzz_dir, data):
    good = fuzz_dir / "good.ckpt"
    save_tensors(good, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2),
                        "s": np.array(0.5)}, meta={"kind": "transformer", "n": [1, 2]})
    raw = good.read_bytes()
    if data.draw(st.booleans()):
        # a random JSON value in place of one manifest field
        blob_end = 8 + struct.unpack("<I", raw[4:8])[0]
        manifest = json.loads(raw[8:blob_end])
        target = data.draw(st.sampled_from(
            [(manifest, "tensors"), (manifest, "meta"), (manifest["tensors"], "w")]
            + [(manifest["tensors"][n], f) for n in ("w", "b", "s")
               for f in ("shape", "offset")]))
        target[0][target[1]] = data.draw(JSON_VALUES)
        blob = json.dumps(manifest).encode("utf-8")
        raw = raw[:4] + struct.pack("<I", len(blob)) + blob + raw[blob_end:]
    else:
        raw = _damage(raw, data.draw, [4])
    path = fuzz_dir / "fuzz.ckpt"
    path.write_bytes(raw)
    loaded = _read_or_clean_error(load_tensors, path)
    if loaded is not None:
        tensors, meta = loaded
        assert isinstance(meta, dict)
        assert all(isinstance(t, np.ndarray) and t.dtype == np.float64
                   for t in tensors.values())


def _jsonl_case(fuzz_dir, data, writer, records, name):
    good = fuzz_dir / f"good_{name}.jsonl"
    writer(good, records)
    raw = good.read_bytes()
    if data.draw(st.booleans()):
        lines = raw.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        key = data.draw(st.sampled_from(sorted(record)))
        if data.draw(st.booleans()):
            record[key] = data.draw(JSON_VALUES)
        else:
            del record[key]
        lines[i] = (json.dumps(record) + "\n").encode("utf-8")
        raw = b"".join(lines)
    else:
        raw = _damage(raw, data.draw, [])
    path = fuzz_dir / f"fuzz_{name}.jsonl"
    path.write_bytes(raw)
    return path


@FUZZ
@given(data=st.data())
def test_events_jsonl_reader(fuzz_dir, world, data):
    path = _jsonl_case(fuzz_dir, data, write_events_jsonl, world[1], "events")
    events = _read_or_clean_error(read_events_jsonl, path, ", line ")
    for e in events or []:
        assert all(type(v) is int for v in (e.user_id, e.post_id, e.ts))
        assert isinstance(e.action, ActionType) and type(e.surface) is str


@FUZZ
@given(data=st.data())
def test_posts_jsonl_reader(fuzz_dir, world, data):
    path = _jsonl_case(fuzz_dir, data, write_posts_jsonl, world[0], "posts")
    posts = _read_or_clean_error(read_posts_jsonl, path, ", line ")
    for p in posts or []:
        assert all(type(v) is int for v in (p.post_id, p.created_at, p.lifetime_days))
        assert type(p.lang) is str and type(p.country) is str
        assert type(p.integrity_violating) is bool
        for vec in [p.topic, p.text_channel, *p.image_channels]:
            assert vec.dtype == np.float64 and vec.ndim == 1

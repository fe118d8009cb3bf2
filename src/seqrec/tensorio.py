"""Tensor checkpoint file: JSON manifest (name -> shape/offset) + raw f32 payload.

Layout: magic ``SRCK``, u32 manifest length, manifest JSON (UTF-8), then the
concatenated little-endian float32 tensor payload. Stored values round-trip
bit-exactly; loading yields float64 arrays carrying the exact float32 values.
"""
from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"SRCK"


def quantize(tensors: dict) -> dict:
    """Round-trip tensors through float32 (the file's storage precision)."""
    return {k: np.asarray(v).astype("<f4").astype(np.float64) for k, v in tensors.items()}


def save_tensors(path, tensors: dict, meta: dict | None = None) -> dict:
    """Write tensors + metadata; returns the quantized tensors actually stored."""
    offset = 0
    entries = {}
    payloads = []
    for name in sorted(tensors):
        src = np.asarray(tensors[name])
        arr = np.ascontiguousarray(src, dtype="<f4")  # note: promotes 0-d to 1-d
        entries[name] = {"shape": list(src.shape), "offset": offset}
        payloads.append(arr.tobytes())
        offset += len(payloads[-1])
    manifest = {"tensors": entries, "meta": meta or {}}
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for chunk in payloads:
            fh.write(chunk)
    return quantize(tensors)


def load_tensors(path) -> tuple[dict, dict]:
    """Read (tensors, meta); tensors come back float64 with exact f32 values.

    A truncated, corrupt or over-long file raises ValueError naming the path.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a tensor checkpoint")
        head = fh.read(4)
        if len(head) != 4:
            raise ValueError(f"{path}: truncated checkpoint header")
        (blob_len,) = struct.unpack("<I", head)
        blob = fh.read(blob_len)
        if len(blob) != blob_len:
            raise ValueError(f"{path}: truncated checkpoint manifest")
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: corrupt checkpoint manifest ({exc})") from None
        payload = fh.read()
    tensors = {}
    end = 0
    for name, entry in manifest["tensors"].items():
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        stop = entry["offset"] + 4 * count
        if stop > len(payload):
            raise ValueError(f"{path}: truncated checkpoint payload")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=entry["offset"])
        tensors[name] = arr.reshape(shape).astype(np.float64)
        end = max(end, stop)
    if end != len(payload):
        raise ValueError(f"{path}: {len(payload) - end} trailing bytes after the tensors")
    return tensors, manifest.get("meta", {})

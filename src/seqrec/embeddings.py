"""Post/user embedding container and the binary embedding file format.

File layout (little-endian, shared between the offline pipeline and the
serving simulator): magic ``NXTP``, u32 version, u32 count, u32 dim, then
``count`` records of (u64 id, dim x f32). Round-trips must be bit-exact, so
vectors are canonically stored as float32 and converted to float64 only for
arithmetic.
"""
from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"NXTP"
_HEADER = struct.Struct("<4sIII")


class EmbeddingSet:
    """Immutable id -> unit-vector map with float32 canonical storage."""

    def __init__(self, ids, vectors, version: int = 1, check_norm: bool = True):
        ids = np.asarray(ids, dtype=np.uint64)
        vectors = np.ascontiguousarray(np.asarray(vectors), dtype=np.float32)
        if vectors.ndim != 2 or ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids and vectors must align: (n,) and (n, dim)")
        if len(set(ids.tolist())) != len(ids):
            raise ValueError("duplicate ids in embedding set")
        if check_norm and len(ids):
            norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
            bad = np.abs(norms - 1.0) > 1e-5
            if bad.any():
                raise ValueError(f"{int(bad.sum())} embedding(s) are not unit-norm within 1e-5")
        self.ids = ids
        self.vectors = vectors
        self.version = int(version)
        self._row = {int(i): r for r, i in enumerate(ids.tolist())}

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, post_id: int) -> bool:
        return int(post_id) in self._row

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, post_id: int) -> np.ndarray:
        """Float64 copy of one embedding; raises KeyError for unknown ids."""
        try:
            row = self._row[int(post_id)]
        except KeyError:
            raise KeyError(f"no embedding for post id {post_id}") from None
        return self.vectors[row].astype(np.float64)

    def gather(self, post_ids) -> np.ndarray:
        """Float64 matrix of embeddings in the order of post_ids."""
        rows = np.empty(len(post_ids), dtype=np.int64)
        for i, pid in enumerate(post_ids):
            try:
                rows[i] = self._row[int(pid)]
            except KeyError:
                raise KeyError(f"no embedding for post id {pid}") from None
        return self.vectors[rows].astype(np.float64)


def save_embeddings(path, embs: EmbeddingSet) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, embs.version, len(embs), embs.dim))
        ids = np.ascontiguousarray(embs.ids, dtype="<u8")
        vecs = np.ascontiguousarray(embs.vectors, dtype="<f4")
        for i in range(len(embs)):
            fh.write(ids[i].tobytes())
            fh.write(vecs[i].tobytes())


def load_embeddings(path) -> EmbeddingSet:
    """Read an NXTP file; a truncated, corrupt or over-long file raises
    ValueError naming the path."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated embedding file header")
        magic, version, count, dim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        # Sizes are checked against the file before anything is allocated.
        size = _HEADER.size + count * (8 + 4 * dim)
        actual = os.fstat(fh.fileno()).st_size
        if actual < size:
            raise ValueError(f"{path}: truncated embedding payload")
        if actual > size:
            raise ValueError(f"{path}: trailing bytes after {count} records")
        try:
            record = np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])
        except ValueError as exc:
            raise ValueError(f"{path}: bad dim {dim} ({exc})") from None
        body = fh.read(record.itemsize * count)
    data = np.frombuffer(body, dtype=record)
    try:
        return EmbeddingSet(data["id"].copy(), data["vec"].copy(), version=version,
                            check_norm=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

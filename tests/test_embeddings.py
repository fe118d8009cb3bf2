import numpy as np
import pytest

from seqrec.embeddings import EmbeddingSet, load_embeddings, save_embeddings

from helpers import random_embeddings, unit_rows


class TestEmbeddingSet:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            EmbeddingSet([1], np.array([[3.0, 4.0]]))

    def test_rejects_duplicates(self):
        v = unit_rows(np.random.default_rng(0).standard_normal((2, 4)))
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSet([5, 5], v)

    def test_vector_lookup_and_missing(self):
        embs = random_embeddings(10, 8)
        v = embs.vector(3)
        assert v.dtype == np.float64
        with pytest.raises(KeyError, match="77"):
            embs.vector(77)

    def test_gather_order(self):
        embs = random_embeddings(10, 8)
        m = embs.gather([4, 1, 4])
        np.testing.assert_array_equal(m[0], m[2])
        np.testing.assert_array_equal(m[1], embs.vector(1))


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        embs = random_embeddings(25, 16, seed=3)
        path = tmp_path / "e.nxtp"
        save_embeddings(path, embs)
        loaded = load_embeddings(path)
        assert loaded.version == embs.version
        np.testing.assert_array_equal(loaded.ids, embs.ids)
        np.testing.assert_array_equal(loaded.vectors, embs.vectors)
        # bytes themselves are reproducible
        path2 = tmp_path / "e2.nxtp"
        save_embeddings(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_magic_and_layout(self, tmp_path):
        embs = random_embeddings(2, 4, seed=0)
        path = tmp_path / "e.nxtp"
        save_embeddings(path, embs)
        raw = path.read_bytes()
        assert raw[:4] == b"NXTP"
        assert int.from_bytes(raw[4:8], "little") == 1      # version
        assert int.from_bytes(raw[8:12], "little") == 2     # count
        assert int.from_bytes(raw[12:16], "little") == 4    # dim
        assert len(raw) == 16 + 2 * (8 + 4 * 4)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nxtp"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="bad magic"):
            load_embeddings(path)

    def test_truncation_rejected(self, tmp_path):
        embs = random_embeddings(4, 8, seed=1)
        path = tmp_path / "e.nxtp"
        save_embeddings(path, embs)
        (tmp_path / "trunc.nxtp").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_embeddings(tmp_path / "trunc.nxtp")

    def test_empty_set_round_trips(self, tmp_path):
        embs = EmbeddingSet(np.zeros(0, dtype=np.uint64), np.zeros((0, 8)), version=3)
        save_embeddings(tmp_path / "0.nxtp", embs)
        loaded = load_embeddings(tmp_path / "0.nxtp")
        assert len(loaded) == 0 and loaded.dim == 8 and loaded.version == 3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqrec.metrics import (
    EvalReport, batch_hits_at_k, knn_hits_at_k, knn_top_ids,
    reports_to_csv, reports_to_json, reports_to_table,
)

from helpers import unit_rows


def full_sort_batch_oracle(user_vecs, post_vecs, k):
    """Independent oracle: rank each row by full sort, diagonal wins ties."""
    scores = user_vecs @ post_vecs.T
    hits = 0
    b = scores.shape[0]
    for i in range(b):
        rank = sum(1 for j in range(b) if scores[i, j] > scores[i, i])
        if rank < k:
            hits += 1
    return hits / b


def full_sort_knn_oracle(query, corpus_ids, corpus_vecs, k, targets):
    scored = sorted(
        ((float(corpus_vecs[r] @ query), int(corpus_ids[r])) for r in range(len(corpus_ids))),
        key=lambda t: (-t[0], t[1]))
    top = {pid for _, pid in scored[:k]}
    return bool(top & set(targets))


class TestBatchHits:
    def test_diagonal_max_gives_one(self):
        vecs = np.eye(4)
        assert batch_hits_at_k(vecs, vecs, 1) == 1.0

    def test_two_by_two_half(self):
        # cosines [[0.1, 0.9], [0.2, 0.8]]: row 0 misses, row 1 hits
        user = np.array([[1.0, 0.0], [0.0, 1.0]])
        post = np.array([[0.1, 0.2], [0.9, 0.8]])
        assert batch_hits_at_k(user, post, 1) == 0.5

    def test_diagonal_wins_ties(self):
        user = np.array([[1.0, 0.0], [1.0, 0.0]])
        post = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert batch_hits_at_k(user, post, 1) == 1.0

    def test_k_ge_b_warns_and_is_one(self, caplog):
        rng = np.random.default_rng(0)
        u = unit_rows(rng.standard_normal((4, 8)))
        p = unit_rows(rng.standard_normal((4, 8)))
        with caplog.at_level("WARNING"):
            assert batch_hits_at_k(u, p, 4) == 1.0
        assert any("trivially 1" in r.message for r in caplog.records)

    def test_random_vectors_hit_rate_near_1_over_b(self):
        rng = np.random.default_rng(42)
        b, trials = 128, 100
        vals = []
        for _ in range(trials):
            u = unit_rows(rng.standard_normal((b, 16)))
            p = unit_rows(rng.standard_normal((b, 16)))
            vals.append(batch_hits_at_k(u, p, 1))
        assert abs(np.mean(vals) - 1.0 / b) < 0.01

    def test_agrees_with_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            b = int(rng.integers(2, 20))
            u = unit_rows(rng.standard_normal((b, 6)))
            p = unit_rows(rng.standard_normal((b, 6)))
            k = int(rng.integers(1, b + 1))
            assert batch_hits_at_k(u, p, k) == full_sort_batch_oracle(u, p, k)

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, b, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        u = unit_rows(rng.standard_normal((b, 5)))
        p = unit_rows(rng.standard_normal((b, 5)))
        vals = [batch_hits_at_k(u, p, k) for k in range(1, b + 1)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        assert vals[-1] == 1.0


class TestKnnHits:
    def test_corpus_equals_targets_identity(self):
        vecs = unit_rows(np.random.default_rng(0).standard_normal((5, 8)))
        ids = np.arange(5) + 100
        rep = knn_hits_at_k(vecs, [[100 + i] for i in range(5)], ids, vecs, 1)
        assert rep.value == 1.0 and rep.hits == 5

    def test_k_equals_corpus_size_always_hits(self):
        rng = np.random.default_rng(1)
        corpus = unit_rows(rng.standard_normal((20, 8)))
        users = unit_rows(rng.standard_normal((6, 8)))
        rep = knn_hits_at_k(users, [[int(rng.integers(20))] for _ in range(6)],
                            np.arange(20), corpus, 20)
        assert rep.value == 1.0

    def test_target_outside_the_corpus_never_hits(self):
        """A target that is not in the corpus can never be ranked: it is
        absent, and a query whose targets are all absent is a miss that still
        counts in n_queries."""
        vecs = unit_rows(np.random.default_rng(0).standard_normal((3, 4)))
        rep = knn_hits_at_k(vecs, [[999, 0], [999], []], np.arange(3), vecs, 3)
        assert (rep.hits, rep.n_queries) == (1, 3)

    def test_agrees_with_full_sort_oracle_100_queries(self):
        rng = np.random.default_rng(5)
        corpus_ids = np.arange(200)
        corpus = unit_rows(rng.standard_normal((200, 10)))
        hits_impl = hits_oracle = 0
        for q in range(100):
            query = unit_rows(rng.standard_normal((1, 10)))[0]
            targets = [int(t) for t in rng.choice(200, size=3, replace=False)]
            k = int(rng.integers(1, 30))
            rep = knn_hits_at_k(query[None, :], [targets], corpus_ids, corpus, k)
            hits_impl += rep.hits
            hits_oracle += full_sort_knn_oracle(query, corpus_ids, corpus, k, targets)
        assert hits_impl == hits_oracle

    def test_tie_break_ascending_id(self):
        corpus = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ids = np.array([30, 10, 20])
        top = knn_top_ids(np.array([1.0, 0.0]), ids, corpus, 2)
        assert top.tolist() == [10, 30]

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected(self, k):
        vecs = unit_rows(np.random.default_rng(0).standard_normal((4, 3)))
        with pytest.raises(ValueError, match="k must be positive"):
            knn_top_ids(vecs[0], np.arange(4), vecs, k)
        with pytest.raises(ValueError, match="k must be positive"):
            knn_hits_at_k(vecs, [[0]] * 4, np.arange(4), vecs, k)


class TestReports:
    def test_value_is_exact_ratio(self):
        rep = EvalReport(metric="knn_hits", k=10, hits=3, n_queries=7)
        assert rep.value == 3 / 7

    def test_serialization_round_trip(self, tmp_path):
        import json
        reps = [EvalReport("knn_hits", 20, 5, 9, {"staleness_days": 2})]
        reports_to_json(reps, tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data[0]["hits"] == 5 and data[0]["value"] == 5 / 9
        reports_to_csv(reps, tmp_path / "r.csv")
        assert "knn_hits,20" in (tmp_path / "r.csv").read_text()
        table = reports_to_table(reps)
        assert "staleness_days=2" in table


class TestBatchKnnEquivalence:
    def test_batch_metric_equals_knn_on_positive_corpus(self):
        """With the corpus restricted to the batch positives (one per user),
        the in-batch metric and the exact-KNN metric agree."""
        rng = np.random.default_rng(9)
        b = 64
        users = unit_rows(rng.standard_normal((b, 12)))
        posts = unit_rows(rng.standard_normal((b, 12)))
        ids = np.arange(b) + 1000
        for k in (1, 3, 10, 32):
            batch_val = batch_hits_at_k(users, posts, k)
            knn = knn_hits_at_k(users, [[int(ids[i])] for i in range(b)],
                                ids, posts, k)
            assert batch_val == knn.value

import math

import numpy as np

from seqbench.oracles import (
    loss_trajectory_problem, ranking_mismatch, reference_knn_hits, reference_top_k,
)


def test_reference_top_k_breaks_equal_scores_by_ascending_id():
    ids = np.array([40, 7, 19, 3, 25], dtype=np.int64)
    vecs = np.array([[1.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.5, 0.0], [0.9, 0.0]])
    top, scores = reference_top_k(ids, vecs, np.array([1.0, 0.0]), 4)
    assert top.tolist() == [19, 40, 25, 3]
    assert scores.tolist() == [1.0, 1.0, 0.9, 0.5]


def test_reference_knn_hits_matches_a_per_query_loop():
    rng = np.random.default_rng(3)
    ids = np.arange(100, 160, dtype=np.int64)
    corpus = rng.standard_normal((60, 8))
    corpus[10] = corpus[11]                 # an exact tie inside the corpus
    users = rng.standard_normal((25, 8))
    targets = [rng.choice(ids, size=3, replace=False).tolist() for _ in range(25)]
    expected = 0
    for u, t in zip(users, targets):
        top, _ = reference_top_k(ids, corpus, u, 10)
        expected += bool(set(top.tolist()) & set(t))
    assert reference_knn_hits(users, targets, ids, corpus, 10) == expected


def test_ranking_mismatch_reports_ids_and_score_drift():
    ids, scores = np.array([5, 2]), np.array([0.5, 0.25])
    assert ranking_mismatch([(5, 0.5), (2, 0.25)], ids, scores) is None
    assert "ids" in ranking_mismatch([(2, 0.25), (5, 0.5)], ids, scores)
    assert "score" in ranking_mismatch([(5, 0.5 + 1e-9), (2, 0.25)], ids, scores)
    assert "score" in ranking_mismatch([(5, math.nan), (2, 0.25)], ids, scores)


def test_loss_trajectory_must_be_finite_and_fall():
    assert loss_trajectory_problem([3.0, 2.9, 2.0, 1.9], 2) is None
    assert "non-finite" in loss_trajectory_problem([3.0, math.inf, 2.0, 1.0], 2)
    assert "not below" in loss_trajectory_problem([2.0, 2.0, 2.0, 2.1], 2)
    assert "two epochs" in loss_trajectory_problem([2.0, 1.0], 2)

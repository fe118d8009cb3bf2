"""Batch Hits@K and exact-KNN Hits@K with integer hit accounting.

Reported values are always the exact ratio hits/n_queries; the integer counts
travel with every report so downstream aggregation never accumulates float
error. Ties are broken optimistically for the true item in the batch metric
and by ascending post id in the KNN ranking (a total order shared with the
serving path).
"""
from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    metric: str
    k: int
    hits: int
    n_queries: int
    slice: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.hits / self.n_queries if self.n_queries else 0.0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["value"] = self.value
        return d


def diagonal_ranks(user_vecs: np.ndarray, post_vecs: np.ndarray) -> np.ndarray:
    """Per row, how many scores are strictly greater than the diagonal one.

    This is the 0-based rank of each row's positive with ties broken in its
    favour: the row is a Hits@k hit exactly when its rank is below k.
    """
    scores = user_vecs @ post_vecs.T
    return (scores > np.diag(scores)[:, None]).sum(axis=1)


def batch_hits_at_k(user_vecs: np.ndarray, post_vecs: np.ndarray, k: int) -> float:
    """Fraction of rows whose diagonal score is within the top k of the row.

    Rows must be unit-norm so scores are cosines. A diagonal entry beats ties:
    a row is a hit when fewer than k scores are strictly greater.
    """
    b = user_vecs.shape[0]
    if post_vecs.shape != user_vecs.shape:
        raise ValueError("user and post matrices must both be (B, D)")
    if k >= b:
        log.warning("batch_hits_at_k: K=%d >= B=%d makes the metric trivially 1", k, b)
    return float((diagonal_ranks(user_vecs, post_vecs) < k).sum()) / b


def knn_top_ids(query_vec: np.ndarray, corpus_ids: np.ndarray,
                corpus_vecs: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k corpus ids by cosine for one query; ties -> ascending id."""
    scores = corpus_vecs @ query_vec
    order = np.lexsort((corpus_ids, -scores))
    return corpus_ids[order[:k]]


def knn_hits_at_k(user_vecs: np.ndarray, target_id_sets: list,
                  corpus_ids, corpus_vecs: np.ndarray, k: int) -> EvalReport:
    """Per-user exact brute-force KNN over the corpus; hit iff any target id
    lands in the top k. Every target id must exist in the corpus."""
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    known = set(corpus_ids.tolist())
    hits = 0
    for row, targets in enumerate(target_id_sets):
        targets = {int(t) for t in targets}
        missing = targets - known
        if missing:
            raise KeyError(f"targets missing from corpus: {sorted(missing)}")
        top = knn_top_ids(user_vecs[row], corpus_ids, corpus_vecs, k)
        if targets & set(top.tolist()):
            hits += 1
    return EvalReport(metric="knn_hits", k=k, hits=hits, n_queries=len(target_id_sets))


def reports_to_json(reports: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)


def reports_to_table(reports: list) -> str:
    """Aligned plain-text table of reports."""
    rows = [("metric", "K", "value", "hits", "n", "slice")]
    for r in reports:
        slc = ",".join(f"{k}={v}" for k, v in sorted(r.slice.items()))
        rows.append((r.metric, str(r.k), f"{r.value:.4f}", str(r.hits),
                     str(r.n_queries), slc))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def reports_to_csv(reports: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,k,value,hits,n_queries,slice\n")
        for r in reports:
            slc = ";".join(f"{k}={v}" for k, v in sorted(r.slice.items()))
            fh.write(f"{r.metric},{r.k},{r.value},{r.hits},{r.n_queries},{slc}\n")

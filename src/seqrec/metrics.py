"""Batch Hits@K and exact-KNN Hits@K with integer hit accounting.

Reported values are always the exact ratio hits/n_queries; the integer counts
travel with every report so downstream aggregation never accumulates float
error. Ties are broken optimistically for the true item in the batch metric.
`knn_hits_at_k` is the one offline KNN hit counter: eval and every experiment
count through it, the experiments hiding each user's consumed posts with
`seen_cells`. A target outside the corpus can never be ranked, so it counts as
absent, and a query left with no target in the corpus is a miss. Every offline
corpus ranking is `top_k_columns`, the (-score, ascending post id) total order
that serving retrieve also keeps. It partitions each row at its k-th score and
sorts only the head, widening the head to the whole tie group where one
straddles the k-th place, so it keeps the rows a full sort would.
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


def top_k_columns(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Each row's top-k column indices of a (Q, N) score matrix, best first.

    Columns rank by (-score, ascending id, column), so equal scores never
    leave the order open. A row has min(k, N) entries. For k < N each row is
    partitioned to its k-th score first: a row with exactly k scores at or
    above that score sorts only those k; a row whose tie group straddles the
    k-th place ranks every column at or above it, so the k kept are the ones a
    full sort of the row would keep.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = scores.shape[1]
    if k >= n:
        return np.lexsort((np.broadcast_to(ids, scores.shape), -scores), axis=-1)
    neg = -scores
    part = np.argpartition(neg, k - 1, axis=-1)
    kth = np.take_along_axis(neg, part[:, k - 1:k], axis=-1)
    tied = np.count_nonzero(neg <= kth, axis=-1) > k
    top = part[:, :k]
    order = np.lexsort((top, ids[top], np.take_along_axis(neg, top, axis=-1)), axis=-1)
    out = np.take_along_axis(top, order, axis=-1)
    for row in np.nonzero(tied)[0]:
        cand = np.flatnonzero(neg[row] <= kth[row])
        out[row] = cand[np.lexsort((ids[cand], neg[row, cand]))[:k]]
    return out


def knn_top_ids(query_vec: np.ndarray, corpus_ids: np.ndarray,
                corpus_vecs: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k corpus ids by cosine for one query; ties -> ascending id."""
    scores = corpus_vecs @ query_vec
    return corpus_ids[top_k_columns(scores[None, :], corpus_ids, k)[0]]


def seen_cells(seen_sets: list, corpus_ids: np.ndarray):
    """(rows, columns) of the score cells knn_hits_at_k hides: row r's seen
    posts that are in the corpus. Posts outside the corpus are skipped."""
    rows = np.repeat(np.arange(len(seen_sets)), [len(seen) for seen in seen_sets])
    ids = np.fromiter((pid for seen in seen_sets for pid in seen), dtype=np.int64,
                      count=rows.size)
    order = np.argsort(corpus_ids, kind="stable")
    at = np.searchsorted(corpus_ids, ids, sorter=order)
    found = at < corpus_ids.size
    found[found] = corpus_ids[order[at[found]]] == ids[found]
    return rows[found], order[at[found]]


def knn_hits_at_k(user_vecs: np.ndarray, target_id_sets: list,
                  corpus_ids, corpus_vecs: np.ndarray, k: int,
                  seen: tuple | None = None) -> EvalReport:
    """Per-user exact brute-force KNN over the corpus; hit iff any target id
    lands in the top k. Targets outside the corpus are absent: with the
    integrity filter off, flagged posts stay targets but are never served.

    seen, when given, is seen_cells(seen_sets, corpus_ids), built once for all
    calls that rank the same users against the same corpus. A user cannot
    re-engage a post, so serving never shows consumed items; hiding them keeps
    the freshest embeddings from being crowded out of the top k by the very
    posts they were computed from.
    """
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    scores = user_vecs @ corpus_vecs.T
    if seen is not None:
        scores[seen] = -np.inf
    top = corpus_ids[top_k_columns(scores, corpus_ids, k)].tolist()
    hits = sum(1 for targets, row in zip(target_id_sets, top)
               if not set(targets).isdisjoint(row))
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

"""Independent references the benchmark checks the program's outputs against."""
from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-12


def reference_top_k(ids: np.ndarray, vecs64: np.ndarray, query64: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by inner product; equal scores rank by ascending id."""
    scores = vecs64 @ query64
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def reference_knn_hits(user_vecs: np.ndarray, target_sets: list,
                       corpus_ids, corpus_vecs: np.ndarray, k: int) -> int:
    """Batched exact-KNN hit count: one matrix product for all queries, then a
    per-row (-score, id) lexsort; a query hits when any target is in its top k."""
    ids = np.asarray(corpus_ids, dtype=np.int64)
    scores = user_vecs @ corpus_vecs.T
    order = np.lexsort((np.broadcast_to(ids, scores.shape), -scores), axis=-1)
    top = ids[order[:, :k]]
    return sum(1 for row, targets in zip(top, target_sets)
               if set(row.tolist()) & {int(t) for t in targets})


def ranking_mismatch(ranked: list, ref_ids: np.ndarray, ref_scores: np.ndarray) -> str | None:
    """Why a [(id, score)] ranking differs from the reference, or None."""
    got_ids = [pid for pid, _ in ranked]
    if got_ids != ref_ids.tolist():
        return f"ids {got_ids} != reference {ref_ids.tolist()}"
    worst = max((abs(sc - r) for (_, sc), r in zip(ranked, ref_scores.tolist())),
                default=0.0)
    if not worst <= SCORE_TOL:
        return f"score differs from reference by {worst:.3e}"
    return None


def loss_trajectory_problem(losses: list, steps_per_epoch: int) -> str | None:
    """Every loss finite, and the last epoch's mean below the first's."""
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    if bad:
        return f"non-finite loss at steps {bad[:5]}"
    if len(losses) < 2 * steps_per_epoch:
        return f"need two epochs of losses, have {len(losses)} steps"
    first = float(np.mean(losses[:steps_per_epoch]))
    last = float(np.mean(losses[-steps_per_epoch:]))
    if not last < first:
        return f"last epoch mean loss {last:.6f} not below first {first:.6f}"
    return None

"""Scaled in-batch-negative cross-entropy and the short/long-term objectives.

Logits are `scale * cosine(anchor, candidate)`. Per anchor the candidate set is
its positive plus a pool of posts contributed by *other* users in the batch;
pool entries owned by the anchor's user (anything in their own history or label
set, which also covers any candidate sharing the positive's post id) are masked
out of the denominator, so an anchor is never penalized against itself.

Losses are means over contributed terms, which keeps magnitudes comparable
across batch sizes. Each loss returns its gradient with respect to the model
outputs it consumed; parameter gradients are obtained by chaining through the
encoder backward pass.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .blocks import l2_normalize, l2_normalize_backward
from .configs import LossConfig

log = logging.getLogger(__name__)


@dataclass(eq=False)
class NegativePool:
    """Unique candidate posts with per-batch-row ownership.

    owners[b, i] is True when batch row b's user contributed candidate i, in
    which case i is never used as a negative for that row.
    """

    ids: np.ndarray        # (Np,) int64, sorted
    vectors: np.ndarray    # (Np, D) float64 unit rows
    owners: np.ndarray     # (B, Np) bool

    def __len__(self) -> int:
        return len(self.ids)


def build_pool(per_row_ids: list, embeddings) -> NegativePool:
    """Pool from per-batch-row post-id collections (deduplicated across rows)."""
    counts = [len(ids) for ids in per_row_ids]
    flat = np.fromiter((int(pid) for ids in per_row_ids for pid in ids),
                       dtype=np.int64, count=sum(counts))
    ids, col = np.unique(flat, return_inverse=True)
    owners = np.zeros((len(per_row_ids), len(ids)), dtype=bool)
    owners[np.repeat(np.arange(len(per_row_ids)), counts), col] = True
    vectors = embeddings.gather(ids) if len(ids) else np.zeros((0, embeddings.dim))
    return NegativePool(ids=ids, vectors=vectors, owners=owners)


def sample_negatives(pool: NegativePool, k: int, seed: int) -> NegativePool:
    """Uniform subsample of k pool candidates without replacement (per seed).

    Asking for the whole pool (or more) returns it unchanged; k larger than the
    pool is only warned about, not an error.
    """
    if k >= len(pool):
        if k > len(pool):
            log.warning("sample_negatives: k=%d exceeds pool size %d; using full pool",
                        k, len(pool))
        return pool
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cols = np.sort(rng.choice(len(pool), size=k, replace=False))
    return NegativePool(ids=pool.ids[cols], vectors=pool.vectors[cols],
                        owners=pool.owners[:, cols])


def _maybe_sample(pool: NegativePool, cfg: LossConfig, seed: int) -> NegativePool:
    if cfg.neg_mode == "sampled":
        return sample_negatives(pool, cfg.neg_sample_k, seed)
    return pool


@dataclass(eq=False)
class LossResult:
    loss: float
    n_terms: int


def _ce_terms(anchors: np.ndarray, pos_vecs: np.ndarray, pool: NegativePool,
              row_of_anchor: np.ndarray, s: float) -> tuple[float, np.ndarray]:
    """The one CE core: unit anchors against [positive | unowned pool columns].

    anchors, pos_vecs: (Na, D) unit rows, Na >= 1, grouped by batch row
    (row_of_anchor non-decreasing). Returns the mean loss over anchors and its
    gradient wrt the unit anchors. All (Na, 1 + Np) work happens in place in
    one buffer: logits, then shifted logits, then exponentials, then softmax
    probabilities.
    """
    if np.any(np.diff(row_of_anchor) < 0):
        raise ValueError("_ce_terms: anchors must be grouped by batch row "
                         "(row_of_anchor non-decreasing)")
    na = anchors.shape[0]
    pos_logit = s * np.sum(anchors * pos_vecs, axis=1)                 # (Na,)
    buf = np.empty((na, 1 + len(pool)))
    buf[:, 0] = pos_logit
    neg = buf[:, 1:]
    np.matmul(anchors, pool.vectors.T, out=neg)
    neg *= s
    # Every anchor of one batch row shares that row's owned (blocked) columns.
    starts = np.flatnonzero(np.diff(row_of_anchor, prepend=-1))
    for a, b in zip(starts, np.append(starts[1:], na)):
        neg[a:b, pool.owners[row_of_anchor[a]]] = -np.inf
    m = buf.max(axis=1, keepdims=True)
    buf -= m
    np.exp(buf, out=buf)
    z = buf.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) + m[:, 0] - pos_logit))
    buf /= z                                                           # softmax probs
    # dL/d_anchor = s/Na * (sum_j p_j c_j - c_pos); masked columns have p == 0
    d_anchor = (buf[:, 0:1] - 1.0) * pos_vecs + neg @ pool.vectors
    d_anchor *= s / na
    return loss, d_anchor


def _in_batch_ce(name: str, samples: list, owned_ids: list, rows: np.ndarray,
                 pos_ids: list, anchors: np.ndarray, embeddings, cfg: LossConfig,
                 neg_seed: int) -> tuple[LossResult, np.ndarray]:
    """Shared tail of both objectives: pool the batch rows' posts, then the core.

    owned_ids[b] are the posts batch row b contributes to the pool; anchor i
    belongs to row rows[i] and must match post pos_ids[i]. Returns the result
    and the gradient wrt the unit anchors.
    """
    if len({s.user_id for s in samples}) < 2:
        log.warning("%s: batch has a single user; no negatives exist", name)
    pool = _maybe_sample(build_pool(owned_ids, embeddings), cfg, neg_seed)
    if not len(rows):
        return LossResult(0.0, 0), np.zeros_like(anchors)
    loss, d_anchor = _ce_terms(anchors, embeddings.gather(pos_ids), pool, rows, cfg.scale)
    return LossResult(loss, len(rows)), d_anchor


def short_term_loss(hidden: np.ndarray, samples: list, embeddings,
                    cfg: LossConfig, max_seq_len: int, use_cls: bool,
                    neg_seed: int = 0) -> tuple[LossResult, np.ndarray]:
    """Per-position next-post objective under the causal mask.

    For every history position with a successor, the hidden state at that
    position (normalized) must match the next post's embedding against all
    other users' history posts. Returns (result, d_hidden).
    """
    cls_extra = 1 if use_cls else 0
    hists = [s.history[-max_seq_len:] for s in samples]
    rows, cols, pos_ids = [], [], []
    for b, hist in enumerate(hists):
        for t in range(len(hist) - 1):
            rows.append(b)
            cols.append(t + cls_extra)
            pos_ids.append(hist[t + 1].post_id)
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    anchors, norms = l2_normalize(hidden[rows, cols])
    res, d_anchor = _in_batch_ce("short_term_loss", samples,
                                 [[h.post_id for h in hist] for hist in hists],
                                 rows, pos_ids, anchors, embeddings, cfg, neg_seed)
    d_hidden = np.zeros_like(hidden)
    # each (row, col) is one history position, so plain assignment suffices
    d_hidden[rows, cols] = l2_normalize_backward(anchors, norms, d_anchor)
    return res, d_hidden


def long_term_loss(user_vecs: np.ndarray, samples: list, embeddings,
                   cfg: LossConfig, neg_seed: int = 0) -> tuple[LossResult, np.ndarray]:
    """Multi-label objective: the pooled user vector must match each of up to m
    future posts against the long targets owned by other users in the batch.

    user_vecs rows must already be unit-norm (the encoder emits them that way).
    Returns (result, d_user_vecs) with the gradient taken wrt the unit vectors.
    """
    targets = [s.long_targets[:cfg.m] for s in samples]
    rows = np.array([b for b, tgt in enumerate(targets) for _ in tgt], dtype=np.int64)
    pos_ids = [pid for tgt in targets for pid in tgt]
    res, d_anchor = _in_batch_ce("long_term_loss", samples, targets, rows, pos_ids,
                                 user_vecs[rows], embeddings, cfg, neg_seed)
    d_user = np.zeros_like(user_vecs)
    np.add.at(d_user, rows, d_anchor)
    return res, d_user


def total_loss(short: float, long: float, cfg: LossConfig) -> float:
    """Weighted combination of the two objectives."""
    return cfg.w_short * short + cfg.w_long * long

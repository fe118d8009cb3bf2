"""Batch assembly, the optimization loop, and the ablation-ladder variants.

The ladder mirrors the staged model improvements: an averaged-embedding
baseline with a two-layer head, then the two-tower transformer with
bidirectional attention and a single next-post label, then +CLS, +causal mask,
+multi-label long-term objective, +per-position short-term objective, and
finally +relative-time feature. The post embeddings are frozen throughout;
only the user side learns.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import ffn_backward, ffn_forward, l2_normalize, l2_normalize_backward, xavier
from .configs import VARIANTS, EncoderConfig, LossConfig, TrainConfig
from .encoder import (
    assemble_batch_inputs,
    backward_batch,
    encode_batch,
    encode_user_vectors,
    init_params,
    quantize_params,
    save_checkpoint,
)
from .loss import long_term_loss, short_term_loss, total_loss
from .metrics import diagonal_ranks
from .optim import Adam, clip_by_global_norm

log = logging.getLogger(__name__)


def variant_settings(variant: str, enc: EncoderConfig, loss: LossConfig,
                     dropout: float) -> tuple[EncoderConfig, LossConfig, str]:
    """Resolve a ladder variant into (encoder config, loss config, model kind)."""
    flags, overrides, kind = VARIANTS[variant]
    return (dataclasses.replace(enc, dropout=dropout, **flags),
            dataclasses.replace(loss, **overrides), kind)


# ---------------------------------------------------------------------------
# averaged-embedding baseline (two-layer head over the mean history vector)
# ---------------------------------------------------------------------------

BASELINE_HIDDEN = 64


def init_baseline_params(dim: int, seed: int) -> dict:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return {
        "w1": xavier(rng, dim, BASELINE_HIDDEN),
        "b1": np.zeros(BASELINE_HIDDEN),
        "w2": xavier(rng, BASELINE_HIDDEN, dim),
        "b2": np.zeros(dim),
    }


def baseline_forward(params: dict, mean_emb: np.ndarray):
    raw, ffn_cache = ffn_forward(mean_emb, params["w1"], params["b1"],
                                 params["w2"], params["b2"])
    unit, norms = l2_normalize(raw)
    return unit, dict(ffn=ffn_cache, unit=unit, norms=norms)


def baseline_backward(cache: dict, d_unit: np.ndarray) -> dict:
    d_raw = l2_normalize_backward(cache["unit"], cache["norms"], d_unit)
    _, d_w1, d_b1, d_w2, d_b2 = ffn_backward(cache["ffn"], d_raw)
    # clip_by_global_norm sums over the dict in order; keep w2, b2, w1, b1
    return {"w2": d_w2, "b2": d_b2, "w1": d_w1, "b1": d_b1}


def _mean_history_embedding(samples: list, embeddings, max_len: int) -> np.ndarray:
    out = np.zeros((len(samples), embeddings.dim))
    for i, s in enumerate(samples):
        hist = s.history[-max_len:]
        out[i] = embeddings.gather([h.post_id for h in hist]).mean(axis=0)
    return out


# ---------------------------------------------------------------------------
# batch packing
# ---------------------------------------------------------------------------

def assemble_batch(samples: list, batch_size: int, seed: int) -> list:
    """Pack samples into batches of batch_size with pairwise-distinct user ids.

    Packing is deterministic per seed (greedy first-fit over a shuffled order);
    leftover samples that do not fill a final batch are dropped with a log
    line. Epochs reshuffle the order of these batches, not their contents, so
    every epoch trains on the identical multiset of samples.
    """
    if len(samples) < batch_size:
        raise ValueError(f"need >= {batch_size} samples to form a batch, have {len(samples)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    order = rng.permutation(len(samples))
    batches: list[list] = []
    open_batches: list[tuple[list, set]] = []
    for idx in order:
        s = samples[int(idx)]
        placed = False
        for i, (members, users) in enumerate(open_batches):
            if s.user_id not in users:
                members.append(s)
                users.add(s.user_id)
                placed = True
                if len(members) == batch_size:
                    batches.append(members)
                    del open_batches[i]
                break
        if not placed:
            open_batches.append(([s], {s.user_id}))
    dropped = sum(len(m) for m, _ in open_batches)
    if dropped:
        log.info("assemble_batch: dropped %d leftover sample(s) not filling a batch", dropped)
    return batches


def epoch_batch_order(n_batches: int, seed: int, epoch: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(1000 + epoch,))))
    return rng.permutation(n_batches)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    variant: str
    losses: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    epoch_hits1: list = field(default_factory=list)
    epoch_hits10: list = field(default_factory=list)
    final_hits1: float = 0.0
    final_hits10: float = 0.0
    n_eval_queries: int = 0
    n_train_samples: int = 0
    n_batches: int = 0
    wall_clock_s: float = 0.0
    checkpoint_path: str | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

class UserTower:
    """Trainable user model: the transformer or the averaged-embedding baseline."""

    def __init__(self, kind: str, params: dict, enc_cfg: EncoderConfig,
                 surfaces: dict):
        self.kind = kind
        self.params = params
        self.enc_cfg = enc_cfg
        self.surfaces = surfaces

    def eval_user_vectors(self, samples: list, embeddings) -> np.ndarray:
        if self.kind == "baseline":
            mean = _mean_history_embedding(samples, embeddings, self.enc_cfg.max_seq_len)
            return baseline_forward(self.params, mean)[0]
        return encode_user_vectors(samples, embeddings, self.params, self.enc_cfg,
                                   self.surfaces)


def _step_rng(seed: int, epoch: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(2, epoch, step))))


def train_step(tower: UserTower, opt: Adam, batch: list, embeddings,
               train_cfg: TrainConfig, loss_cfg: LossConfig,
               epoch: int, step: int) -> dict:
    """One optimization step; returns {'loss', 'grad_norm', 'clipped_norm', ...}."""
    rng = _step_rng(train_cfg.seed, epoch, step)
    neg_seed = int(rng.integers(2 ** 31))

    if tower.kind == "baseline":
        mean = _mean_history_embedding(batch, embeddings, tower.enc_cfg.max_seq_len)
        user_vec, cache = baseline_forward(tower.params, mean)
        long_res, d_user = long_term_loss(user_vec, batch, embeddings, loss_cfg, neg_seed)
        loss = total_loss(0.0, long_res.loss, loss_cfg)
        grads = baseline_backward(cache, loss_cfg.w_long * d_user)
        short_val = 0.0
        long_val = long_res.loss
    else:
        asm = assemble_batch_inputs(batch, embeddings, tower.params, tower.enc_cfg,
                                    tower.surfaces)
        hidden, user_vec, cache = encode_batch(asm, tower.params, tower.enc_cfg,
                                               train=True, rng=rng)
        d_hidden = None
        short_val = 0.0
        if loss_cfg.w_short > 0:
            short_res, d_hidden = short_term_loss(
                hidden, batch, embeddings, loss_cfg,
                tower.enc_cfg.max_seq_len, tower.enc_cfg.use_cls, neg_seed)
            short_val = short_res.loss
            d_hidden = d_hidden * loss_cfg.w_short
        long_res, d_user = long_term_loss(user_vec, batch, embeddings, loss_cfg,
                                          neg_seed + 1)
        long_val = long_res.loss
        loss = total_loss(short_val, long_val, loss_cfg)
        grads = backward_batch(cache, tower.params, tower.enc_cfg,
                               d_hidden, loss_cfg.w_long * d_user)

    if not math.isfinite(loss):
        users = sorted({s.user_id for s in batch})
        raise FloatingPointError(f"non-finite loss {loss} on batch of users {users}")
    grads, pre_norm = clip_by_global_norm(grads, train_cfg.grad_clip)
    opt.step(tower.params, grads)
    for k, v in tower.params.items():
        if not np.all(np.isfinite(v)):
            raise FloatingPointError(f"parameter {k} became non-finite after update")
    clipped = min(pre_norm, train_cfg.grad_clip)
    return {"loss": loss, "short": short_val, "long": long_val,
            "grad_norm": pre_norm, "clipped_norm": clipped}


def usable_samples(samples: list, use_cls: bool) -> list:
    """The samples a tower can train on or score: each has a long-term target
    and something to pool, a history or the CLS token."""
    return [s for s in samples if s.long_targets and (len(s.history) > 0 or use_cls)]


def batch_hits_eval(tower: UserTower, eval_samples: list, embeddings,
                    batch_size: int) -> tuple[float, float, int]:
    """In-batch Hits@1/@10 over the eval set, positives on the diagonal."""
    usable = usable_samples(eval_samples, tower.enc_cfg.use_cls)
    hits1 = hits10 = total = 0
    for lo in range(0, len(usable) - batch_size + 1, batch_size):
        chunk = usable[lo:lo + batch_size]
        user_vecs = tower.eval_user_vectors(chunk, embeddings)
        pos = embeddings.gather([s.long_targets[0] for s in chunk])
        ranks = diagonal_ranks(user_vecs, pos)
        hits1 += int((ranks < 1).sum())
        hits10 += int((ranks < 10).sum())
        total += len(chunk)
    if total == 0:
        return 0.0, 0.0, 0
    return hits1 / total, hits10 / total, total


def train(train_samples: list, eval_samples: list, embeddings,
          enc_cfg: EncoderConfig, loss_cfg: LossConfig, train_cfg: TrainConfig,
          surfaces: dict | None = None, checkpoint_path=None) -> tuple[UserTower, TrainReport]:
    """Run one ladder variant end to end and report its trajectory and metrics."""
    surfaces = surfaces or {}
    enc_cfg, loss_cfg, kind = variant_settings(train_cfg.variant, enc_cfg, loss_cfg,
                                               train_cfg.dropout)
    report = TrainReport(variant=train_cfg.variant,
                         n_train_samples=len(train_samples))
    if kind == "baseline":
        report.notes.append(
            f"{train_cfg.variant} stands in for an id-feature wide-and-deep baseline, "
            "which cannot be built from content embeddings alone")

    usable = usable_samples(train_samples, enc_cfg.use_cls)
    if kind == "baseline":
        params = init_baseline_params(embeddings.dim, train_cfg.seed)
    else:
        if embeddings.dim != enc_cfg.d_model:
            raise ValueError(f"d_model={enc_cfg.d_model} must equal the post embedding "
                             f"dim {embeddings.dim}: outputs are compared by cosine")
        params = init_params(enc_cfg, train_cfg.seed)
    tower = UserTower(kind, params, enc_cfg, surfaces)
    opt = Adam(params, lr=train_cfg.learning_rate)

    t0 = time.perf_counter()
    if train_cfg.epochs > 0:
        batches = assemble_batch(usable, train_cfg.batch_size, train_cfg.seed)
        if not batches:
            raise ValueError(
                f"no training batch formed: batch_size={train_cfg.batch_size} needs that "
                f"many distinct users, the training samples have "
                f"{len({s.user_id for s in usable})}")
        report.n_batches = len(batches)
        step = 0
        for epoch in range(train_cfg.epochs):
            for bi in epoch_batch_order(len(batches), train_cfg.seed, epoch):
                metrics = train_step(tower, opt, batches[int(bi)], embeddings,
                                     train_cfg, loss_cfg, epoch, step)
                report.losses.append(metrics["loss"])
                report.grad_norms.append(metrics["grad_norm"])
                step += 1
            h1, h10, _ = batch_hits_eval(tower, eval_samples, embeddings,
                                         train_cfg.batch_size)
            report.epoch_hits1.append(h1)
            report.epoch_hits10.append(h10)
    report.wall_clock_s = time.perf_counter() - t0

    # The checkpoint stores float32; evaluate what a reader of that file sees.
    if checkpoint_path is not None:
        tower.params = save_checkpoint(checkpoint_path, tower.params, enc_cfg,
                                       extra={"variant": train_cfg.variant,
                                              "kind": kind})
        report.checkpoint_path = str(checkpoint_path)
    else:
        tower.params = quantize_params(tower.params)
    h1, h10, n = batch_hits_eval(tower, eval_samples, embeddings, train_cfg.batch_size)
    report.final_hits1, report.final_hits10, report.n_eval_queries = h1, h10, n
    return tower, report

"""Fixed (pre-trained) post embeddings for the user tower.

Two interchangeable providers sit behind the same interface:

* oracle mode — embedding = normalize(topic + noise); cheap, used to test the
  rest of the pipeline without training anything;
* trained mode — a small multi-channel tower (per-channel projections,
  deep-sets fusion over image vectors, attention fusion across channels, final
  projection to the unit sphere), trained on co-engaged post pairs with the
  scaled in-batch-negative cross-entropy.

The user tower never learns which provider produced its inputs.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    ffn_backward,
    ffn_forward,
    l2_normalize,
    l2_normalize_backward,
    masked_softmax,
    softmax_backward,
    xavier,
)
from .configs import DatasetConfig
from .embeddings import EmbeddingSet
from .optim import Adam
from .samples import events_by_user
from .world import Post, SECONDS_PER_DAY

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# trained tower
# ---------------------------------------------------------------------------

@dataclass
class PostTowerConfig:
    channel_dim: int = 24
    fused_dim: int = 32
    image_hidden: int = 32
    out_dim: int = 64
    scale: float = 16.0
    learning_rate: float = 2e-3
    batch_size: int = 64
    epochs: int = 4
    seed: int = 0


def init_post_tower(cfg: PostTowerConfig, n_langs: int, n_countries: int,
                    seed: int) -> dict:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    c, f, h, d = cfg.channel_dim, cfg.fused_dim, cfg.image_hidden, cfg.out_dim
    return {
        "text_w": xavier(rng, c, f),
        "text_b": np.zeros(f),
        "img_w1": xavier(rng, c, h),
        "img_b1": np.zeros(h),
        "img_w2": xavier(rng, h, f),
        "img_b2": np.zeros(f),
        "lang_table": rng.normal(0.0, 0.02, size=(n_langs, f)),
        "country_table": rng.normal(0.0, 0.02, size=(n_countries, f)),
        "fuse_w": xavier(rng, 3 * f, 3),
        "fuse_b": np.zeros(3),
        # Small output weights plus a constant bias direction: at init every
        # post lands near the same unit vector, so first-batch logits are
        # near-uniform and the loss starts at ~ln(B).
        "out_w": 0.05 * xavier(rng, f, d),
        "out_b": np.full(d, 1.0 / math.sqrt(d)),
    }


def _tower_forward(params: dict, text: np.ndarray, images: np.ndarray,
                   img_mask: np.ndarray, lang_idx: np.ndarray,
                   country_idx: np.ndarray):
    """Batched forward. images: (B, I, C) zero-padded, img_mask: (B, I)."""
    b, i, c = images.shape
    phi_text = text @ params["text_w"] + params["text_b"]                     # (B, F)
    per_img, img_cache = ffn_forward(images.reshape(b * i, c), params["img_w1"],
                                     params["img_b1"], params["img_w2"], params["img_b2"])
    per_img = per_img.reshape(b, i, -1)
    counts = img_mask.sum(axis=1)
    denom = np.maximum(counts, 1.0)[:, None]
    phi_img = (per_img * img_mask[:, :, None]).sum(axis=1) / denom           # zero rows when no images
    phi_attr = params["lang_table"][lang_idx] + params["country_table"][country_idx]

    phis = np.stack([phi_text, phi_img, phi_attr], axis=1)                    # (B, 3, F)
    z = phis.reshape(b, -1)
    w = masked_softmax(z @ params["fuse_w"] + params["fuse_b"])               # (B, 3)
    fused = np.einsum("bn,bnf->bf", w, phis)
    out, norm = l2_normalize(fused @ params["out_w"] + params["out_b"])       # (B, D)
    cache = dict(text=text, img_mask=img_mask, lang_idx=lang_idx,
                 country_idx=country_idx, img=img_cache, counts=counts,
                 phis=phis, z=z, w=w, fused=fused, norm=norm, out=out)
    return out, cache


def _tower_backward(params: dict, cache: dict, d_out: np.ndarray, grads: dict) -> None:
    """Accumulate parameter gradients for one branch into `grads`."""
    d_raw = l2_normalize_backward(cache["out"], cache["norm"], d_out)
    grads["out_w"] += cache["fused"].T @ d_raw
    grads["out_b"] += d_raw.sum(axis=0)
    d_fused = d_raw @ params["out_w"].T                                       # (B, F)

    w, phis = cache["w"], cache["phis"]
    dw = np.einsum("bf,bnf->bn", d_fused, phis)
    d_phis = w[:, :, None] * d_fused[:, None, :]
    d_logits = softmax_backward(w, dw)
    grads["fuse_w"] += cache["z"].T @ d_logits
    grads["fuse_b"] += d_logits.sum(axis=0)
    d_phis += (d_logits @ params["fuse_w"].T).reshape(d_phis.shape)

    d_text, d_img, d_attr = d_phis[:, 0], d_phis[:, 1], d_phis[:, 2]
    grads["text_w"] += cache["text"].T @ d_text
    grads["text_b"] += d_text.sum(axis=0)

    b, i = cache["img_mask"].shape
    denom = np.maximum(cache["counts"], 1.0)[:, None]
    d_per_img = (d_img / denom)[:, None, :] * cache["img_mask"][:, :, None]   # (B, I, F)
    _, *d_img_params = ffn_backward(cache["img"], d_per_img.reshape(b * i, -1))
    for name, g in zip(("img_w1", "img_b1", "img_w2", "img_b2"), d_img_params):
        grads[name] += g

    np.add.at(grads["lang_table"], cache["lang_idx"], d_attr)
    np.add.at(grads["country_table"], cache["country_idx"], d_attr)


def _post_features(posts: list, cfg: PostTowerConfig, langs, countries):
    lang_to = {l: i for i, l in enumerate(langs)}
    country_to = {c: i for i, c in enumerate(countries)}
    b = len(posts)
    max_i = max((len(p.image_channels) for p in posts), default=0)
    max_i = max(max_i, 1)
    text = np.zeros((b, cfg.channel_dim))
    images = np.zeros((b, max_i, cfg.channel_dim))
    mask = np.zeros((b, max_i))
    lang_idx = np.zeros(b, dtype=np.int64)
    country_idx = np.zeros(b, dtype=np.int64)
    for r, p in enumerate(posts):
        if p.text_channel is None:
            log.warning("post %d has no text channel; substituting zeros", p.post_id)
        else:
            text[r] = p.text_channel
        for j, img in enumerate(p.image_channels):
            if len(img) != cfg.channel_dim:
                raise ValueError(f"post {p.post_id}: image dim {len(img)} != {cfg.channel_dim}")
            images[r, j] = img
            mask[r, j] = 1.0
        lang_idx[r] = lang_to[p.lang]
        country_idx[r] = country_to[p.country]
    return text, images, mask, lang_idx, country_idx


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------

class PostEncoder:
    """Uniform interface over the oracle and trained embedding providers."""

    def __init__(self, mode: str, dataset_cfg: DatasetConfig,
                 tower_cfg: PostTowerConfig | None = None,
                 params: dict | None = None,
                 oracle_sigma: float = 0.1, oracle_seed: int = 0):
        if mode not in ("oracle", "trained"):
            raise ValueError("mode must be 'oracle' or 'trained'")
        if mode == "trained" and (params is None or tower_cfg is None):
            raise ValueError("trained mode needs tower params and config")
        self.mode = mode
        self.dataset_cfg = dataset_cfg
        self.tower_cfg = tower_cfg
        self.params = params
        self.oracle_sigma = oracle_sigma
        self.oracle_seed = oracle_seed

    @property
    def dim(self) -> int:
        if self.mode == "oracle":
            return self.dataset_cfg.topic_dim
        return self.tower_cfg.out_dim

    def _oracle_vector(self, post: Post) -> np.ndarray:
        ss = np.random.SeedSequence(entropy=self.oracle_seed, spawn_key=(int(post.post_id),))
        noise = np.random.Generator(np.random.PCG64(ss)).standard_normal(post.topic.shape[0])
        v = post.topic + self.oracle_sigma * noise
        return v / np.linalg.norm(v)

    def encode_one(self, post: Post) -> np.ndarray:
        """Unit-norm float32-canonical embedding for a single post."""
        if self.mode == "oracle":
            v = self._oracle_vector(post)
        else:
            feats = _post_features([post], self.tower_cfg,
                                   self.dataset_cfg.languages, self.dataset_cfg.countries)
            v = _tower_forward(self.params, *feats)[0][0]
        return v.astype(np.float32).astype(np.float64)

    def encode_all(self, posts: list, version: int = 1, batch: int = 512) -> EmbeddingSet:
        if self.mode == "oracle":
            vecs = np.stack([self._oracle_vector(p) for p in posts]) if posts else \
                np.zeros((0, self.dim))
        else:
            chunks = []
            for lo in range(0, len(posts), batch):
                feats = _post_features(posts[lo:lo + batch], self.tower_cfg,
                                       self.dataset_cfg.languages, self.dataset_cfg.countries)
                chunks.append(_tower_forward(self.params, *feats)[0])
            vecs = np.concatenate(chunks) if chunks else np.zeros((0, self.dim))
        ids = [p.post_id for p in posts]
        return EmbeddingSet(ids, vecs.astype(np.float32), version=version)


# ---------------------------------------------------------------------------
# training on co-engagement pairs
# ---------------------------------------------------------------------------

def build_coengagement_pairs(events: list, window_days: int = 7,
                             max_pairs_per_user: int = 50) -> list:
    """(post_a, post_b) pairs engaged by the same user within window_days."""
    window = window_days * SECONDS_PER_DAY
    per_user = events_by_user(events)
    pairs = []
    for uid in sorted(per_user):
        stream = per_user[uid]
        made = 0
        for a, b in zip(stream, stream[1:]):
            if b.ts - a.ts <= window and a.post_id != b.post_id:
                pairs.append((a.post_id, b.post_id))
                made += 1
                if made >= max_pairs_per_user:
                    break
    return pairs


def _pair_loss_and_grads(params: dict, cfg: PostTowerConfig,
                         left_feats, right_feats) -> tuple[float, dict]:
    left, lcache = _tower_forward(params, *left_feats)
    right, rcache = _tower_forward(params, *right_feats)
    b = left.shape[0]
    s = cfg.scale
    scores = s * (left @ right.T)                                             # (B, B)
    shifted = scores - scores.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    z = p.sum(axis=1)
    loss = float(np.mean(np.log(z) - shifted[np.arange(b), np.arange(b)]))
    p /= z[:, None]
    d_scores = (p - np.eye(b)) / b
    d_left = s * (d_scores @ right)
    d_right = s * (d_scores.T @ left)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    _tower_backward(params, lcache, d_left, grads)
    _tower_backward(params, rcache, d_right, grads)
    return loss, grads


def train_post_tower(pairs: list, posts: list, dataset_cfg: DatasetConfig,
                     cfg: PostTowerConfig) -> tuple[dict, list]:
    """Optimize the tower on co-engaged pairs; returns (params, loss trajectory)."""
    if len(pairs) < cfg.batch_size:
        raise ValueError(f"need at least one batch of pairs: have {len(pairs)}, "
                         f"batch_size={cfg.batch_size}")
    by_id = {p.post_id: p for p in posts}
    params = init_post_tower(cfg, len(dataset_cfg.languages), len(dataset_cfg.countries),
                             seed=cfg.seed)
    opt = Adam(params, lr=cfg.learning_rate)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed + 1)))
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs) - cfg.batch_size + 1, cfg.batch_size):
            batch = [pairs[i] for i in order[lo:lo + cfg.batch_size]]
            lposts = [by_id[a] for a, _ in batch]
            rposts = [by_id[b] for _, b in batch]
            lf = _post_features(lposts, cfg, dataset_cfg.languages, dataset_cfg.countries)
            rf = _post_features(rposts, cfg, dataset_cfg.languages, dataset_cfg.countries)
            loss, grads = _pair_loss_and_grads(params, cfg, lf, rf)
            if not math.isfinite(loss):
                raise FloatingPointError("post tower loss diverged")
            opt.step(params, grads)
            losses.append(loss)
    return params, losses

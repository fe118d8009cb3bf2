"""Causal-masked transformer user tower over fixed post embeddings.

Input tokens are assembled from pre-trained post vectors plus learned
position / action / surface embeddings and a relative-time feature; a learned
CLS token at position 0 provides the cold-start representation. The stack is
post-norm (residual, then layer norm). All math is float64 with hand-written
backward passes; gradients of every parameter are checked against finite
differences in the test suite.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .actions import ACTION_VOCAB_SIZE, NULL_ACTION_ID
from .blocks import (
    attention_bias,
    causal_mask,
    dropout_backward,
    dropout_forward,
    ffn_backward,
    ffn_forward,
    l2_normalize,
    l2_normalize_backward,
    layer_norm_backward,
    layer_norm_forward,
    masked_softmax,
    mha_backward,
    mha_forward,
    softmax_backward,
    xavier,
)
from . import tensorio
from .configs import EncoderConfig, from_json_dict

__all__ = [
    "init_params", "assemble_batch_inputs",
    "encode_batch", "backward_batch", "encode_sequence", "encode_user_vectors",
    "causal_mask", "save_checkpoint", "load_checkpoint", "quantize_params",
]

# The raw relative-time feature log1p(seconds) sits around 9-14.5 while unit
# embedding coordinates are ~1/sqrt(d); the projection input is prescaled so
# one week maps to 1.0 and gradients through time_w stay balanced.
TIME_LOG_SCALE = math.log1p(7 * 86400.0)

# Rows per block of encode_user_vectors' forward, chosen by measurement on the
# desk config: in an eval loop, 16- to 64-row blocks peaked below the
# one-thread forward's RSS, while half-chunks peaked above it (a second
# thread's malloc arena holds a larger block). 32 rows still split
# batch_hits_eval's 64-sample calls across both threads.
_BLOCK_ROWS = 32


def layer_key(i: int, name: str) -> str:
    return f"layers.{i}.{name}"


def init_params(config: EncoderConfig, seed: int) -> dict:
    """Fresh parameter dict. Weight matrices ~ N(0, 2/(fan_in+fan_out)); tables ~ N(0, 0.02^2)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    d, f = config.d_model, config.d_ff
    params: dict[str, np.ndarray] = {
        "pos_table": rng.normal(0.0, 0.02, size=(config.max_seq_len + 1, d)),
        "action_table": rng.normal(0.0, 0.02, size=(ACTION_VOCAB_SIZE, d)),
        "surface_table": rng.normal(0.0, 0.02, size=(config.n_surfaces + 1, d)),
        "cls": rng.normal(0.0, 0.02, size=d),
        "time_w": xavier(rng, d + 1, d),
        "time_b": np.zeros(d),
    }
    for i in range(config.n_layers):
        params[layer_key(i, "wq")] = xavier(rng, d, d)
        params[layer_key(i, "wk")] = xavier(rng, d, d)
        params[layer_key(i, "wv")] = xavier(rng, d, d)
        params[layer_key(i, "wo")] = xavier(rng, d, d)
        params[layer_key(i, "ffn_w1")] = xavier(rng, d, f)
        params[layer_key(i, "ffn_b1")] = np.zeros(f)
        params[layer_key(i, "ffn_w2")] = xavier(rng, f, d)
        params[layer_key(i, "ffn_b2")] = np.zeros(d)
        params[layer_key(i, "ln1_g")] = np.ones(d)
        params[layer_key(i, "ln1_b")] = np.zeros(d)
        params[layer_key(i, "ln2_g")] = np.ones(d)
        params[layer_key(i, "ln2_b")] = np.zeros(d)
    if config.pooling == "attention":
        params["pool_w"] = rng.normal(0.0, 1.0 / math.sqrt(d), size=d)
    return params


@dataclass(eq=False)
class BatchAssembly:
    """Batched token grid plus everything the backward pass needs to reach the tables."""

    tokens: np.ndarray             # (B, L, d)
    valid: np.ndarray              # (B, L) bool
    lengths: np.ndarray            # (B,) token counts
    is_real: np.ndarray            # (B, L) bool: real post tokens
    is_cls: np.ndarray             # (B, L) bool
    pos_ids: np.ndarray            # (B, L)
    act_ids: np.ndarray            # (B, L)
    surf_ids: np.ndarray           # (B, L)
    tp_in: np.ndarray | None       # (B, L, d+1) inputs of the time projection;
                                   # read only by assembly_backward


def assemble_batch_inputs(samples: list, embeddings, params: dict, config: EncoderConfig,
                   surfaces: dict | None = None) -> BatchAssembly:
    """Build the (B, L, d) input grid for a list of SequenceSamples.

    Histories longer than max_seq_len keep their most recent events. Shorter
    ones are padded on the right in the mask only; pad positions are never
    attended and carry zero vectors.
    """
    surfaces = surfaces or {}
    if surfaces and max(surfaces.values()) >= config.n_surfaces:
        raise ValueError(f"encoder.n_surfaces={config.n_surfaces} is below the world's "
                         f"{len(surfaces)} surfaces {sorted(surfaces, key=surfaces.get)}")
    d = config.d_model
    cls_extra = 1 if config.use_cls else 0
    hists = [s.history[-config.max_seq_len:] for s in samples]
    n_hist = np.array([len(h) for h in hists], dtype=np.int64)
    lengths = n_hist + cls_extra
    if np.any(lengths == 0):
        bad = [samples[i].user_id for i in np.nonzero(lengths == 0)[0]]
        raise ValueError(f"empty history without CLS for users {bad}")
    L = int(lengths.max())
    B = len(samples)

    # (row, column) of every real token in (sample, history position) order
    items = [h for hist in hists for h in hist]
    rows = np.repeat(np.arange(B), n_hist)
    cols = np.arange(len(items)) - np.repeat(np.cumsum(n_hist) - n_hist, n_hist) + cls_extra
    is_real = np.zeros((B, L), dtype=bool)
    is_real[rows, cols] = True
    is_cls = np.zeros((B, L), dtype=bool)
    is_cls[:, 0] = config.use_cls
    pos_ids = np.zeros((B, L), dtype=np.int64)
    pos_ids[rows, cols] = cols
    act_ids = np.full((B, L), NULL_ACTION_ID, dtype=np.int64)
    act_ids[rows, cols] = [int(h.action) for h in items]
    surf_ids = np.full((B, L), config.n_surfaces, dtype=np.int64)
    surf_ids[rows, cols] = [surfaces.get(h.surface, config.n_surfaces) for h in items]
    # inputs of the time projection: the post embedding, then the scaled
    # relative time; pad and CLS cells stay zero
    tp_in = np.zeros((B, L, d + 1))
    tp_in[rows, cols, :d] = embeddings.gather([h.post_id for h in items])
    if config.use_time:
        logs = []
        for sample, hist in zip(samples, hists):
            for h in hist:
                delta = sample.cutoff_time - h.ts
                if delta < 0:
                    raise ValueError(f"user {sample.user_id}: event after cutoff")
                logs.append(math.log1p(float(delta)))    # np.log1p may round differently
        tp_in[rows, cols, d] = np.array(logs) / TIME_LOG_SCALE
    # ((time projection + position) + action) + surface: float addition is not
    # associative, so this order is part of every token's bytes
    tokens = tp_in @ params["time_w"]
    tokens += params["time_b"]
    tokens += params["pos_table"][pos_ids]
    tokens += params["action_table"][act_ids]
    tokens += params["surface_table"][surf_ids]
    tokens[~is_real] = 0.0
    if config.use_cls:
        tokens[:, 0, :] = params["cls"] + params["pos_table"][0]
    valid = is_real | is_cls
    return BatchAssembly(tokens=tokens, valid=valid, lengths=lengths,
                         is_real=is_real, is_cls=is_cls, pos_ids=pos_ids,
                         act_ids=act_ids, surf_ids=surf_ids, tp_in=tp_in)


def assembly_backward(asm: BatchAssembly, d_tokens: np.ndarray, grads: dict) -> None:
    """Scatter token gradients into the embedding tables and the time projection."""
    flat_mask = asm.is_real.reshape(-1)
    d_flat = d_tokens.reshape(-1, d_tokens.shape[-1])[flat_mask]
    tp_flat = asm.tp_in.reshape(-1, asm.tp_in.shape[-1])[flat_mask]
    grads["time_w"] += tp_flat.T @ d_flat
    grads["time_b"] += d_flat.sum(axis=0)
    # np.add.at's bytes without its per-element loop. Positions are unique
    # within a row, so one fancy += per row, in row order, adds in add.at's
    # order. The action and surface grads start at zero and an axis-0 sum
    # adds its rows in order, so one += of that sum per id does too.
    for b in range(asm.is_real.shape[0]):
        real = asm.is_real[b]
        grads["pos_table"][asm.pos_ids[b, real]] += d_tokens[b, real]
    for table, ids in (("action_table", asm.act_ids), ("surface_table", asm.surf_ids)):
        ids = ids.reshape(-1)[flat_mask]
        for k in np.unique(ids):
            grads[table][k] += d_flat[ids == k].sum(axis=0)
    if asm.is_cls.any():
        d_cls = d_tokens[asm.is_cls].sum(axis=0)
        grads["cls"] += d_cls
        grads["pos_table"][0] += d_cls


def encode_batch(asm: BatchAssembly, params: dict, config: EncoderConfig,
                 train: bool = False, rng: np.random.Generator | None = None,
                 cache: bool = True):
    """Run the encoder stack; returns (hidden (B,L,d), user_vec (B,d), cache).

    user_vec is the pooled, L2-normalized sequence representation. Dropout is
    active only when train=True and an rng is supplied. With cache=False
    nothing is kept for backward_batch and the returned cache is None: each
    block's cache and each residual input is dropped as soon as no later step
    reads it, so only live tensors are held. The outputs are the cached
    forward's, bit for bit.
    """
    drop_rng = rng if train else None
    rate = config.dropout if train else 0.0
    x, in_mask = dropout_forward(asm.tokens, rate, drop_rng)
    hidden, layer_caches = _layers(x, asm, params, config, rate, drop_rng, cache)
    pooled, pool_cache = _pool_forward(hidden, asm, params, config)
    user_vec, norms = l2_normalize(pooled)
    if not cache:
        return hidden, user_vec, None
    return hidden, user_vec, dict(asm=asm, in_mask=in_mask, layers=layer_caches,
                                  pool=pool_cache, pooled=pooled, user_vec=user_vec,
                                  norms=norms)


def _layers(x, asm: BatchAssembly, params: dict, config: EncoderConfig, rate: float,
            drop_rng, cache: bool, last_rows: np.ndarray | None = None):
    """The layer stack over x (B, L, d); returns (hidden, layer caches).

    With last_rows (B,) and cache=False the final layer runs its per-position
    steps (attention softmax, residual adds, LayerNorms) only at position
    last_rows[b] of each row b, and hidden is those (B, d) rows. Its matmuls
    keep their full (B, L, .) operands, zero outside the kept rows, so each
    kept row has the full forward's bytes.
    """
    bias = attention_bias(asm.valid, config.causal)
    layer_caches = []
    for i in range(config.n_layers):
        # rows kept after this layer's attention: all, or (b, rows[b])
        rows = last_rows if i == config.n_layers - 1 else None
        at = None if rows is None else (np.arange(len(rows)), rows)
        shape = x.shape
        # without backward, a cache or residual input goes once its last reader has run
        attn_out, attn_cache = mha_forward(
            x, params[layer_key(i, "wq")], params[layer_key(i, "wk")],
            params[layer_key(i, "wv")], params[layer_key(i, "wo")],
            config.n_heads, bias, cache, rows=rows)
        attn_out, m1 = dropout_forward(attn_out, rate, drop_rng)
        attn_out += x if at is None else x[at]      # x + attn_out, bit for bit
        x = None
        h1, ln1_cache = layer_norm_forward(
            attn_out, params[layer_key(i, "ln1_g")], params[layer_key(i, "ln1_b")])
        attn_out = None
        if not cache:
            ln1_cache = None
        if at is None:
            ffn_in = h1
        else:                           # the full-shape FFN input, zero off the kept rows
            ffn_in = np.zeros(shape)
            ffn_in[at] = h1
        ffn_out, ffn_cache = ffn_forward(
            ffn_in, params[layer_key(i, "ffn_w1")], params[layer_key(i, "ffn_b1")],
            params[layer_key(i, "ffn_w2")], params[layer_key(i, "ffn_b2")])
        ffn_in = None
        if not cache:
            ffn_cache = None
        if at is not None:
            ffn_out = ffn_out[at]
        ffn_out, m2 = dropout_forward(ffn_out, rate, drop_rng)
        ffn_out += h1                   # h1 + ffn_out, bit for bit
        h1 = None
        x, ln2_cache = layer_norm_forward(
            ffn_out, params[layer_key(i, "ln2_g")], params[layer_key(i, "ln2_b")])
        ffn_out = None
        if cache:
            layer_caches.append((attn_cache, m1, ln1_cache, ffn_cache, m2, ln2_cache))
        del attn_cache, m1, ln1_cache, ffn_cache, m2, ln2_cache
    return x, layer_caches


def _user_vectors(asm: BatchAssembly, params: dict, config: EncoderConfig) -> np.ndarray:
    """Eval-mode user vectors (B, d) of an assembly: encode_batch(cache=False)'s
    bytes. Last-position pooling reads one final-layer row per sequence, so
    that layer computes only those rows; other poolings run encode_batch."""
    if config.pooling != "last":
        return encode_batch(asm, params, config, cache=False)[1]
    pooled, _ = _layers(asm.tokens, asm, params, config, 0.0, None, False,
                        last_rows=asm.lengths - 1)
    return l2_normalize(pooled)[0]


def _pool_forward(hidden, asm: BatchAssembly, params, config: EncoderConfig):
    validf = asm.valid.astype(np.float64)
    if config.pooling == "last":
        idx = asm.lengths - 1
        pooled = hidden[np.arange(hidden.shape[0]), idx]
        return pooled, dict(kind="last", idx=idx)
    if config.pooling in ("mean", "sum"):
        total = (hidden * validf[:, :, None]).sum(axis=1)
        if config.pooling == "sum":
            return total, dict(kind="sum", validf=validf)
        counts = validf.sum(axis=1, keepdims=True)
        return total / counts, dict(kind="mean", validf=validf, counts=counts)
    # attention pooling over positions
    w = masked_softmax(np.where(asm.valid, hidden @ params["pool_w"], -np.inf))
    pooled = np.einsum("bl,bld->bd", w, hidden)
    return pooled, dict(kind="attention", w=w, hidden=hidden)


def _pool_backward(d_pooled, pc: dict, shape: tuple, params, grads):
    b = shape[0]
    d_hidden = np.zeros(shape)
    if pc["kind"] == "last":
        d_hidden[np.arange(b), pc["idx"]] = d_pooled
    elif pc["kind"] == "sum":
        d_hidden += d_pooled[:, None, :] * pc["validf"][:, :, None]
    elif pc["kind"] == "mean":
        d_hidden += (d_pooled / pc["counts"])[:, None, :] * pc["validf"][:, :, None]
    else:
        w, hidden = pc["w"], pc["hidden"]
        d_w = np.einsum("bd,bld->bl", d_pooled, hidden)
        d_hidden += w[:, :, None] * d_pooled[:, None, :]
        d_scores = softmax_backward(w, d_w)
        grads["pool_w"] += np.einsum("bl,bld->d", d_scores, hidden)
        d_hidden += d_scores[:, :, None] * params["pool_w"][None, None, :]
    return d_hidden


def backward_batch(cache, params: dict, config: EncoderConfig,
                   d_hidden: np.ndarray | None, d_user_vec: np.ndarray | None) -> dict:
    """Chain gradients from (hidden states, normalized user vector) to all parameters."""
    asm: BatchAssembly = cache["asm"]
    b, l = asm.valid.shape
    d = config.d_model
    grads = {k: np.zeros_like(v) for k, v in params.items()}

    dx = np.zeros((b, l, d)) if d_hidden is None else d_hidden.copy()
    if d_user_vec is not None:
        d_pooled = l2_normalize_backward(cache["user_vec"], cache["norms"], d_user_vec)
        dx += _pool_backward(d_pooled, cache["pool"], (b, l, d), params, grads)

    for i in reversed(range(config.n_layers)):
        attn_cache, m1, ln1_cache, ffn_cache, m2, ln2_cache = cache["layers"][i]
        dx, dg2, db2 = layer_norm_backward(ln2_cache, dx)
        grads[layer_key(i, "ln2_g")] += dg2
        grads[layer_key(i, "ln2_b")] += db2
        d_ffn_out = dropout_backward(m2, dx)
        d_h1, dw1, db1_, dw2, db2_ = ffn_backward(ffn_cache, d_ffn_out)
        grads[layer_key(i, "ffn_w1")] += dw1
        grads[layer_key(i, "ffn_b1")] += db1_
        grads[layer_key(i, "ffn_w2")] += dw2
        grads[layer_key(i, "ffn_b2")] += db2_
        dx = dx + d_h1
        dx, dg1, db1 = layer_norm_backward(ln1_cache, dx)
        grads[layer_key(i, "ln1_g")] += dg1
        grads[layer_key(i, "ln1_b")] += db1
        d_attn_out = dropout_backward(m1, dx)
        d_x_attn, dwq, dwk, dwv, dwo = mha_backward(attn_cache, d_attn_out)
        grads[layer_key(i, "wq")] += dwq
        grads[layer_key(i, "wk")] += dwk
        grads[layer_key(i, "wv")] += dwv
        grads[layer_key(i, "wo")] += dwo
        dx = dx + d_x_attn

    d_tokens = dropout_backward(cache["in_mask"], dx)
    assembly_backward(asm, d_tokens, grads)
    return grads


def encode_sequence(sample, embeddings, params: dict, config: EncoderConfig,
                    surfaces: dict | None = None):
    """Encode one sample in eval mode; returns (hidden (L',d), user_vec (d,))."""
    asm = assemble_batch_inputs([sample], embeddings, params, config, surfaces)
    hidden, user_vec, _ = encode_batch(asm, params, config, cache=False)
    L = int(asm.lengths[0])
    return hidden[0, :L], user_vec[0]


def _row_block(asm: BatchAssembly, lo: int, hi: int) -> BatchAssembly:
    """Rows lo:hi of an assembly, as views, without tp_in."""
    rows = {f.name: getattr(asm, f.name)[lo:hi] for f in fields(asm) if f.name != "tp_in"}
    return BatchAssembly(**rows, tp_in=None)


def encode_user_vectors(samples: list, embeddings, params: dict,
                        config: EncoderConfig, surfaces: dict | None = None,
                        chunk: int = 256) -> np.ndarray:
    """Eval-mode user vectors for many samples, batched for throughput.

    Each chunk is assembled whole, which fixes its padded length. Its forward
    then runs in blocks of _BLOCK_ROWS rows: the calling thread takes the
    first half of the blocks and one helper thread, alive only during this
    call, the rest. At a fixed length every eval-mode op is row-independent,
    so the vectors are a whole-chunk forward's, bit for bit. With "last"
    pooling the final layer computes only each row's last position.
    """
    out = np.zeros((len(samples), config.d_model))

    def encode_rows(asm: BatchAssembly, base: int, lo: int, hi: int) -> None:
        for b in range(lo, hi, _BLOCK_ROWS):
            e = min(b + _BLOCK_ROWS, hi)
            out[base + b:base + e] = _user_vectors(_row_block(asm, b, e), params, config)

    with ThreadPoolExecutor(max_workers=1) as helper:
        for lo in range(0, len(samples), chunk):
            part = samples[lo:lo + chunk]
            asm = assemble_batch_inputs(part, embeddings, params, config, surfaces)
            asm.tp_in = None            # no backward will read it
            n_blocks = -(-len(part) // _BLOCK_ROWS)
            mid = min(len(part), (n_blocks + 1) // 2 * _BLOCK_ROWS)
            rest = (helper.submit(encode_rows, asm, lo, mid, len(part))
                    if mid < len(part) else None)
            # should this half raise, leaving the with-block still joins the helper
            encode_rows(asm, lo, 0, mid)
            if rest is not None:
                rest.result()
    return out


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + raw little-endian float32 payload, bit-exact
# ---------------------------------------------------------------------------

def quantize_params(params: dict) -> dict:
    """Round-trip parameters through float32, the checkpoint's storage precision."""
    return tensorio.quantize(params)


def save_checkpoint(path, params: dict, config: EncoderConfig,
                    extra: dict | None = None) -> dict:
    """Write params + config; returns the float32-quantized params actually stored."""
    meta = {"config": asdict(config), "extra": extra or {}}
    return tensorio.save_tensors(path, params, meta)


def load_checkpoint(path) -> tuple[dict, EncoderConfig, dict]:
    params, meta = tensorio.load_tensors(path)
    try:
        config = from_json_dict(EncoderConfig, meta.get("config"))
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint meta: {exc}") from None
    return params, config, meta.get("extra", {})

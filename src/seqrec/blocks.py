"""Forward/backward primitives shared by every model in the package.

The transformer blocks operate on float64 batches shaped (B, L, D); the
softmax, L2-normalize, two-layer MLP and Xavier-init primitives also serve
the averaged-embedding baseline head and the post tower. Each layer forward
returns (output, cache); the matching backward consumes the cache and the
upstream gradient and returns input/parameter gradients. Masking uses additive
-inf biases, so disallowed attention weights are exactly zero and causality
holds bit-for-bit, not approximately.
"""
from __future__ import annotations

import math

import numpy as np

NEG_INF = -np.inf


def causal_mask(L: int) -> np.ndarray:
    """Boolean (L, L) matrix; entry (t, j) is True iff position t may attend to j <= t."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return np.tril(np.ones((L, L), dtype=bool))


def attention_bias(valid: np.ndarray, causal: bool) -> np.ndarray:
    """Additive (B, 1, L, L) bias: 0 where attention is allowed, -inf elsewhere.

    Padding positions are never attended; with causal=True position t also
    cannot see any j > t. Every row keeps at least one allowed entry as long as
    each sequence has at least one valid token at position 0.
    """
    b, l = valid.shape
    allowed = np.broadcast_to(valid[:, None, :], (b, l, l)).copy()
    if causal:
        allowed &= causal_mask(l)[None, :, :]
    bias = np.where(allowed, 0.0, NEG_INF)
    return bias[:, None, :, :]


def xavier(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """(n_in, n_out) weights ~ N(0, 2/(n_in+n_out))."""
    return rng.normal(0.0, math.sqrt(2.0 / (n_in + n_out)), size=(n_in, n_out))


def masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis where -inf rows entries become exact zeros.

    Computed in place: the float64 `scores` is overwritten with the result,
    which is returned. Callers pass a temporary they do not read again.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def softmax_backward(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """Gradient wrt the scores of p = softmax(scores); masked entries (p == 0) get 0."""
    return p * (d_p - np.sum(d_p * p, axis=-1, keepdims=True))


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dk)


def mha_forward(x, wq, wk, wv, wo, n_heads: int, bias, cache: bool = True,
                rows: np.ndarray | None = None):
    """Multi-head attention: softmax(Q K^T / sqrt(d_k) + bias) V, concat, project.

    With cache=False nothing is kept for mha_backward and the cache returned
    is None: q and k go once the scores exist, and v is projected only after
    the softmax, so at most one (B, H, L, L) buffer and two (B, L, d) ones are
    alive beside x. The output bytes are the same either way.

    rows (B,) selects one query position per batch row and needs
    cache=False: the scaling, bias and softmax run only at those positions,
    the other attention weights are zero, and the output is the (B, d) rows
    out[b, rows[b]]. Every matmul keeps its full (B, L, .) shape, so each kept
    row has the full output's bytes.
    """
    if rows is not None and cache:
        raise ValueError("mha_forward: rows needs cache=False")
    d_k = x.shape[-1] // n_heads
    q = _split_heads(x @ wq, n_heads)
    k = _split_heads(x @ wk, n_heads)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    if not cache:
        q = k = None
    if rows is None:
        scores /= math.sqrt(d_k)
        scores += bias
        attn = masked_softmax(scores)
    else:
        at = (np.arange(len(rows)), slice(None), rows)
        picked = scores[at]             # (B, H, L) query rows, a copy
        picked /= math.sqrt(d_k)
        picked += bias[at]
        scores.fill(0.0)
        scores[at] = masked_softmax(picked)
        attn, picked = scores, None
    del scores                      # attn is the same buffer
    v = _split_heads(x @ wv, n_heads)
    ctx = attn @ v
    if not cache:
        attn = v = None
    ctx = _merge_heads(ctx)
    out = ctx @ wo
    if rows is not None:
        return out[np.arange(len(rows)), rows], None
    if not cache:
        return out, None
    return out, dict(x=x, q=q, k=k, v=v, attn=attn, ctx=ctx,
                     wq=wq, wk=wk, wv=wv, wo=wo, n_heads=n_heads, d_k=d_k)


def mha_backward(cache, d_out):
    x, attn = cache["x"], cache["attn"]
    n_heads, d_k = cache["n_heads"], cache["d_k"]
    b, l, d = x.shape

    d_wo = cache["ctx"].reshape(-1, d).T @ d_out.reshape(-1, d)
    d_ctx = _split_heads(d_out @ cache["wo"].T, n_heads)

    d_attn = d_ctx @ cache["v"].transpose(0, 1, 3, 2)
    d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
    d_scores = softmax_backward(attn, d_attn)
    d_scores /= math.sqrt(d_k)
    d_q = d_scores @ cache["k"]
    d_k_ = d_scores.transpose(0, 1, 3, 2) @ cache["q"]

    dq_m, dk_m, dv_m = _merge_heads(d_q), _merge_heads(d_k_), _merge_heads(d_v)
    x_flat = x.reshape(-1, d)
    d_wq = x_flat.T @ dq_m.reshape(-1, d)
    d_wk = x_flat.T @ dk_m.reshape(-1, d)
    d_wv = x_flat.T @ dv_m.reshape(-1, d)
    d_x = dq_m @ cache["wq"].T + dk_m @ cache["wk"].T + dv_m @ cache["wv"].T
    return d_x, d_wq, d_wk, d_wv, d_wo


def ffn_forward(x, w1, b1, w2, b2):
    """Two-layer ReLU MLP over the last axis: max(0, x W1 + b1) W2 + b2.

    The cache keeps only the activation: act > 0 is the mask pre > 0.
    """
    act = x @ w1
    act += b1
    np.maximum(act, 0.0, out=act)
    out = act @ w2
    out += b2
    return out, dict(x=x, act=act, w1=w1, w2=w2)


def ffn_backward(cache, d_out):
    x, act = cache["x"], cache["act"]
    d_in = x.shape[-1]
    d_ff = act.shape[-1]
    d_w2 = act.reshape(-1, d_ff).T @ d_out.reshape(-1, d_out.shape[-1])
    d_b2 = d_out.reshape(-1, d_out.shape[-1]).sum(axis=0)
    d_act = (d_out @ cache["w2"].T) * (act > 0)
    d_w1 = x.reshape(-1, d_in).T @ d_act.reshape(-1, d_ff)
    d_b1 = d_act.reshape(-1, d_ff).sum(axis=0)
    d_x = d_act @ cache["w1"].T
    return d_x, d_w1, d_b1, d_w2, d_b2


LN_EPS = 1e-5


def layer_norm_forward(x, gamma, beta):
    # the centred x serves both var (as np.var computes it: mean of the
    # squares of x - mean) and xhat
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, dict(xhat=xhat, inv=inv, gamma=gamma)


def layer_norm_backward(cache, d_out):
    xhat, inv, gamma = cache["xhat"], cache["inv"], cache["gamma"]
    d = xhat.shape[-1]
    d_gamma = np.sum(d_out * xhat, axis=tuple(range(d_out.ndim - 1)))
    d_beta = np.sum(d_out, axis=tuple(range(d_out.ndim - 1)))
    d_xhat = d_out * gamma
    d_x = inv * (d_xhat
                 - d_xhat.mean(axis=-1, keepdims=True)
                 - xhat * np.mean(d_xhat * xhat, axis=-1, keepdims=True))
    return d_x, d_gamma, d_beta


def dropout_forward(x, rate: float, rng: np.random.Generator | None):
    """Inverted dropout; identity when rate == 0 or rng is None (eval mode)."""
    if rate <= 0.0 or rng is None:
        return x, None
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * keep, keep


def dropout_backward(mask, d_out):
    return d_out if mask is None else d_out * mask


def l2_normalize(v: np.ndarray):
    """Row-normalize (B, D); returns (unit, norms). Zero rows are rejected."""
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise FloatingPointError("cannot L2-normalize a zero vector")
    return v / norms, norms


def l2_normalize_backward(unit, norms, d_unit):
    return (d_unit - unit * np.sum(unit * d_unit, axis=-1, keepdims=True)) / norms

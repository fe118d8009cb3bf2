import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqrec.blocks import (
    LN_EPS, _merge_heads, _split_heads, attention_bias, causal_mask, ffn_backward,
    ffn_forward, layer_norm_forward, masked_softmax, mha_forward,
)


class TestCausalMask:
    def test_length_one(self):
        assert causal_mask(1).tolist() == [[True]]

    def test_length_three_pattern(self):
        m = causal_mask(3)
        assert m.tolist() == [[True, False, False],
                              [True, True, False],
                              [True, True, True]]
        assert int(m.sum()) == 6

    @given(st.integers(min_value=1, max_value=16))
    def test_allowed_count_is_triangular(self, L):
        assert int(causal_mask(L).sum()) == L * (L + 1) // 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            causal_mask(0)


class TestAttentionBias:
    def test_pad_positions_never_attended(self):
        valid = np.array([[True, True, False]])
        bias = attention_bias(valid, causal=False)[0, 0]
        assert np.all(np.isneginf(bias[:, 2]))
        assert np.all(bias[:, :2] == 0.0)

    def test_causal_and_pad_combine(self):
        valid = np.array([[True, True, True, False]])
        bias = attention_bias(valid, causal=True)[0, 0]
        # row 1 may see only columns 0..1
        assert bias[1, 0] == 0.0 and bias[1, 1] == 0.0
        assert np.isneginf(bias[1, 2]) and np.isneginf(bias[1, 3])


def test_masked_softmax_zeroes_minus_inf_exactly():
    scores = np.array([[0.3, -np.inf, 1.2]])
    p = masked_softmax(scores)
    assert p[0, 1] == 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestFFN:
    def test_dead_relu_gives_bias(self):
        w1 = np.eye(3)
        b1 = np.zeros(3)
        w2 = np.full((3, 2), 0.5)
        b2 = np.array([1.5, -2.0])
        x = -np.abs(np.random.default_rng(0).standard_normal((1, 4, 3)))
        out, _ = ffn_forward(x, w1, b1, w2, b2)
        assert np.allclose(out, b2, atol=0)

    def test_identity_case(self):
        x = np.abs(np.random.default_rng(1).standard_normal((2, 3, 4)))
        out, _ = ffn_forward(x, np.eye(4), np.zeros(4), np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(out, x)

    def test_matches_per_row_scalar_loop(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 4))
        w1 = rng.standard_normal((4, 6))
        b1 = rng.standard_normal(6)
        w2 = rng.standard_normal((6, 4))
        b2 = rng.standard_normal(4)
        out, _ = ffn_forward(x, w1, b1, w2, b2)
        for r in range(3):
            hidden = [max(0.0, sum(x[0, r, i] * w1[i, j] for i in range(4)) + b1[j])
                      for j in range(6)]
            row = [sum(hidden[j] * w2[j, k] for j in range(6)) + b2[k] for k in range(4)]
            assert np.max(np.abs(out[0, r] - np.array(row))) < 1e-6

    def test_rows_independent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 5))
        w1, b1 = rng.standard_normal((5, 8)), rng.standard_normal(8)
        w2, b2 = rng.standard_normal((8, 5)), rng.standard_normal(5)
        base, _ = ffn_forward(x, w1, b1, w2, b2)
        x2 = x.copy()
        x2[0, 2] += 1.0
        pert, _ = ffn_forward(x2, w1, b1, w2, b2)
        for r in (0, 1, 3):
            np.testing.assert_array_equal(base[0, r], pert[0, r])
        assert not np.allclose(base[0, 2], pert[0, 2])


class TestMultiHeadAttention:
    def test_single_position_softmax_is_one(self):
        rng = np.random.default_rng(0)
        d = 4
        x = rng.standard_normal((1, 1, d))
        ws = [rng.standard_normal((d, d)) for _ in range(4)]
        bias = attention_bias(np.array([[True]]), causal=True)
        out, cache = mha_forward(x, *ws, n_heads=2, bias=bias)
        assert np.allclose(cache["attn"], 1.0)
        expected = (x @ ws[2]) @ ws[3]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_equal_keys_give_uniform_causal_weights(self):
        d, L = 4, 5
        x = np.tile(np.array([0.3, -1.2, 0.7, 0.1]), (1, L, 1))
        rng = np.random.default_rng(2)
        ws = [rng.standard_normal((d, d)) for _ in range(4)]
        bias = attention_bias(np.ones((1, L), dtype=bool), causal=True)
        _, cache = mha_forward(x, *ws, n_heads=2, bias=bias)
        attn = cache["attn"]
        for t in range(L):
            np.testing.assert_allclose(attn[0, :, t, :t + 1], 1.0 / (t + 1), atol=1e-12)
            assert np.all(attn[0, :, t, t + 1:] == 0.0)

    def test_hand_computed_two_by_two(self):
        # H=1, D=2, L=2 with hand-set weights, verified by scalar arithmetic
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.0, 1.0], [1.0, 0.0]])
        wv = np.array([[1.0, 1.0], [0.0, 1.0]])
        wo = np.array([[2.0, 0.0], [0.0, 1.0]])
        x = np.array([[[1.0, 2.0], [0.5, -1.0]]])
        bias = attention_bias(np.ones((1, 2), dtype=bool), causal=True)
        out, cache = mha_forward(x, wq, wk, wv, wo, n_heads=1, bias=bias)
        # row 0 attends only to itself: head = v0 = [1, 3]
        v0 = np.array([1.0, 1.0 * 1 + 2.0 * 1])
        np.testing.assert_allclose(out[0, 0], v0 @ wo, atol=1e-12)
        # row 1: q1=[0.5,-1], k0=[2,1], k1=[-1,0.5]
        s10 = (0.5 * 2.0 + -1.0 * 1.0) / math.sqrt(2)
        s11 = (0.5 * -1.0 + -1.0 * 0.5) / math.sqrt(2)
        a = math.exp(s10) / (math.exp(s10) + math.exp(s11))
        v1 = np.array([0.5, 0.5 - 1.0])
        head = a * v0 + (1 - a) * v1
        np.testing.assert_allclose(out[0, 1], head @ wo, rtol=1e-12)


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8)) * 3 + 1
    out, _ = layer_norm_forward(x, np.ones(8), np.zeros(8))
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)


# -- the forwards as they were before they ran in place ---------------------

def _masked_softmax_reference(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _mha_forward_reference(x, wq, wk, wv, wo, n_heads, bias):
    d_k = x.shape[-1] // n_heads
    q = _split_heads(x @ wq, n_heads)
    k = _split_heads(x @ wk, n_heads)
    v = _split_heads(x @ wv, n_heads)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(d_k) + bias
    attn = _masked_softmax_reference(scores)
    return _merge_heads(attn @ v) @ wo, attn


def _mha_forward_all_live(x, wq, wk, wv, wo, n_heads, bias):
    """mha_forward as it was when it kept every tensor for backward: v
    projected before the scores, the cache built unconditionally."""
    d_k = x.shape[-1] // n_heads
    q = _split_heads(x @ wq, n_heads)
    k = _split_heads(x @ wk, n_heads)
    v = _split_heads(x @ wv, n_heads)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores /= math.sqrt(d_k)
    scores += bias
    attn = masked_softmax(scores)
    ctx = _merge_heads(attn @ v)
    out = ctx @ wo
    cache = dict(x=x, q=q, k=k, v=v, attn=attn, ctx=ctx,
                 wq=wq, wk=wk, wv=wv, wo=wo, n_heads=n_heads, d_k=d_k)
    return out, cache


def _layer_norm_reference(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, xhat, inv


def _ffn_reference(x, w1, b1, w2, b2, d_out):
    pre = x @ w1 + b1
    act = np.maximum(pre, 0.0)
    d_act = (d_out @ w2.T) * (pre > 0)
    return act @ w2 + b2, d_act @ w1.T


class TestForwardBitEquality:
    """The in-place forwards return the reference forms' exact bytes at the
    train shape (batch 64) and the eval chunk shape (256), over padded rows."""

    D, L = 64, 33

    def _batch(self, b, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        lengths = rng.integers(1, self.L + 1, size=b)
        lengths[0] = self.L
        valid = np.arange(self.L)[None, :] < lengths[:, None]
        x = rng.standard_normal((b, self.L, self.D)) * 2.0 + 0.5
        x[~valid] = 0.0                     # pad tokens are zero vectors
        ws = [rng.standard_normal((self.D, self.D)) / 8 for _ in range(4)]
        return rng, x, valid, ws

    @pytest.mark.parametrize("b", [64, 256])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("heads", [4, 2])      # sqrt(d_k) = 4 is exact, sqrt(32) is not
    def test_mha_forward(self, b, causal, heads):
        _, x, valid, ws = self._batch(b, seed=b)
        bias = attention_bias(valid, causal)
        out, cache = mha_forward(x, *ws, heads, bias)
        ref_out, ref_attn = _mha_forward_reference(x, *ws, heads, bias)
        assert out.tobytes() == ref_out.tobytes()
        assert cache["attn"].tobytes() == ref_attn.tobytes()
        assert np.all(cache["attn"][~np.broadcast_to(valid[:, None, None, :],
                                                     cache["attn"].shape)] == 0.0)

    def test_masked_softmax(self):
        rng = np.random.Generator(np.random.PCG64(3))
        scores = rng.standard_normal((64, 4, 33, 33)) * 30.0
        scores[rng.random(scores.shape) < 0.4] = -np.inf
        scores[..., 0] = rng.standard_normal(scores.shape[:-1])   # one finite entry per row
        ref = _masked_softmax_reference(scores)
        assert masked_softmax(scores.copy()).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("b", [64, 256])
    def test_layer_norm_forward(self, b):
        rng, x, _, _ = self._batch(b, seed=b + 1)
        gamma, beta = rng.standard_normal(self.D), rng.standard_normal(self.D)
        out, cache = layer_norm_forward(x, gamma, beta)
        ref_out, ref_xhat, ref_inv = _layer_norm_reference(x, gamma, beta)
        assert out.tobytes() == ref_out.tobytes()
        assert cache["xhat"].tobytes() == ref_xhat.tobytes()
        assert cache["inv"].tobytes() == ref_inv.tobytes()

    @pytest.mark.parametrize("b", [64, 256])
    def test_ffn_forward_and_relu_mask(self, b):
        rng, x, _, _ = self._batch(b, seed=b + 2)
        w1, w2 = rng.standard_normal((self.D, 128)) / 8, rng.standard_normal((128, self.D)) / 8
        b1, b2 = rng.standard_normal(128), rng.standard_normal(self.D)
        d_out = rng.standard_normal(x.shape)
        out, cache = ffn_forward(x, w1, b1, w2, b2)
        ref_out, ref_dx = _ffn_reference(x, w1, b1, w2, b2, d_out)
        assert out.tobytes() == ref_out.tobytes()
        assert ffn_backward(cache, d_out)[0].tobytes() == ref_dx.tobytes()

    @pytest.mark.parametrize("b", [64, 256])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_mha_forward_without_cache(self, b, causal, heads):
        """cache=False drops q and k after the scores and projects v after the
        softmax: the all-live form's output bytes; the cached call keeps every
        cache entry's bytes."""
        _, x, valid, ws = self._batch(b, seed=b + heads)
        bias = attention_bias(valid, causal)
        ref_out, ref_cache = _mha_forward_all_live(x, *ws, heads, bias)
        out, none = mha_forward(x, *ws, heads, bias, cache=False)
        assert none is None
        assert out.tobytes() == ref_out.tobytes()
        out, cache = mha_forward(x, *ws, heads, bias)
        assert out.tobytes() == ref_out.tobytes()
        assert cache.keys() == ref_cache.keys()
        for name in ("x", "q", "k", "v", "attn", "ctx"):
            assert cache[name].tobytes() == ref_cache[name].tobytes(), name

    @pytest.mark.parametrize("b", [64, 256])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_mha_forward_query_rows(self, b, causal, heads):
        """rows=: one query position per batch row, the full output's rows
        byte for byte, at the last valid position and at a random valid one."""
        rng, x, valid, ws = self._batch(b, seed=b + 10 * heads)
        bias = attention_bias(valid, causal)
        full, _ = mha_forward(x, *ws, heads, bias, cache=False)
        lengths = valid.sum(axis=1)
        for rows in (lengths - 1, rng.integers(0, lengths)):
            out, none = mha_forward(x, *ws, heads, bias, cache=False, rows=rows)
            assert none is None and out.shape == (b, self.D)
            assert out.tobytes() == full[np.arange(b), rows].tobytes()

    def test_mha_forward_query_rows_need_cache_off(self):
        _, x, valid, ws = self._batch(4, seed=1)
        with pytest.raises(ValueError, match="cache=False"):
            mha_forward(x, *ws, 2, attention_bias(valid, True), rows=np.zeros(4, np.int64))

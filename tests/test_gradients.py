"""Analytic gradients vs central finite differences, in double precision.

The micro-model covers every parameter kind: embedding tables, the time
projection, CLS, all attention/FFN/layer-norm weights and attention pooling,
chained through both objectives at 0.5/0.5 weighting.
"""
import numpy as np
import pytest

from seqrec.configs import EncoderConfig, LossConfig
from seqrec.encoder import assemble_batch_inputs, backward_batch, encode_batch, init_params
from seqrec.loss import long_term_loss, short_term_loss, total_loss
from seqrec.optim import clip_by_global_norm, global_norm

from helpers import make_samples, random_embeddings

SURFACES = {"feed": 0, "search": 1}
FD_STEP = 1e-5
MAX_REL_ERR = 1e-4


def loss_and_grads(params, embs, samples, enc_cfg, loss_cfg):
    asm = assemble_batch_inputs(samples, embs, params, enc_cfg, SURFACES)
    hidden, user_vec, cache = encode_batch(asm, params, enc_cfg, train=False)
    short_res, d_hidden = short_term_loss(hidden, samples, embs, loss_cfg,
                                          enc_cfg.max_seq_len, enc_cfg.use_cls, 0)
    long_res, d_user = long_term_loss(user_vec, samples, embs, loss_cfg, 1)
    loss = total_loss(short_res.loss, long_res.loss, loss_cfg)
    grads = backward_batch(cache, params, enc_cfg,
                           d_hidden * loss_cfg.w_short, d_user * loss_cfg.w_long)
    return loss, grads


def relative_errors(params, grads, loss_fn):
    """Central finite differences over every element of every parameter."""
    worst = 0.0
    per_param = {}
    for name in params:
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            lp = loss_fn()
            flat[i] = orig - FD_STEP
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * FD_STEP)
            err = max(err, abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6))
        per_param[name] = err
        worst = max(worst, err)
    return worst, per_param


@pytest.fixture(scope="module")
def micro():
    enc_cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=2, max_seq_len=5,
                            dropout=0.0, pooling="attention", d_ff=16,
                            n_surfaces=2, use_cls=True, causal=True, use_time=True)
    loss_cfg = LossConfig(scale=4.0, w_short=0.5, w_long=0.5, m=3)
    embs = random_embeddings(30, 8, seed=0)
    samples = make_samples(3, (5, 3, 2), 30, seed=1, n_targets=2)
    return enc_cfg, loss_cfg, embs, samples


class TestGradientOracle:
    def test_all_parameters_match_finite_differences(self, micro):
        enc_cfg, loss_cfg, embs, samples = micro
        params = init_params(enc_cfg, seed=3)
        _, grads = loss_and_grads(params, embs, samples, enc_cfg, loss_cfg)
        worst, per_param = relative_errors(
            params, grads,
            lambda: loss_and_grads(params, embs, samples, enc_cfg, loss_cfg)[0])
        assert worst < MAX_REL_ERR, \
            f"worst {worst:.2e}: " + str(sorted(per_param.items(), key=lambda kv: -kv[1])[:3])

    def test_total_gradient_is_weighted_sum(self, micro):
        """grad(total) == w_short * grad(short-only) + w_long * grad(long-only)."""
        enc_cfg, _, embs, samples = micro
        params = init_params(enc_cfg, seed=5)
        both = LossConfig(scale=4.0, w_short=0.5, w_long=0.5, m=3)
        _, g_total = loss_and_grads(params, embs, samples, enc_cfg, both)
        short_only = LossConfig(scale=4.0, w_short=1.0, w_long=0.0, m=3)
        long_only = LossConfig(scale=4.0, w_short=0.0, w_long=1.0, m=3)
        _, g_short = loss_and_grads(params, embs, samples, enc_cfg, short_only)
        _, g_long = loss_and_grads(params, embs, samples, enc_cfg, long_only)
        for k in g_total:
            np.testing.assert_allclose(
                g_total[k], 0.5 * g_short[k] + 0.5 * g_long[k], atol=1e-12)


class TestClipping:
    def test_norm_reduced_to_limit(self):
        grads = {"a": np.full(10, 3.0), "b": np.full(5, -2.0)}
        clipped, pre = clip_by_global_norm(grads, 1.0)
        assert pre > 1.0
        assert abs(global_norm(clipped) - 1.0) < 1e-9

    def test_no_clip_under_limit(self):
        grads = {"a": np.array([0.1, 0.2])}
        clipped, pre = clip_by_global_norm(grads, 10.0)
        assert clipped is grads
        assert abs(pre - np.sqrt(0.05)) < 1e-12

    def test_infinite_limit_disables(self):
        grads = {"a": np.full(100, 9.0)}
        clipped, _ = clip_by_global_norm(grads, float("inf"))
        assert clipped is grads

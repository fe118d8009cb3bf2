import math

import numpy as np
import pytest

from seqrec.configs import EncoderConfig, LossConfig
from seqrec.encoder import assemble_batch_inputs, encode_batch, init_params
from seqrec.loss import (
    _ce_terms, build_pool, long_term_loss, sample_negatives, scaled_cross_entropy,
    short_term_loss, total_loss,
)
from seqrec.samples import HistoryItem, SequenceSample

from helpers import make_samples, random_embeddings, unit_rows

SURFACES = {"feed": 0, "search": 1}


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestScaledCrossEntropy:
    def test_no_negatives_is_exactly_zero(self):
        a = unit([1.0, 2.0, -1.0])
        assert scaled_cross_entropy(a, a, [], s=16.0) == 0.0

    @pytest.mark.parametrize("n", [2, 17, 1024])
    def test_uniform_logits_give_ln_n(self, n):
        # anchor orthogonal to every candidate: all cosines 0, n candidates total
        dim = 4
        a = np.array([1.0, 0.0, 0.0, 0.0])
        cand = unit([0.0, 1.0, 1.0, 1.0])
        loss = scaled_cross_entropy(a, cand, [cand] * (n - 1), s=16.0)
        assert abs(loss - math.log(n)) < 1e-9

    def test_worked_example_s15(self):
        a = np.array([1.0, 0.0])
        pos = np.array([1.0, 0.0])
        neg = np.array([0.0, 1.0])
        loss = scaled_cross_entropy(a, pos, [neg], s=15.0)
        assert abs(loss - math.log1p(math.exp(-15.0))) < 1e-12

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError, match="unit-norm"):
            scaled_cross_entropy([2.0, 0.0], [1.0, 0.0], [], s=1.0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vs = unit_rows(rng.standard_normal((4, 6)))
            loss = scaled_cross_entropy(vs[0], vs[1], [vs[2], vs[3]], s=7.0)
            assert loss >= 0.0

    def test_scale_monotonicity_when_positive_wins(self):
        a = unit([1.0, 0.2, 0.0])
        pos = unit([1.0, 0.1, 0.0])    # strictly highest cosine
        negs = [unit([0.0, 1.0, 0.3]), unit([-0.5, 0.5, 1.0])]
        losses = [scaled_cross_entropy(a, pos, negs, s) for s in (1, 2, 5, 10, 16, 20)]
        assert all(l1 > l2 for l1, l2 in zip(losses, losses[1:]))


@pytest.fixture(scope="module")
def model_setup():
    cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, max_seq_len=6,
                        dropout=0.0, pooling="last", d_ff=16, n_surfaces=2)
    embs = random_embeddings(60, 8, seed=3)
    params = init_params(cfg, seed=2)
    return cfg, embs, params


def _hidden_for(samples, cfg, embs, params):
    asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
    hidden, user_vec, _ = encode_batch(asm, params, cfg, train=False)
    return asm, hidden, user_vec


class TestShortTermLoss:
    def test_single_user_batch_has_zero_loss(self, model_setup, caplog):
        cfg, embs, params = model_setup
        samples = make_samples(1, (4,), 60, seed=1)
        asm, hidden, _ = _hidden_for(samples, cfg, embs, params)
        res, d_hidden = short_term_loss(hidden, samples, embs, LossConfig(),
                                        cfg.max_seq_len, cfg.use_cls)
        assert res.loss == 0.0
        assert np.all(d_hidden == 0.0)

    def test_term_and_negative_counts(self, model_setup):
        # two users, history length 2 -> one prediction each with 2 negatives
        cfg, embs, params = model_setup
        samples = make_samples(2, (2,), 60, seed=2)
        ids = [{h.post_id for h in s.history} for s in samples]
        assert not (ids[0] & ids[1])
        asm, hidden, _ = _hidden_for(samples, cfg, embs, params)
        res, _ = short_term_loss(hidden, samples, embs, LossConfig(),
                                 cfg.max_seq_len, cfg.use_cls)
        assert res.n_terms == 2
        pool = build_pool([[h.post_id for h in s.history] for s in samples], embs)
        assert len(pool) == 4
        assert pool.owners.sum() == 4  # each user owns exactly its two posts

    def test_loss_at_init_near_uniform_logits(self):
        """With scale * cosine spread << 1 the init loss sits at ln(pool + 1)."""
        cfg = EncoderConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=8,
                            dropout=0.0, pooling="last", d_ff=64, n_surfaces=2)
        embs = random_embeddings(400, 64, seed=8)
        params = init_params(cfg, seed=7)
        samples = make_samples(16, (8,), 400, seed=9)
        asm, hidden, _ = _hidden_for(samples, cfg, embs, params)
        lcfg = LossConfig(scale=2.0)
        res, _ = short_term_loss(hidden, samples, embs, lcfg,
                                 cfg.max_seq_len, cfg.use_cls)
        pool = build_pool([[h.post_id for h in s.history] for s in samples], embs)
        own_per_user = pool.owners[0].sum()
        expected = math.log(len(pool) - own_per_user + 1)
        assert abs(res.loss - expected) < 0.2

    def test_exclusion_no_anchor_sees_own_posts(self, model_setup):
        cfg, embs, params = model_setup
        # force an overlap: user B's history includes one of user A's posts
        a = make_samples(1, (3,), 60, seed=4)[0]
        shared = a.history[0].post_id
        b_hist = [HistoryItem(shared, 0, "feed", 50_000),
                  HistoryItem(40, 1, "feed", 50_060),
                  HistoryItem(41, 2, "feed", 50_120)]
        b = SequenceSample(777, b_hist, [42], 51_000, [51_001])
        pool = build_pool([[h.post_id for h in s.history] for s in (a, b)], embs)
        col = pool.ids.tolist().index(shared)
        assert pool.owners[0, col] and pool.owners[1, col]  # excluded for both


class TestLongTermLoss:
    def test_one_user_one_target_zero(self, model_setup):
        cfg, embs, params = model_setup
        samples = make_samples(1, (3,), 60, seed=5, n_targets=1)
        _, _, uv = _hidden_for(samples, cfg, embs, params)
        res, d = long_term_loss(uv, samples, embs, LossConfig(m=1))
        assert res.loss == 0.0

    def test_counting_two_users_two_targets(self, model_setup):
        cfg, embs, params = model_setup
        samples = make_samples(2, (3,), 60, seed=6, n_targets=2)
        assert not (set(samples[0].long_targets) & set(samples[1].long_targets))
        _, _, uv = _hidden_for(samples, cfg, embs, params)
        res, _ = long_term_loss(uv, samples, embs, LossConfig(m=2))
        assert res.n_terms == 4
        pool = build_pool([s.long_targets for s in samples], embs)
        assert len(pool) == 4  # each anchor sees the 2 targets of the other user

    def test_duplicate_target_excluded_for_both(self, model_setup):
        cfg, embs, params = model_setup
        s1 = make_samples(1, (3,), 60, seed=7, n_targets=2)[0]
        h2 = [HistoryItem(50, 0, "feed", 90_000), HistoryItem(51, 0, "feed", 90_060)]
        s2 = SequenceSample(888, h2, [s1.long_targets[0], 55], 91_000, [91_001, 91_002])
        pool = build_pool([s1.long_targets, s2.long_targets], embs)
        col = pool.ids.tolist().index(s1.long_targets[0])
        assert pool.owners[0, col] and pool.owners[1, col]

    def test_gradient_never_touches_embeddings(self, model_setup):
        cfg, embs, params = model_setup
        before = embs.vectors.copy()
        samples = make_samples(3, (3, 2, 4), 60, seed=8)
        _, _, uv = _hidden_for(samples, cfg, embs, params)
        long_term_loss(uv, samples, embs, LossConfig())
        np.testing.assert_array_equal(embs.vectors, before)


def _shared_post_batch():
    """Four users; the last shares a history post and a long target with the first."""
    samples = make_samples(3, (3, 4), 60, seed=11, n_targets=2)
    first = samples[0]
    hist = [HistoryItem(first.history[1].post_id, 0, "feed", 70_000),
            HistoryItem(45, 1, "search", 70_060),
            HistoryItem(46, 2, "feed", 70_120)]
    samples.append(SequenceSample(999, hist, [first.long_targets[0], 47], 71_000,
                                  [71_001, 71_002]))
    return samples


def _reference_mean(anchors_by_row, pos_by_row, owned_by_row, embs, s):
    """Mean of scaled_cross_entropy over anchors, negatives = posts other rows own."""
    pooled = set().union(*owned_by_row)
    terms = []
    for b, (anchors, positives) in enumerate(zip(anchors_by_row, pos_by_row)):
        negatives = [embs.vector(pid) for pid in sorted(pooled - set(owned_by_row[b]))]
        terms += [scaled_cross_entropy(a, embs.vector(pid), negatives, s)
                  for a, pid in zip(anchors, positives)]
    return float(np.mean(terms))


class TestCoreMatchesReference:
    """The batched core equals the scalar reference, shared posts included."""

    def test_short_term(self, model_setup):
        cfg, embs, params = model_setup
        samples = _shared_post_batch()
        asm, hidden, _ = _hidden_for(samples, cfg, embs, params)
        res, _ = short_term_loss(hidden, samples, embs, LossConfig(),
                                 cfg.max_seq_len, cfg.use_cls)
        anchors = [[unit(hidden[b, t + 1]) for t in range(len(s.history) - 1)]
                   for b, s in enumerate(samples)]
        positives = [[h.post_id for h in s.history[1:]] for s in samples]
        owned = [[h.post_id for h in s.history] for s in samples]
        ref = _reference_mean(anchors, positives, owned, embs, LossConfig().scale)
        assert res.n_terms == sum(len(a) for a in anchors)
        assert abs(res.loss - ref) < 1e-12

    def test_long_term(self, model_setup):
        cfg, embs, params = model_setup
        samples = _shared_post_batch()
        _, _, uv = _hidden_for(samples, cfg, embs, params)
        lcfg = LossConfig(m=2)
        res, _ = long_term_loss(uv, samples, embs, lcfg)
        targets = [s.long_targets for s in samples]
        anchors = [[uv[b]] * len(t) for b, t in enumerate(targets)]
        ref = _reference_mean(anchors, targets, targets, embs, lcfg.scale)
        assert res.n_terms == 8
        assert abs(res.loss - ref) < 1e-12


def _ce_terms_reference(anchors, pos_vecs, pool, row_of_anchor, s):
    """The core with a gathered (Na, Np) mask, np.where and a concatenated positive."""
    na = anchors.shape[0]
    pos_logit = s * np.sum(anchors * pos_vecs, axis=1)
    neg_logits = s * (anchors @ pool.vectors.T)
    neg_logits = np.where(pool.owners[row_of_anchor], -np.inf, neg_logits)
    logits = np.concatenate([pos_logit[:, None], neg_logits], axis=1)
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) + m[:, 0] - pos_logit))
    p = e / z
    d_anchor = (p[:, 0:1] - 1.0) * pos_vecs + p[:, 1:] @ pool.vectors
    d_anchor *= s / na
    return loss, d_anchor


class TestCoreBitEquality:
    """The in-place core returns the reference formulation's exact bytes."""

    EMBS = random_embeddings(300, 32, seed=21)

    def _case(self, owned, rows, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        anchors = unit_rows(rng.standard_normal((len(rows), 32)))
        pos_vecs = self.EMBS.gather(rng.integers(300, size=len(rows)))
        return anchors, pos_vecs, build_pool(owned, self.EMBS), np.array(rows, dtype=np.int64)

    def _owned(self, n_rows, per_row, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        return [rng.choice(300, size=per_row, replace=False).tolist() for _ in range(n_rows)]

    def _assert_same_bytes(self, anchors, pos_vecs, pool, rows, s=16.0):
        loss, d_anchor = _ce_terms(anchors, pos_vecs, pool, rows, s)
        ref_loss, ref_d = _ce_terms_reference(anchors, pos_vecs, pool, rows, s)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert d_anchor.shape == ref_d.shape
        assert d_anchor.tobytes() == ref_d.tobytes()
        return loss

    def test_full_pool(self):
        rows = [b for b in range(8) for _ in range(30)]
        self._assert_same_bytes(*self._case(self._owned(8, 31, seed=1), rows))

    def test_sampled_pool(self):
        anchors, pos_vecs, pool, rows = self._case(self._owned(6, 20, seed=2),
                                                   [0, 0, 1, 2, 2, 2, 3, 4, 5, 5])
        self._assert_same_bytes(anchors, pos_vecs, sample_negatives(pool, 40, seed=3), rows)

    def test_row_without_anchors(self):
        self._assert_same_bytes(*self._case(self._owned(4, 10, seed=4), [0, 0, 0, 2, 3, 3]))

    def test_row_owning_every_column(self):
        owned = self._owned(3, 12, seed=5)
        owned[1] = sorted(set().union(*owned))
        anchors, pos_vecs, pool, rows = self._case(owned, [0, 1, 1, 2])
        assert pool.owners[1].all()
        self._assert_same_bytes(anchors, pos_vecs, pool, rows)

    def test_empty_pool(self):
        anchors, pos_vecs, pool, rows = self._case([[], []], [0, 1, 1])
        assert len(pool) == 0
        assert self._assert_same_bytes(anchors, pos_vecs, pool, rows) == 0.0

    def test_rows_must_not_decrease(self):
        anchors, pos_vecs, pool, _ = self._case(self._owned(3, 5, seed=6), [0, 1, 2])
        with pytest.raises(ValueError, match="grouped by batch row"):
            _ce_terms(anchors, pos_vecs, pool, np.array([0, 2, 1]), 16.0)


class TestTotalLoss:
    def test_pure_short(self):
        cfg = LossConfig(w_short=1.0, w_long=0.0)
        assert total_loss(3.5, 99.0, cfg) == 3.5

    def test_even_mix(self):
        assert total_loss(2.0, 4.0, LossConfig()) == 3.0


class TestSampleNegatives:
    def _pool(self, n=4):
        embs = random_embeddings(n, 8, seed=1)
        return build_pool([[i] for i in range(n)], embs)

    def test_k_equals_pool_returns_everything(self):
        pool = self._pool(4)
        out = sample_negatives(pool, 4, seed=0)
        assert set(out.ids.tolist()) == set(pool.ids.tolist())

    def test_k_zero_empty(self):
        pool = self._pool(4)
        out = sample_negatives(pool, 0, seed=0)
        assert len(out) == 0

    def test_k_above_pool_warns_and_returns_all(self, caplog):
        pool = self._pool(3)
        with caplog.at_level("WARNING"):
            out = sample_negatives(pool, 10, seed=0)
        assert len(out) == 3
        assert any("exceeds pool size" in r.message for r in caplog.records)

    def test_uniform_frequency(self):
        pool = self._pool(4)
        counts = {i: 0 for i in range(4)}
        n = 10_000
        for seed in range(n):
            out = sample_negatives(pool, 1, seed=seed)
            counts[int(out.ids[0])] += 1
        for i in range(4):
            assert abs(counts[i] / n - 0.25) < 0.02

    def test_deterministic_per_seed(self):
        pool = self._pool(10)
        a = sample_negatives(pool, 4, seed=5)
        b = sample_negatives(pool, 4, seed=5)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_ownership_preserved(self):
        embs = random_embeddings(6, 8, seed=2)
        pool = build_pool([[0, 1, 2], [3, 4, 5]], embs)
        out = sample_negatives(pool, 3, seed=1)
        for col, pid in enumerate(out.ids.tolist()):
            np.testing.assert_array_equal(out.owners[:, col],
                                          pool.owners[:, pool.ids.tolist().index(pid)])


def test_full_pool_equals_sampled_at_full_k(model_setup):
    cfg, embs, params = model_setup
    samples = make_samples(4, (3, 4), 60, seed=11)
    asm, hidden, uv = _hidden_for(samples, cfg, embs, params)
    full = LossConfig(neg_mode="full_pool")
    pool_size = len(build_pool([[h.post_id for h in s.history] for s in samples], embs))
    sampled = LossConfig(neg_mode="sampled", neg_sample_k=pool_size)
    r1, _ = short_term_loss(hidden, samples, embs, full, cfg.max_seq_len, cfg.use_cls)
    r2, _ = short_term_loss(hidden, samples, embs, sampled, cfg.max_seq_len, cfg.use_cls)
    assert r1.loss == r2.loss

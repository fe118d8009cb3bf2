import dataclasses
import math

import numpy as np
import pytest

from seqrec.configs import VARIANTS, EncoderConfig, LossConfig, TrainConfig
from seqrec.optim import Adam, global_norm
from seqrec.trainer import (
    UserTower, assemble_batch, batch_hits_eval, epoch_batch_order,
    init_baseline_params, train, train_step, variant_settings,
)

from helpers import make_samples, random_embeddings

SURFACES = {"feed": 0, "search": 1}


@pytest.fixture(scope="module")
def tiny_training():
    enc = EncoderConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=6,
                        dropout=0.0, pooling="last", d_ff=32, n_surfaces=2)
    embs = random_embeddings(80, 16, seed=4)
    train_s = make_samples(24, (4, 3, 5), 80, seed=6, n_targets=3)
    eval_s = make_samples(24, (4,), 80, seed=7, n_targets=2)
    return enc, embs, train_s, eval_s


class TestAssembleBatch:
    def test_batch_equals_dataset(self):
        samples = make_samples(8, (3,), 40, seed=0)
        batches = assemble_batch(samples, 8, seed=0)
        assert len(batches) == 1
        assert {s.user_id for s in batches[0]} == {s.user_id for s in samples}

    def test_distinct_users_per_batch(self):
        samples = make_samples(10, (3,), 40, seed=1) * 3  # every user 3 times
        batches = assemble_batch(samples, 5, seed=2)
        for batch in batches:
            users = [s.user_id for s in batch]
            assert len(users) == len(set(users)) == 5

    def test_epochs_same_multiset_different_order(self):
        samples = make_samples(12, (3,), 40, seed=3) * 2
        batches = assemble_batch(samples, 6, seed=5)
        order_a = [tuple(id(b) for b in batches[i])
                   for i in epoch_batch_order(len(batches), 5, 0)]
        order_b = [tuple(id(b) for b in batches[i])
                   for i in epoch_batch_order(len(batches), 5, 1)]
        assert sorted(order_a) == sorted(order_b)  # identical multiset of batches
        assert order_a != order_b                  # different ordering

    def test_too_few_samples_rejected(self):
        samples = make_samples(3, (3,), 40, seed=4)
        with pytest.raises(ValueError, match="need >="):
            assemble_batch(samples, 8, seed=0)

    def test_leftover_dropped_and_logged(self, caplog):
        samples = make_samples(11, (3,), 40, seed=5)
        with caplog.at_level("INFO"):
            batches = assemble_batch(samples, 4, seed=0)
        assert len(batches) == 2
        assert any("dropped" in r.message for r in caplog.records)


class TestVariantSettings:
    def test_ladder_flags(self):
        enc = EncoderConfig()
        loss = LossConfig(m=5)
        e, l, kind = variant_settings("ttt", enc, loss, 0.1)
        assert kind == "transformer" and not e.use_cls and not e.causal and not e.use_time
        assert l.m == 1 and l.w_long == 1.0
        e, l, _ = variant_settings("ttt_cls", enc, loss, 0.1)
        assert e.use_cls and not e.causal
        e, l, _ = variant_settings("ttt_causal", enc, loss, 0.1)
        assert e.causal and l.m == 1
        e, l, _ = variant_settings("ttt_causal_long", enc, loss, 0.1)
        assert l.m == 5 and l.w_short == 0.0
        e, l, _ = variant_settings("ttt_causal_long_short", enc, loss, 0.1)
        assert l.w_short == 0.5
        e, l, _ = variant_settings("full_with_time", enc, loss, 0.1)
        assert e.use_time
        _, _, kind = variant_settings("baseline_avg", enc, loss, 0.1)
        assert kind == "baseline"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            TrainConfig(variant="resnet")

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("dropout", [0.0, 0.35])
    @pytest.mark.parametrize("enc,loss", [
        (EncoderConfig(), LossConfig()),
        (EncoderConfig(use_cls=False, causal=False, pooling="mean"),
         LossConfig(m=3, w_short=0.3, w_long=0.7))])
    def test_table_matches_the_if_chain(self, variant, dropout, enc, loss):
        assert variant_settings(variant, enc, loss, dropout) == \
            _if_chain_variant_settings(variant, enc, loss, dropout)


def _if_chain_variant_settings(variant, enc, loss, dropout):
    """variant_settings as it was before configs.VARIANTS became the ladder table."""
    enc = dataclasses.replace(enc, dropout=dropout)
    if variant == "baseline_avg":
        return enc, dataclasses.replace(loss, w_short=0.0, w_long=1.0, m=1), "baseline"
    flags = {
        "ttt": dict(use_cls=False, causal=False, use_time=False),
        "ttt_cls": dict(use_cls=True, causal=False, use_time=False),
        "ttt_causal": dict(use_cls=True, causal=True, use_time=False),
        "ttt_causal_long": dict(use_cls=True, causal=True, use_time=False),
        "ttt_causal_long_short": dict(use_cls=True, causal=True, use_time=False),
        "full_with_time": dict(use_cls=True, causal=True, use_time=True),
    }[variant]
    enc = dataclasses.replace(enc, **flags)
    if variant in ("ttt", "ttt_cls", "ttt_causal"):
        loss = dataclasses.replace(loss, w_short=0.0, w_long=1.0, m=1)
    elif variant == "ttt_causal_long":
        loss = dataclasses.replace(loss, w_short=0.0, w_long=1.0)
    else:
        loss = dataclasses.replace(loss, w_short=0.5, w_long=0.5)
    return enc, loss, "transformer"


class TestTrainStep:
    def _tower(self, enc, embs, variant="ttt_causal_long_short", seed=0):
        from seqrec.encoder import init_params
        enc2, loss2, kind = variant_settings(variant, enc, LossConfig(m=3), 0.0)
        params = init_params(enc2, seed=seed)
        return UserTower(kind, params, enc2, SURFACES), loss2

    def test_zero_lr_keeps_params(self, tiny_training):
        enc, embs, train_s, _ = tiny_training
        tower, loss_cfg = self._tower(enc, embs)
        tcfg = TrainConfig(batch_size=8, learning_rate=0.0, grad_clip=math.inf,
                           epochs=1, seed=0, variant="ttt_causal_long_short")
        before = {k: v.copy() for k, v in tower.params.items()}
        opt = Adam(tower.params, lr=0.0)
        batch = assemble_batch(train_s, 8, seed=0)[0]
        train_step(tower, opt, batch, embs, tcfg, loss_cfg, 0, 0)
        for k in before:
            np.testing.assert_array_equal(before[k], tower.params[k])

    def test_grad_norm_clipped(self, tiny_training):
        enc, embs, train_s, _ = tiny_training
        tower, loss_cfg = self._tower(enc, embs)
        tcfg = TrainConfig(batch_size=8, learning_rate=1e-3, grad_clip=1.0,
                           epochs=1, seed=0, variant="ttt_causal_long_short")
        opt = Adam(tower.params, lr=1e-3)
        batch = assemble_batch(train_s, 8, seed=0)[0]
        metrics = train_step(tower, opt, batch, embs, tcfg, loss_cfg, 0, 0)
        assert metrics["clipped_norm"] <= tcfg.grad_clip + 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_step_decreases_loss_on_batch(self, tiny_training, seed):
        enc, embs, train_s, _ = tiny_training
        tower, loss_cfg = self._tower(enc, embs, seed=seed)
        tcfg = TrainConfig(batch_size=8, learning_rate=5e-3, epochs=1, seed=seed,
                           variant="ttt_causal_long_short", dropout=0.0)
        opt = Adam(tower.params, lr=tcfg.learning_rate)
        batch = assemble_batch(train_s, 8, seed=seed)[0]

        def eval_loss():
            from seqrec.encoder import assemble_batch_inputs, encode_batch
            from seqrec.loss import long_term_loss, short_term_loss, total_loss
            asm = assemble_batch_inputs(batch, embs, tower.params, tower.enc_cfg, SURFACES)
            hidden, user_vec, _ = encode_batch(asm, tower.params, tower.enc_cfg, train=False)
            s, _ = short_term_loss(hidden, batch, embs, loss_cfg,
                                   tower.enc_cfg.max_seq_len, tower.enc_cfg.use_cls, 0)
            l, _ = long_term_loss(user_vec, batch, embs, loss_cfg, 1)
            return total_loss(s.loss, l.loss, loss_cfg)

        before = eval_loss()
        train_step(tower, opt, batch, embs, tcfg, loss_cfg, 0, 0)
        assert eval_loss() < before

    def test_params_stay_finite(self, tiny_training):
        enc, embs, train_s, _ = tiny_training
        tower, loss_cfg = self._tower(enc, embs)
        tcfg = TrainConfig(batch_size=8, learning_rate=0.05, epochs=1, seed=0,
                           variant="ttt_causal_long_short")
        opt = Adam(tower.params, lr=tcfg.learning_rate)
        for step, batch in enumerate(assemble_batch(train_s, 8, seed=0)):
            train_step(tower, opt, batch, embs, tcfg, loss_cfg, 0, step)
        for v in tower.params.values():
            assert np.all(np.isfinite(v))


class TestTrain:
    def test_epochs_zero_random_level_hits(self, tiny_training):
        enc, embs, train_s, eval_s = tiny_training
        tcfg = TrainConfig(batch_size=8, epochs=0, seed=0, variant="ttt_causal_long")
        tower, report = train(train_s, eval_s, embs, enc, LossConfig(), tcfg, SURFACES)
        assert report.losses == []
        assert report.epoch_hits1 == []
        # untrained model ranks positives at chance: 1/B up to sampling noise
        assert abs(report.final_hits1 - 1 / 8) < 3 * math.sqrt((1 / 8) * (7 / 8) / report.n_eval_queries)

    def test_reproducible_loss_trajectory(self, tiny_training):
        enc, embs, train_s, eval_s = tiny_training
        tcfg = TrainConfig(batch_size=8, epochs=2, seed=3, variant="full_with_time",
                           dropout=0.2, learning_rate=2e-3)
        _, rep1 = train(train_s, eval_s, embs, enc, LossConfig(m=3), tcfg, SURFACES)
        _, rep2 = train(train_s, eval_s, embs, enc, LossConfig(m=3), tcfg, SURFACES)
        assert len(rep1.losses) == len(rep2.losses) > 0
        np.testing.assert_allclose(rep1.losses, rep2.losses, atol=1e-7)
        assert rep1.final_hits1 == rep2.final_hits1

    def test_checkpoint_round_trip_same_eval(self, tiny_training, tmp_path):
        from seqrec.encoder import load_checkpoint
        enc, embs, train_s, eval_s = tiny_training
        tcfg = TrainConfig(batch_size=8, epochs=1, seed=1, variant="ttt_causal_long")
        tower, report = train(train_s, eval_s, embs, enc, LossConfig(m=3), tcfg,
                              SURFACES, checkpoint_path=tmp_path / "m.ckpt")
        params, cfg2, extra = load_checkpoint(tmp_path / "m.ckpt")
        tower2 = UserTower(extra["kind"], params, cfg2, SURFACES)
        h1, h10, n = batch_hits_eval(tower2, eval_s, embs, tcfg.batch_size)
        assert abs(h1 - report.final_hits1) < 1e-7
        assert abs(h10 - report.final_hits10) < 1e-7

    def test_post_embeddings_frozen(self, tiny_training):
        enc, embs, train_s, eval_s = tiny_training
        before = embs.vectors.copy()
        tcfg = TrainConfig(batch_size=8, epochs=1, seed=0, variant="full_with_time")
        train(train_s, eval_s, embs, enc, LossConfig(m=3), tcfg, SURFACES)
        np.testing.assert_array_equal(embs.vectors, before)

    def test_no_batch_formed_raises(self, tiny_training):
        # 12 samples of 6 users cannot fill a batch of 8 distinct users
        enc, embs, _, eval_s = tiny_training
        train_s = make_samples(6, (3,), 80, seed=6) * 2
        tcfg = TrainConfig(batch_size=8, epochs=1, seed=0, variant="ttt_causal_long")
        with pytest.raises(ValueError, match=r"batch_size=8 .* have 6$"):
            train(train_s, eval_s, embs, enc, LossConfig(m=2), tcfg, SURFACES)
        _, report = train(train_s, eval_s, embs, enc, LossConfig(m=2),
                          dataclasses.replace(tcfg, epochs=0), SURFACES)
        assert report.n_batches == 0 and report.losses == []

    def test_baseline_variant_runs(self, tiny_training):
        enc, embs, train_s, eval_s = tiny_training
        tcfg = TrainConfig(batch_size=8, epochs=1, seed=0, variant="baseline_avg")
        tower, report = train(train_s, eval_s, embs, enc, LossConfig(), tcfg, SURFACES)
        assert tower.kind == "baseline"
        assert report.losses
        assert any("baseline_avg" in note for note in report.notes)

    def test_d_model_must_match_embedding_dim(self, tiny_training):
        enc, embs, train_s, eval_s = tiny_training
        bad = dataclasses.replace(enc, d_model=32, n_heads=4)
        with pytest.raises(ValueError, match="d_model"):
            train(train_s, eval_s, embs, bad, LossConfig(),
                  TrainConfig(batch_size=8, epochs=1, variant="ttt"), SURFACES)

import itertools
import math

import numpy as np
import pytest

from seqrec.configs import DatasetConfig
from seqrec.post_encoder import (
    PostEncoder, PostTowerConfig, build_coengagement_pairs, init_post_tower,
    train_post_tower, _pair_loss_and_grads, _post_features, _tower_forward,
)
from seqrec.world import Post, build_world


_SMALL = PostTowerConfig(channel_dim=3, fused_dim=4, image_hidden=5, out_dim=6)


def _small_params(seed=0):
    """Small tower params with non-zero image-MLP biases."""
    params = init_post_tower(_SMALL, n_langs=1, n_countries=1, seed=seed)
    rng = np.random.default_rng(seed)
    params["img_b1"] = rng.standard_normal(params["img_b1"].shape)
    params["img_b2"] = rng.standard_normal(params["img_b2"].shape)
    return params


def _forward(params, image_sets, seed=0):
    """Tower forward cache for one post per image set, random text channels."""
    b = len(image_sets)
    width = max([len(imgs) for imgs in image_sets] + [1])
    images = np.zeros((b, width, _SMALL.channel_dim))
    mask = np.zeros((b, width))
    for r, imgs in enumerate(image_sets):
        for j, x in enumerate(imgs):
            images[r, j] = x
            mask[r, j] = 1.0
    text = np.random.default_rng(seed).standard_normal((b, _SMALL.channel_dim))
    idx = np.zeros(b, dtype=np.int64)
    return _tower_forward(params, text, images, mask, idx, idx)[1]


def _image_fusion(params, imgs):
    return _forward(params, [imgs])["phis"][0, 1]


def _image_mlp(params, x):
    h = np.maximum(x @ params["img_w1"] + params["img_b1"], 0.0)
    return h @ params["img_w2"] + params["img_b2"]


class TestDeepSets:
    """The tower's image fusion: the mean of one shared MLP over a post's images."""

    def test_single_element_is_mlp_output(self):
        params = _small_params()
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(_image_fusion(params, [x]), _image_mlp(params, x),
                                   atol=1e-12)

    def test_empty_set_is_zero(self):
        params = _small_params()
        rng = np.random.default_rng(1)
        # batched next to a post with images, so the empty one is all padding
        cache = _forward(params, [[], [rng.standard_normal(3), rng.standard_normal(3)]])
        assert np.all(cache["phis"][0, 1] == 0.0)

    def test_permutation_invariant_up_to_four(self):
        params = _small_params(1)
        rng = np.random.default_rng(2)
        for n in range(2, 5):
            imgs = [rng.standard_normal(3) for _ in range(n)]
            base = _image_fusion(params, imgs)
            for perm in itertools.permutations(range(n)):
                # the tower sums in input order, so equal up to rounding
                np.testing.assert_allclose(
                    _image_fusion(params, [imgs[i] for i in perm]), base, atol=1e-12)

    def test_duplicate_equals_single(self):
        params = _small_params(3)
        a = np.array([1.0, 2.0, -0.5])
        np.testing.assert_allclose(_image_fusion(params, [a, a]),
                                   _image_fusion(params, [a]), atol=1e-12)

    def test_mean_oracle_direct(self):
        params = _small_params(4)
        rng = np.random.default_rng(5)
        imgs = [rng.standard_normal(3) for _ in range(3)]
        expected = np.mean([_image_mlp(params, x) for x in imgs], axis=0)
        np.testing.assert_allclose(_image_fusion(params, imgs), expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        post = Post(post_id=0, created_at=0, topic=np.ones(2), text_channel=np.zeros(3),
                    image_channels=[np.zeros(3), np.zeros(4)], lang="en", country="us",
                    lifetime_days=1, integrity_violating=False)
        with pytest.raises(ValueError, match="image dim"):
            _post_features([post], _SMALL, ("en",), ("us",))


class TestAttentionFuse:
    """The tower's channel fusion: softmax weights over the text, image and
    attribute vectors, logits = concat(channels) @ fuse_w + fuse_b."""

    @staticmethod
    def _fuse(fuse_b, seed=0):
        params = _small_params(seed)
        params["fuse_w"] = np.zeros_like(params["fuse_w"])
        params["fuse_b"] = np.asarray(fuse_b, dtype=np.float64)
        rng = np.random.default_rng(seed)
        return _forward(params, [[rng.standard_normal(3)]], seed)

    def test_single_channel_weight_one(self):
        cache = self._fuse([0.0, -np.inf, -np.inf])
        assert cache["w"][0].tolist() == [1.0, 0.0, 0.0]
        np.testing.assert_array_equal(cache["fused"][0], cache["phis"][0, 0])

    def test_zero_projection_uniform(self):
        cache = self._fuse([0.0, 0.0, 0.0])
        np.testing.assert_allclose(cache["w"][0], 1.0 / 3, atol=1e-12)
        np.testing.assert_allclose(cache["fused"][0], cache["phis"][0].mean(axis=0),
                                   atol=1e-12)

    def test_ln3_zero_logits_give_three_quarters(self):
        # logits (ln 3, 0, -inf) -> weights (0.75, 0.25, 0)
        cache = self._fuse([math.log(3.0), 0.0, -np.inf])
        np.testing.assert_allclose(cache["w"][0], [0.75, 0.25, 0.0], atol=1e-12)
        phis = cache["phis"][0]
        np.testing.assert_allclose(cache["fused"][0], 0.75 * phis[0] + 0.25 * phis[1],
                                   atol=1e-12)

    def test_weights_form_simplex(self):
        params = _small_params()
        rng = np.random.default_rng(0)
        params["fuse_w"] = rng.standard_normal(params["fuse_w"].shape)
        params["fuse_b"] = rng.standard_normal(3)
        cache = _forward(params, [[rng.standard_normal(3) for _ in range(n)]
                                  for n in range(4)])
        assert np.all(cache["w"] >= 0)
        np.testing.assert_allclose(cache["w"].sum(axis=1), 1.0, atol=1e-12)


@pytest.fixture(scope="module")
def tiny_world():
    # single-interest users with supply headroom: co-engagement pairs are then
    # a clean content-similarity signal
    cfg = DatasetConfig(users=80, posts_per_day=40, days=12, n_topics=8,
                        activity_rate=3.0, max_affinity_components=1,
                        exploration=0.03, calibrate_survival=False)
    return build_world(cfg, seed=21)


class TestOracleMode:
    def test_unit_norm_and_near_topic(self, tiny_world):
        penc = PostEncoder("oracle", tiny_world.config, oracle_sigma=0.1, oracle_seed=21)
        embs = penc.encode_all(tiny_world.posts)
        norms = np.linalg.norm(embs.vectors.astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-5
        p = tiny_world.posts[0]
        cos = float(embs.vector(p.post_id) @ p.topic)
        assert cos > 0.5  # sigma=0.1 noise cannot bury the topic

    def test_deterministic_per_post(self, tiny_world):
        penc = PostEncoder("oracle", tiny_world.config, oracle_seed=21)
        a = penc.encode_one(tiny_world.posts[5])
        b = penc.encode_one(tiny_world.posts[5])
        np.testing.assert_array_equal(a, b)
        batch = penc.encode_all(tiny_world.posts[:10])
        np.testing.assert_array_equal(batch.vector(5), a)

    def test_sigma_zero_is_pure_topic(self, tiny_world):
        penc = PostEncoder("oracle", tiny_world.config, oracle_sigma=0.0)
        p = tiny_world.posts[3]
        np.testing.assert_allclose(penc.encode_one(p),
                                   (p.topic / np.linalg.norm(p.topic)).astype(np.float32),
                                   atol=1e-7)


class TestTrainedMode:
    def test_identical_channels_identical_embeddings(self, tiny_world):
        cfg = PostTowerConfig(channel_dim=tiny_world.config.channel_dim, out_dim=16)
        params = init_post_tower(cfg, len(tiny_world.config.languages),
                                 len(tiny_world.config.countries), seed=0)
        penc = PostEncoder("trained", tiny_world.config, tower_cfg=cfg, params=params)
        import copy
        p = tiny_world.posts[0]
        q = copy.copy(p)
        q.post_id = 999_999
        np.testing.assert_array_equal(penc.encode_one(p), penc.encode_one(q))

    def test_init_loss_near_ln_b(self, tiny_world):
        cfg = PostTowerConfig(channel_dim=tiny_world.config.channel_dim,
                              out_dim=16, batch_size=32)
        params = init_post_tower(cfg, len(tiny_world.config.languages),
                                 len(tiny_world.config.countries), seed=1)
        posts = tiny_world.posts[:64]
        lf = _post_features(posts[:32], cfg, tiny_world.config.languages,
                            tiny_world.config.countries)
        rf = _post_features(posts[32:], cfg, tiny_world.config.languages,
                            tiny_world.config.countries)
        loss, _ = _pair_loss_and_grads(params, cfg, lf, rf)
        assert loss <= math.log(32) + 0.1

    def test_b1_identical_pair_loss_zero(self, tiny_world):
        cfg = PostTowerConfig(channel_dim=tiny_world.config.channel_dim, out_dim=16)
        params = init_post_tower(cfg, len(tiny_world.config.languages),
                                 len(tiny_world.config.countries), seed=2)
        feats = _post_features(tiny_world.posts[:1], cfg, tiny_world.config.languages,
                               tiny_world.config.countries)
        loss, _ = _pair_loss_and_grads(params, cfg, feats, feats)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_too_few_pairs_fails_fast(self, tiny_world):
        cfg = PostTowerConfig(channel_dim=tiny_world.config.channel_dim,
                              batch_size=64)
        with pytest.raises(ValueError, match="at least one batch"):
            train_post_tower([(1, 2)] * 10, tiny_world.posts, tiny_world.config, cfg)

    @pytest.mark.slow
    def test_training_learns_topic_structure(self, tiny_world):
        """Same-topic held-out pairs end up >= 0.2 closer than cross-topic pairs,
        and the loss decreases on 3 seeds."""
        pairs = build_coengagement_pairs(tiny_world.events)
        held_out = [p for p in tiny_world.posts[-200:]]
        for seed in (0, 1, 2):
            cfg = PostTowerConfig(channel_dim=tiny_world.config.channel_dim,
                                  out_dim=16, batch_size=32, epochs=3, seed=seed)
            params, losses = train_post_tower(pairs, tiny_world.posts,
                                              tiny_world.config, cfg)
            assert losses[-1] < losses[0]
            if seed == 0:
                penc = PostEncoder("trained", tiny_world.config, tower_cfg=cfg,
                                   params=params)
                embs = penc.encode_all(held_out)
                vecs = embs.matrix64()
                topic_ids = np.array([p.topic_id for p in held_out])
                sims = vecs @ vecs.T
                same = sims[np.equal.outer(topic_ids, topic_ids) & ~np.eye(len(held_out), dtype=bool)]
                cross = sims[~np.equal.outer(topic_ids, topic_ids)]
                assert same.mean() - cross.mean() >= 0.2


class TestCoengagementPairs:
    def test_pairs_within_window_same_user(self, tiny_world):
        pairs = build_coengagement_pairs(tiny_world.events, window_days=7)
        assert pairs
        per_user = {}
        for e in tiny_world.events:
            per_user.setdefault(e.user_id, []).append(e)
        engaged = {u: {e.post_id for e in evs} for u, evs in per_user.items()}
        for a, b in pairs[:200]:
            assert a != b
            assert any(a in ids and b in ids for ids in engaged.values())

    def test_deterministic(self, tiny_world):
        assert build_coengagement_pairs(tiny_world.events) == \
            build_coengagement_pairs(tiny_world.events)

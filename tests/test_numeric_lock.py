"""Numeric lock: training trajectories pinned bit for bit.

The behaviour lock trains only `full_with_time` with `last` pooling over the
full negative pool. This lock covers the paths it misses: the averaged-
embedding baseline, attention pooling, sampled negatives, `ttt` with sum
pooling, and the post tower. For each run it pins the sha256 of the float64
loss trajectory, the grad-norm trajectory and the final parameters. It also
pins the eval-mode forward: the user vectors `encode_user_vectors` gives for
the lock world's eval samples, in chunks of unlike lengths, and the hidden
states of one `encode_sequence`. A change that must move a value updates the
golden in the same change and says why.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from seqrec import encoder
from seqrec.configs import DatasetConfig, EncoderConfig, LossConfig, TrainConfig
from seqrec.encoder import encode_sequence, encode_user_vectors, init_params
from seqrec.pipeline import prepare
from seqrec.post_encoder import PostTowerConfig, build_coengagement_pairs, train_post_tower
from seqrec.trainer import train

DATASET = DatasetConfig(users=50, posts_per_day=30, days=12, n_topics=8,
                        activity_rate=3.0, calibrate_survival=False)
ENCODER = EncoderConfig(max_seq_len=12)
# every eval history of the lock world fills 12 positions; cut at 40 they run
# 19-40 long, so chunks of 10 pad to three different lengths (38, 40, 36)
FORWARD_ENCODER = EncoderConfig(max_seq_len=40)
FORWARD_CHUNK = 10
SEED = 7

RUNS = {
    "baseline_avg": (dict(variant="baseline_avg"), {}, {}),
    "attention_pool": (dict(variant="full_with_time"), dict(pooling="attention"), {}),
    "sampled_negatives": (dict(variant="full_with_time"), {},
                          dict(neg_mode="sampled", neg_sample_k=24)),
    "ttt_sum_pool": (dict(variant="ttt"), dict(pooling="sum"), {}),
}

GOLDEN = {
    "attention_pool": {
        "losses": "6f3bee708e10111a4a4653fa3cbd3983c380d739d78c3d0c4656fef0e7b15a7c",
        "grad_norms": "9ff73dae3d15ba7be6bd476d061f48b42141f3a3ccede48d2bd06c256d5906b3",
        "params": "659f3576de713245286309b27ad6b3baae77ffdc9630846b7edf04ab1a821f52"},
    "baseline_avg": {
        "losses": "58973eba2d3df2cbf1313357940348219663790b9e97a861522aee0751738c77",
        "grad_norms": "72005802184f83c22e5e8b6aa9c1f29c03d6aa73273f48cc53a2101c7eed449c",
        "params": "3461d72c9b534cf253c7792a04488af3a3ab32e7e7c304968488aafe6c25cc55"},
    "sampled_negatives": {
        "losses": "f6afcd1964905c4c270e5d1478f7d7a77eb3dfc8420e13d94b72273fb1d733bd",
        "grad_norms": "681e63dab818d9dafeff4fdc91a0cd062f4b6d9d342d559062ff5588f36b1858",
        "params": "8e1ff7b6aefe4e3dc42779f69556a75bd874aa2c748d8075f6fee1bb59820d8b"},
    "ttt_sum_pool": {
        "losses": "b7b937c71382e1472a720daf870c9f61701252ac837e3e30a4ab9303d97c80b7",
        "grad_norms": "590c2119c41652a502d1b162d963e094059b7f016bc0bddd6f69d4cecc48f330",
        "params": "6ccb8716caf54bad1e82f7bc725a08eb2ff9925d7e329024e160caa7951c229c"},
}

GOLDEN_POST_TOWER = {
    "losses": "1c15d51abb14876c374d2e51935830288d999ab33c16faa5542e6be1c96daafa",
    "params": "8f988b1fd1591922acc66cd0286a10cead584b0b120fe03bf13c740143818f8d",
}

GOLDEN_FORWARD = {
    "user_vectors": "a0a11ee7a76626b4b497fde9dbd16f028ab85936190e44f84b963114f3b08e93",
    "sequence_hidden": "20fd54110e1cea278855677bdc18d7f3bc47c4fe8b3e38f3808090cc23460321",
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def world():
    return prepare(DATASET, seed=SEED, enc_cfg=ENCODER, eval_holdout_days=2, m=3)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_training_trajectory_identical(world, run):
    train_kw, enc_kw, loss_kw = RUNS[run]
    tcfg = TrainConfig(batch_size=16, epochs=2, learning_rate=2e-3, seed=SEED, **train_kw)
    tower, report = train(world.train, world.eval, world.embeddings,
                          dataclasses.replace(ENCODER, **enc_kw),
                          LossConfig(m=3, **loss_kw), tcfg, world.surfaces)
    got = {"losses": _digest(report.losses), "grad_norms": _digest(report.grad_norms),
           "params": _params_digest(tower.params)}
    assert got == GOLDEN[run]


def test_post_tower_trajectory_identical(world):
    cfg = PostTowerConfig(channel_dim=DATASET.channel_dim, epochs=2, seed=SEED)
    params, losses = train_post_tower(build_coengagement_pairs(world.events),
                                      world.posts, DATASET, cfg)
    got = {"losses": _digest(losses), "params": _params_digest(params)}
    assert got == GOLDEN_POST_TOWER


@pytest.fixture(scope="module")
def forward_world():
    return prepare(DATASET, seed=SEED, enc_cfg=FORWARD_ENCODER, eval_holdout_days=2, m=3)


def test_eval_forward_identical(forward_world, monkeypatch):
    samples = forward_world.eval
    lengths = [len(s.history) for s in samples]
    chunk_max = {max(lengths[lo:lo + FORWARD_CHUNK])
                 for lo in range(0, len(lengths), FORWARD_CHUNK)}
    assert len(chunk_max) >= 3, chunk_max
    params = init_params(FORWARD_ENCODER, seed=SEED)
    args = (samples, forward_world.embeddings, params, FORWARD_ENCODER, forward_world.surfaces)
    vecs = encode_user_vectors(*args, chunk=FORWARD_CHUNK)
    # 4-row blocks split each chunk across the caller and the helper thread
    monkeypatch.setattr(encoder, "_BLOCK_ROWS", 4)
    assert encode_user_vectors(*args, chunk=FORWARD_CHUNK).tobytes() == vecs.tobytes()
    hidden, _ = encode_sequence(samples[2], forward_world.embeddings, params,
                                FORWARD_ENCODER, forward_world.surfaces)
    got = {"user_vectors": _digest(vecs), "sequence_hidden": _digest(hidden)}
    assert got == GOLDEN_FORWARD

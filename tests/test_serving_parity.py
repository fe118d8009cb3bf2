"""Serving equals offline, as a property over tiny random worlds.

Each world runs every holdout day through `ServingSim` as serve-sim does:
bootstrap the posts, refresh the users, then retrieve for every user. Each
user refreshed that day must hold the float32 cast of the offline
`encode_user_vectors` over `samples.history_before` of their stream on
unflagged posts, bit for bit. A refresh picks exactly the users with an event
since the previous day's cutoff and a non-empty history, and leaves every
other served vector as it was. Each retrieve must rank as
`metrics.top_k_columns` over the posts alive that day, and a user with no
served vector is cold.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqrec.configs import DatasetConfig, EncoderConfig
from seqrec.encoder import encode_user_vectors, init_params
from seqrec.metrics import top_k_columns
from seqrec.pipeline import prepare
from seqrec.samples import SequenceSample, events_by_user, history_before
from seqrec.serving import ColdUserError, ServingSim
from seqrec.world import SECONDS_PER_DAY

SURFACES = ("feed", "groups_tab", "search")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(users=st.integers(2, 10), posts_per_day=st.integers(2, 8),
       days=st.integers(4, 8), n_surfaces=st.integers(1, 3),
       integrity_rate=st.floats(0.0, 0.4), cold=st.floats(0.0, 0.5),
       survival_week1=st.floats(0.02, 0.5), holdout_days=st.integers(1, 3),
       max_seq_len=st.integers(1, 6), k=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_serving_equals_offline_on_every_holdout_day(
        users, posts_per_day, days, n_surfaces, integrity_rate, cold,
        survival_week1, holdout_days, max_seq_len, k, seed):
    cfg = DatasetConfig(
        users=users, posts_per_day=posts_per_day, days=days, n_topics=3,
        topic_dim=8, activity_rate=3.0, surfaces=SURFACES[:n_surfaces],
        integrity_rate=integrity_rate, cold_user_frac=cold, cold_start_window=2,
        survival_week1=survival_week1, survival_week2=survival_week1 / 2,
        calibrate_survival=False)
    enc_cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16,
                            max_seq_len=max_seq_len, dropout=0.0,
                            n_surfaces=n_surfaces)
    # Keep the flagged posts' events, so serving has to drop them itself.
    data = prepare(cfg, seed, enc_cfg, eval_holdout_days=holdout_days,
                   drop_integrity=False, min_interactions=0)
    assume(data.events)
    params = init_params(enc_cfg, seed=seed % 1000)
    sim = ServingSim(posts=data.posts, params=params, enc_cfg=enc_cfg,
                     post_encoder=data.post_encoder, surfaces=data.surfaces)
    flagged = {p.post_id for p in data.posts if p.integrity_violating}
    streams = events_by_user([e for e in data.events if e.post_id not in flagged])
    user_ids = sorted(u.user_id for u in data.users)

    since = None
    before = {}
    for day in data.holdout_days:
        cutoff = day * SECONDS_PER_DAY
        sim.bootstrap_posts(day)
        n = sim.refresh_users(data.events, day)
        snap = sim.user_store.snapshot()[1]

        fresh = sorted({e.user_id for e in data.events
                        if e.ts < cutoff and (since is None or e.ts >= since)})
        samples = [SequenceSample(u, history_before(streams.get(u, []), cutoff,
                                                    max_seq_len), [], cutoff)
                   for u in fresh]
        samples = [s for s in samples if s.history]
        assert n == len(samples)
        assert sorted(u for u, entry in snap.items() if entry.updated_at == day) == \
            [s.user_id for s in samples]
        if samples:
            want = encode_user_vectors(samples, data.embeddings, params, enc_cfg,
                                       data.surfaces).astype(np.float32)
            for s, vec in zip(samples, want):
                assert snap[s.user_id].vector.tobytes() == vec.tobytes()
        refreshed = {s.user_id for s in samples}
        for uid, entry in before.items():
            if uid not in refreshed:
                assert snap[uid] is entry

        alive = sorted(p.post_id for p in data.posts
                       if p.alive_on(day) and not p.integrity_violating)
        ids = np.array(alive, dtype=np.int64)
        mat = data.embeddings.gather(alive)
        for uid in user_ids:
            if uid not in snap:
                with pytest.raises(ColdUserError):
                    sim.retrieve(uid, k)
                continue
            res = sim.retrieve(uid, k)
            if not alive:
                assert res.ranked == []
                continue
            scores = mat @ snap[uid].vector.astype(np.float64)
            top = top_k_columns(scores[None, :], ids, k)[0]
            assert [pid for pid, _ in res.ranked] == ids[top].tolist()
            np.testing.assert_allclose([sc for _, sc in res.ranked], scores[top],
                                       rtol=0, atol=1e-12)
        since, before = cutoff, snap

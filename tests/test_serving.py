import dataclasses
import logging
import threading

import numpy as np
import pytest

import seqrec.serving as serving
from seqrec.actions import ActionType
from seqrec.configs import DatasetConfig, EncoderConfig
from seqrec.embeddings import EmbeddingSet
from seqrec.encoder import init_params
from seqrec.metrics import knn_top_ids
from seqrec.post_encoder import PostEncoder
from seqrec.samples import SequenceSample, events_by_user, history_before
from seqrec.serving import ColdUserError, EmbeddingStore, IntegrityRejectedError, ServingSim
from seqrec.world import SECONDS_PER_DAY, InteractionEvent, build_world


@pytest.fixture(scope="module")
def sim_world():
    cfg = DatasetConfig(users=60, posts_per_day=40, days=12, n_topics=8,
                        activity_rate=3.0, calibrate_survival=False)
    bundle = build_world(cfg, seed=31)
    enc_cfg = EncoderConfig(d_model=cfg.topic_dim, n_heads=4, n_layers=1,
                            max_seq_len=8, dropout=0.0, pooling="last",
                            n_surfaces=len(cfg.surfaces))
    penc = PostEncoder("oracle", cfg, oracle_seed=31)
    params = init_params(enc_cfg, seed=1)
    return bundle, enc_cfg, penc, params


def make_sim(sim_world):
    bundle, enc_cfg, penc, params = sim_world
    surfaces = {s: i for i, s in enumerate(bundle.config.surfaces)}
    return ServingSim(posts=bundle.posts, params=params, enc_cfg=enc_cfg,
                      post_encoder=penc, surfaces=surfaces), bundle


class TestEmbeddingStore:
    def test_version_increments_and_latest_served(self):
        store = EmbeddingStore()
        v1 = store.stage_upsert(7, np.ones(4), updated_at=0)
        store.commit()
        v2 = store.stage_upsert(7, 2 * np.ones(4), updated_at=1)
        store.commit()
        assert (v1, v2) == (1, 2)
        entry = store.get(7)
        assert entry.version == 2
        np.testing.assert_array_equal(entry.vector, np.full(4, 2.0, dtype=np.float32))

    def test_staged_writes_invisible_until_commit(self):
        store = EmbeddingStore()
        store.stage_upsert(1, np.ones(2), updated_at=0)
        assert store.get(1) is None
        store.commit()
        assert store.get(1) is not None

    def test_commit_swaps_whole_batch_atomically(self):
        store = EmbeddingStore()
        for i in range(5):
            store.stage_upsert(i, np.full(2, float(i)), updated_at=0)
        snap_before = store.snapshot()
        store.commit()
        assert len(snap_before[1]) == 0
        assert len(store.snapshot()[1]) == 5

    def test_vector_bytes_round_trip(self):
        store = EmbeddingStore()
        vec = np.array([0.1, -0.7, 0.3], dtype=np.float32)
        store.stage_upsert(5, vec, updated_at=0)
        store.commit()
        assert store.get(5).vector.tobytes() == vec.tobytes()

    def test_snapshot_isolation_under_concurrency(self):
        """10^4 mixed ops: readers never observe a torn (vector, version) pair."""
        store = EmbeddingStore()
        keys = list(range(8))
        for k in keys:
            store.stage_upsert(k, np.zeros(16), updated_at=0)
        store.commit()
        stop = threading.Event()
        errors = []

        def reader():
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            while not stop.is_set():
                snap_id, data = store.snapshot()
                for k in keys:
                    entry = data[k]
                    vals = set(entry.vector.tolist())
                    if len(vals) != 1 or vals != {float(entry.version - 1)}:
                        errors.append((snap_id, k, entry.version, vals))
                        return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        ops = 0
        version = 1
        while ops < 10_000:
            for k in keys:
                store.stage_upsert(k, np.full(16, float(version)), updated_at=version)
                ops += 1
            store.commit()
            version += 1
        stop.set()
        for t in threads:
            t.join()
        assert errors == []


class TestUpsertPost:
    def test_create_then_update_version_two(self, sim_world):
        sim, bundle = make_sim(sim_world)
        post = next(p for p in bundle.posts if not p.integrity_violating)
        assert sim.upsert_post(post) == 1
        assert sim.upsert_post(post) == 2
        sim.post_store.commit()
        assert sim.post_store.get(post.post_id).version == 2

    def test_integrity_flagged_rejected(self, sim_world):
        sim, bundle = make_sim(sim_world)
        flagged = next(p for p in bundle.posts if p.integrity_violating)
        with pytest.raises(IntegrityRejectedError):
            sim.upsert_post(flagged)
        sim.post_store.commit()
        assert sim.post_store.get(flagged.post_id) is None

    def test_upserted_bytes_round_trip(self, sim_world):
        sim, bundle = make_sim(sim_world)
        post = next(p for p in bundle.posts if not p.integrity_violating)
        sim.upsert_post(post)
        sim.post_store.commit()
        expected = sim.post_encoder.encode_one(post).astype(np.float32)
        assert sim.post_store.get(post.post_id).vector.tobytes() == expected.tobytes()


class TestRefreshUsers:
    def test_no_new_events_zero_refreshed(self, sim_world):
        sim, bundle = make_sim(sim_world)
        sim.bootstrap_posts(day=8)
        assert sim.refresh_users(bundle.events, day=8) > 0
        assert sim.refresh_users(bundle.events, day=8) == 0  # nothing fresh now

    def test_only_active_users_refreshed(self, sim_world):
        sim, bundle = make_sim(sim_world)
        sim.bootstrap_posts(day=8)
        sim.refresh_users(bundle.events, day=8)
        uid = bundle.events[0].user_id
        fresh = [e for e in bundle.events if e.user_id == uid and
                 8 * SECONDS_PER_DAY <= e.ts < 9 * SECONDS_PER_DAY]
        assert fresh, "fixture user should have day-8 events"
        count = sim.refresh_users(bundle.events, day=9)
        active = {e.user_id for e in bundle.events
                  if 8 * SECONDS_PER_DAY <= e.ts < 9 * SECONDS_PER_DAY}
        # only users with events since the last refresh are recomputed
        assert count == len({u for u in active if any(
            e.user_id == u and e.ts < 9 * SECONDS_PER_DAY for e in bundle.events)})

    def test_refresh_matches_offline_encoding(self, sim_world):
        from seqrec.encoder import encode_sequence
        from seqrec.samples import HistoryItem, SequenceSample
        sim, bundle = make_sim(sim_world)
        sim.bootstrap_posts(day=10)
        sim.refresh_users(bundle.events, day=10)
        by_id = {p.post_id: p for p in bundle.posts}
        cutoff = 10 * SECONDS_PER_DAY
        per_user = {}
        for e in bundle.events:
            if e.ts < cutoff:
                per_user.setdefault(e.user_id, []).append(e)
        uid, stream = next((u, s) for u, s in sorted(per_user.items()) if len(s) >= 4)
        hist = [HistoryItem(e.post_id, int(e.action), e.surface, e.ts)
                for e in stream if not by_id[e.post_id].integrity_violating]
        hist = hist[-sim.enc_cfg.max_seq_len:]
        sample = SequenceSample(uid, hist, [], cutoff)
        penc = sim.post_encoder
        from seqrec.embeddings import EmbeddingSet
        embs = penc.encode_all([p for p in bundle.posts if not p.integrity_violating])
        _, offline_vec = encode_sequence(sample, embs, sim.params, sim.enc_cfg, sim.surfaces)
        served = sim.user_store.get(uid).vector.astype(np.float64)
        assert np.max(np.abs(served - offline_vec)) < 1e-7

    NEW_USER = 10**6
    FLAGGED_POST = 10**6
    MISSING_POST = 10**6 + 1

    def _refresh_one_user(self, sim_world, monkeypatch, post_ids):
        """Refresh on day 8 for a user engaging post_ids an hour apart from
        day 2 on; returns (sim, the events, the histories sent to the encoder)."""
        bundle, enc_cfg, penc, params = sim_world
        flagged = dataclasses.replace(bundle.posts[0], post_id=self.FLAGGED_POST,
                                      integrity_violating=True)
        sim = ServingSim(posts=bundle.posts + [flagged], params=params, enc_cfg=enc_cfg,
                         post_encoder=penc,
                         surfaces={s: i for i, s in enumerate(bundle.config.surfaces)})
        sim.bootstrap_posts(day=8)
        events = [InteractionEvent(self.NEW_USER, pid, ActionType.LIKE, "feed",
                                   2 * SECONDS_PER_DAY + 3600 * i)
                  for i, pid in enumerate(post_ids)]
        sent = []
        encode = serving.encode_user_vectors

        def spy(samples, *args, **kwargs):
            sent.extend(s.history for s in samples)
            return encode(samples, *args, **kwargs)

        monkeypatch.setattr(serving, "encode_user_vectors", spy)
        sim.refresh_users(events, day=8)
        return sim, events, sent

    def _served_ids(self, sim_world, n):
        bundle = sim_world[0]
        return [p.post_id for p in bundle.posts
                if p.created_at <= 8 and not p.integrity_violating][:n]

    def test_history_is_offline_cut_of_unflagged_stream(self, sim_world, monkeypatch):
        L = sim_world[1].max_seq_len
        served = self._served_ids(sim_world, 2 * L)
        # more than L of the last 2L events are on a flagged post
        sim, events, sent = self._refresh_one_user(
            sim_world, monkeypatch, served + [self.FLAGGED_POST] * (L + 1))
        kept = [e for e in events if e.post_id != self.FLAGGED_POST]
        assert sent == [history_before(kept, 8 * SECONDS_PER_DAY, L)]
        assert [h.post_id for h in sent[0]] == served[-L:]
        assert sim.user_store.get(self.NEW_USER) is not None

    def test_missing_post_older_than_history_is_ignored(self, sim_world, monkeypatch):
        L = sim_world[1].max_seq_len
        served = self._served_ids(sim_world, L)
        sim, _, sent = self._refresh_one_user(
            sim_world, monkeypatch, [self.MISSING_POST] + served)
        assert [[h.post_id for h in hist] for hist in sent] == [served]
        assert sim.user_store.get(self.NEW_USER) is not None

    def test_missing_post_in_history_skips_user(self, sim_world, monkeypatch, caplog):
        L = sim_world[1].max_seq_len
        served = self._served_ids(sim_world, L)
        with caplog.at_level(logging.WARNING, logger="seqrec.serving"):
            sim, _, sent = self._refresh_one_user(
                sim_world, monkeypatch, served[1:] + [self.MISSING_POST])
        assert sent == []
        assert sim.user_store.get(self.NEW_USER) is None
        assert (f"user {self.NEW_USER} history references post {self.MISSING_POST} "
                "with no served embedding; skipping user") in caplog.text


class TestRetrieve:
    def _ready_sim(self, sim_world, day=10):
        sim, bundle = make_sim(sim_world)
        sim.bootstrap_posts(day=day)
        sim.refresh_users(bundle.events, day=day)
        return sim, bundle

    def test_unknown_user_cold_error(self, sim_world):
        sim, _ = self._ready_sim(sim_world)
        with pytest.raises(ColdUserError):
            sim.retrieve(999_999, 5)

    def test_k_nonpositive_rejected(self, sim_world):
        sim, bundle = self._ready_sim(sim_world)
        uid = bundle.events[0].user_id
        with pytest.raises(ValueError):
            sim.retrieve(uid, 0)

    def test_threshold_above_one_filters_everything(self, sim_world):
        sim, bundle = self._ready_sim(sim_world)
        uid = bundle.events[0].user_id
        res = sim.retrieve(uid, 5, threshold=1.0 + 1e-6)
        assert res.ranked == []
        assert res.filtered_count == 5

    def test_scores_non_increasing_and_above_threshold(self, sim_world):
        sim, bundle = self._ready_sim(sim_world)
        uid = bundle.events[0].user_id
        res = sim.retrieve(uid, 10, threshold=0.0)
        scores = [s for _, s in res.ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert all(s >= 0.0 for s in scores)

    def test_matches_offline_knn_oracle(self, sim_world):
        sim, bundle = self._ready_sim(sim_world)
        alive = [p for p in bundle.posts
                 if p.alive_on(10) and not p.integrity_violating]
        ids = np.array([p.post_id for p in alive], dtype=np.int64)
        vecs = np.stack([sim.post_store.get(p.post_id).vector.astype(np.float64)
                         for p in alive])
        users = sorted({e.user_id for e in bundle.events})[:40]
        for uid in users:
            if sim.user_store.get(uid) is None:
                continue
            res = sim.retrieve(uid, 10, threshold=-1.0)
            uvec = sim.user_store.get(uid).vector.astype(np.float64)
            oracle = knn_top_ids(uvec, ids, vecs, 10)
            assert [pid for pid, _ in res.ranked] == oracle.tolist()

    def test_query_log_schema(self, sim_world, tmp_path):
        import json
        sim, bundle = self._ready_sim(sim_world)
        uid = bundle.events[0].user_id
        sim.retrieve(uid, 3, threshold=-1.0)
        sim.write_query_log(tmp_path / "q.jsonl")
        rec = json.loads((tmp_path / "q.jsonl").read_text().splitlines()[0])
        assert set(rec) == {"user_id", "K", "threshold", "returned", "scores", "ts"}

    def test_single_alive_post_threshold_boundary(self, sim_world):
        sim, bundle = make_sim(sim_world)
        post = next(p for p in bundle.posts
                    if p.created_at == 0 and not p.integrity_violating)
        sim.upsert_post(post)
        sim.post_store.commit()
        sim.current_day = post.created_at
        sim.user_store.stage_upsert(1, post.topic / np.linalg.norm(post.topic), 0)
        sim.user_store.commit()
        sim.current_day = post.created_at
        res = sim.retrieve(1, 5, threshold=-1.0)
        alive_now = [p for p in [post]]
        assert len(res.ranked) == 1
        score = res.ranked[0][1]
        assert sim.retrieve(1, 5, threshold=score).ranked != []
        assert sim.retrieve(1, 5, threshold=score + 1e-9).ranked == []


def _full_restage_bootstrap_posts(sim, day):
    """Reference form of `ServingSim.bootstrap_posts`: re-encodes and re-stages
    every non-flagged post created up to `day` on every call."""
    n = 0
    for p in sim.posts:
        if p.created_at <= day and not p.integrity_violating:
            sim.upsert_post(p)
            n += 1
    sim.post_store.commit()
    sim.current_day = day
    return n


def _regrouping_refresh_users(sim, events, day):
    """Reference form of `ServingSim.refresh_users`: regroups and re-sorts every
    event before the cutoff on every call."""
    cutoff_ts = day * SECONDS_PER_DAY
    post_snap = sim.post_store.snapshot()[1]
    per_user = events_by_user([e for e in events if e.ts < cutoff_ts])
    refreshed = 0
    batch_samples, batch_uids = [], []
    for uid in sorted(per_user):
        stream = per_user[uid]
        if stream[-1].ts <= sim._last_refresh_ts.get(uid, -1):
            continue
        hist = history_before([e for e in stream if e.post_id not in sim._flagged],
                              cutoff_ts, sim.enc_cfg.max_seq_len)
        if not hist or any(h.post_id not in post_snap for h in hist):
            continue
        batch_samples.append(SequenceSample(uid, hist, [], cutoff_ts))
        batch_uids.append(uid)
    if batch_samples:
        ids = sorted({h.post_id for s in batch_samples for h in s.history})
        embs = EmbeddingSet(ids, [post_snap[pid].vector for pid in ids], check_norm=False)
        vecs = serving.encode_user_vectors(batch_samples, embs, sim.params,
                                           sim.enc_cfg, sim.surfaces)
        for uid, vec in zip(batch_uids, vecs):
            sim.user_store.stage_upsert(uid, vec, day)
            sim._last_refresh_ts[uid] = cutoff_ts - 1
            refreshed += 1
    sim.user_store.commit()
    sim.current_day = day
    return refreshed


class TestIncrementalDayBitEquality:
    """The incremental serving day against the full-restage bootstrap and the
    regrouping refresh, run side by side: same return values, snapshot ids,
    store bytes and rankings on every day of every schedule."""

    NEW_USER = 10**6
    MISSING_POST = 10**6

    def _extra_events(self, sim_world, day):
        """A new user's events on `day`, over posts served by then."""
        posts = [p for p in sim_world[0].posts
                 if p.created_at < day and not p.integrity_violating][-3:]
        return [InteractionEvent(self.NEW_USER, p.post_id, ActionType.LIKE, "feed",
                                 day * SECONDS_PER_DAY + 60 * i)
                for i, p in enumerate(posts)]

    def _run(self, sim_world, schedule):
        new, _ = make_sim(sim_world)
        ref, _ = make_sim(sim_world)
        for day, events in schedule:
            assert new.bootstrap_posts(day) == _full_restage_bootstrap_posts(ref, day)
            assert new.refresh_users(events, day) == _regrouping_refresh_users(ref, events, day)
            for a, b in ((new.post_store, ref.post_store), (new.user_store, ref.user_store)):
                assert a.snapshot_id == b.snapshot_id
                assert list(a.snapshot()[1]) == list(b.snapshot()[1])   # retrieve walks this order
                assert _vector_bytes(a) == _vector_bytes(b)
            assert _stamps(new.user_store) == _stamps(ref.user_store)
            assert {version for version, _ in _stamps(new.post_store).values()} == {1}
            for uid in sorted(new.user_store.snapshot()[1]):
                assert new.retrieve(uid, 20).ranked == ref.retrieve(uid, 20).ranked
        assert new.query_log == ref.query_log
        return new

    def test_consecutive_days(self, sim_world):
        events = sim_world[0].events
        sim = self._run(sim_world, [(day, events) for day in range(2, 12)])
        assert len(sim.post_store) > 200

    def test_same_day_twice(self, sim_world):
        events = sim_world[0].events
        self._run(sim_world, [(8, events), (8, events), (9, events), (9, events)])

    def test_days_out_of_order(self, sim_world):
        events = sim_world[0].events
        self._run(sim_world, [(9, events), (8, events), (10, events)])

    def test_earlier_day_after_a_skipped_refresh(self, sim_world):
        # the new user is served on day 8, skipped on day 10 for a post with
        # no served embedding, and has nothing fresh before day 9's cutoff
        events = sim_world[0].events + self._extra_events(sim_world, 7) + [
            InteractionEvent(self.NEW_USER, self.MISSING_POST, ActionType.LIKE, "feed",
                             9 * SECONDS_PER_DAY)]
        sim = self._run(sim_world, [(8, events), (10, events), (9, events)])
        assert sim.user_store.get(self.NEW_USER).updated_at == 8

    def test_new_event_list_mid_run(self, sim_world):
        events = sim_world[0].events
        extra = self._extra_events(sim_world, 8)
        same_length = events[:-len(extra)] + extra
        sim = self._run(sim_world, [(7, events), (8, events), (9, same_length),
                                    (10, same_length), (11, events)])
        assert sim.user_store.get(self.NEW_USER).updated_at == 9

    def test_log_grown_in_place(self, sim_world):
        log = list(sim_world[0].events)

        def schedule():
            yield 7, log
            yield 8, log
            log.extend(self._extra_events(sim_world, 7))    # late arrivals before day 8
            yield 9, log

        sim = self._run(sim_world, schedule())
        assert sim.user_store.get(self.NEW_USER).updated_at == 9

    def test_log_cut_in_place(self, sim_world):
        extra = self._extra_events(sim_world, 8)
        log = list(sim_world[0].events) + extra

        def schedule():
            yield 8, log
            del log[-len(extra):]    # the new user's day-8 events leave the log
            yield 9, log
            yield 10, log

        sim = self._run(sim_world, schedule())
        assert sim.user_store.get(self.NEW_USER) is None


def _vector_bytes(store):
    return {key: entry.vector.tobytes() for key, entry in store.snapshot()[1].items()}


def _stamps(store):
    return {key: (entry.version, entry.updated_at) for key, entry in store.snapshot()[1].items()}

import math

import numpy as np
import pytest

from seqrec.actions import ActionType, BACKFILL_ACTION_ID
from seqrec.configs import BackfillPolicy, DatasetConfig
from seqrec.coldstart import (
    PopularityIndex, backfill_history, popular_backfill, similar_user_backfill,
    user_user_similarity,
)
from seqrec.samples import HistoryItem
from seqrec.world import InteractionEvent, UserProfile, build_world


def ev(uid, pid, ts=0):
    return InteractionEvent(uid, pid, ActionType.LIKE, "feed", ts)


def profile(uid, lang="en", country="us"):
    return UserProfile(user_id=uid, lang=lang, country=country,
                       affinity_vectors=np.eye(1, 4), affinity_weights=np.ones(1),
                       activity_rate=1.0, drift_rate=0.0)


class TestUserSimilarity:
    def test_identical_sets_similarity_one(self):
        events = [ev(1, 10), ev(1, 11), ev(2, 10), ev(2, 11)]
        sim = user_user_similarity(events)
        assert sim.similarity(1, 2) == pytest.approx(1.0)
        assert sim.similarity(1, 1) == pytest.approx(1.0)

    def test_disjoint_sets_zero(self):
        events = [ev(1, 10), ev(2, 20)]
        sim = user_user_similarity(events)
        assert sim.similarity(1, 2) == 0.0

    def test_symmetric(self):
        events = [ev(1, 10), ev(1, 11), ev(2, 11), ev(2, 12), ev(3, 12)]
        sim = user_user_similarity(events)
        assert sim.similarity(1, 2) == pytest.approx(sim.similarity(2, 1))

    def test_no_events_undefined(self):
        sim = user_user_similarity([ev(1, 10)])
        with pytest.raises(KeyError):
            sim.similarity(1, 99)

    def test_five_user_hand_oracle(self):
        """TF-IDF cosine recomputed by hand for a 5-user toy world."""
        engagement = {1: [10, 11], 2: [10, 11], 3: [11, 12], 4: [13], 5: [10, 13]}
        events = [ev(u, p) for u, posts in engagement.items() for p in posts]
        sim = user_user_similarity(events)

        df = {10: 3, 11: 3, 12: 1, 13: 2}
        idf = {p: math.log((1 + 5) / (1 + d)) + 1 for p, d in df.items()}
        def vec(u):
            return {p: idf[p] for p in engagement[u]}
        def cos(u, v):
            a, b = vec(u), vec(v)
            dot = sum(w * b[p] for p, w in a.items() if p in b)
            na = math.sqrt(sum(w * w for w in a.values()))
            nb = math.sqrt(sum(w * w for w in b.values()))
            return dot / (na * nb)
        for u in engagement:
            for v in engagement:
                assert abs(sim.similarity(u, v) - cos(u, v)) < 1e-6

    def test_top_neighbor_unique_argmax(self):
        events = [ev(1, 10), ev(2, 10), ev(2, 11), ev(3, 99)]
        sim = user_user_similarity(events)
        assert sim.top_neighbor(1) == 2

    def test_top_neighbor_none_when_disjoint(self):
        events = [ev(1, 10), ev(2, 20)]
        sim = user_user_similarity(events)
        assert sim.top_neighbor(1) is None


def _index(events, posts_meta):
    class P:  # minimal post stub
        def __init__(self, pid, lang, country, integ=False):
            self.post_id, self.lang, self.country = pid, lang, country
            self.integrity_violating = integ
    posts = [P(*meta) for meta in posts_meta]
    return PopularityIndex(events, posts)


class TestPopularBackfill:
    def test_noop_at_or_above_threshold(self):
        events = [ev(5, 100 + i) for i in range(4)]
        pop = _index(events, [(100 + i, "en", "us") for i in range(4)])
        policy = BackfillPolicy(mode="popular", marginal_threshold=3, fill_to=5)
        hist = [HistoryItem(1, 0, "feed", 10 + i) for i in range(3)]
        assert popular_backfill(profile(1), hist, pop, policy, before_ts=10) == []

    def test_supply_limited_cold_user(self):
        events = [ev(5, 100), ev(6, 100), ev(5, 101)]
        pop = _index(events, [(100, "en", "us"), (101, "en", "us"), (102, "de", "de")])
        policy = BackfillPolicy(mode="popular", marginal_threshold=3, fill_to=5)
        items = popular_backfill(profile(1), [], pop, policy, before_ts=99_999)
        assert [h.post_id for h in items] == [100, 101]
        assert all(h.action == BACKFILL_ACTION_ID for h in items)

    def test_attribute_match_when_available(self):
        events = ([ev(5, 200)] * 5 + [ev(6, 201)] * 3 + [ev(7, 202)] * 4)
        pop = _index(events, [(200, "de", "de"), (201, "en", "us"), (202, "en", "us")])
        policy = BackfillPolicy(mode="popular", marginal_threshold=2, fill_to=2)
        items = popular_backfill(profile(1, "en", "us"), [], pop, policy, 99_999)
        assert {h.post_id for h in items} == {201, 202}

    def test_global_fallback_when_no_match(self, caplog):
        events = [ev(5, 200)] * 3
        pop = _index(events, [(200, "de", "de")])
        policy = BackfillPolicy(mode="popular", marginal_threshold=2, fill_to=2)
        with caplog.at_level("INFO"):
            items = popular_backfill(profile(1, "en", "us"), [], pop, policy, 99_999)
        assert [h.post_id for h in items] == [200]
        assert any("global popularity" in r.message for r in caplog.records)

    def test_timestamps_strictly_before_real_events(self):
        events = [ev(5, 100 + i) for i in range(6)]
        pop = _index(events, [(100 + i, "en", "us") for i in range(6)])
        policy = BackfillPolicy(mode="popular", marginal_threshold=3, fill_to=5)
        real = [HistoryItem(300, 0, "feed", 500_000)]
        full = backfill_history(profile(1), real, policy, events, None, pop,
                                cutoff_ts=600_000)
        ts = [h.ts for h in full]
        assert ts == sorted(ts)
        assert full[-1].post_id == 300  # real event stays most recent
        assert all(h.ts < 500_000 for h in full[:-1])


class TestSimilarUserBackfill:
    def _setup(self):
        # user 1 shares post 10 with heavy user 2; user 3 is unrelated
        events = [ev(1, 10, ts=100)]
        events += [ev(2, pid, ts=200 + pid) for pid in (10, 11, 12, 13)]
        events += [ev(3, 99, ts=50)]
        sim = user_user_similarity(events)
        pop = _index(events, [(pid, "en", "us") for pid in (10, 11, 12, 13, 99)])
        return events, sim, pop

    def test_backfill_from_top_neighbor(self):
        events, sim, pop = self._setup()
        policy = BackfillPolicy(mode="similar_user", marginal_threshold=3, fill_to=4)
        real = [HistoryItem(10, 0, "feed", 100)]
        items = similar_user_backfill(profile(1), real, events, sim, pop, policy,
                                      before_ts=100)
        got = [h.post_id for h in items]
        assert set(got) <= {11, 12, 13}       # neighbor's posts, minus shared 10
        assert len(got) == 3

    def test_backfill_disjoint_from_real_history(self):
        events, sim, pop = self._setup()
        policy = BackfillPolicy(mode="similar_user", marginal_threshold=3, fill_to=4)
        real = [HistoryItem(10, 0, "feed", 100)]
        items = similar_user_backfill(profile(1), real, events, sim, pop, policy, 100)
        assert not ({h.post_id for h in items} & {h.post_id for h in real})

    def test_no_overlap_falls_back_to_popular(self, caplog):
        events, sim, pop = self._setup()
        policy = BackfillPolicy(mode="similar_user", marginal_threshold=3, fill_to=2)
        real = [HistoryItem(99, 0, "feed", 60)]  # only shares with nobody relevant
        with caplog.at_level("INFO"):
            items = similar_user_backfill(profile(3), real, events, sim, pop, policy, 60)
        # user 3 engaged 99 only; no other user shares it -> popular fallback
        assert any("falling back to popular" in r.message for r in caplog.records)
        assert items

    def test_cold_user_falls_back_to_popular(self):
        events, sim, pop = self._setup()
        policy = BackfillPolicy(mode="similar_user", marginal_threshold=3, fill_to=2)
        items = similar_user_backfill(profile(42), [], events, sim, pop, policy, 777)
        assert items  # popular path produced something


class TestBackfillHistory:
    def test_mode_none_identity(self):
        real = [HistoryItem(1, 0, "feed", 10)]
        out = backfill_history(profile(1), real, BackfillPolicy(mode="none"),
                               [], None, None, cutoff_ts=100)
        assert out == real

    def test_real_events_keep_most_recent_positions(self):
        events = [ev(5, 100 + i) for i in range(8)]
        pop = _index(events, [(100 + i, "en", "us") for i in range(8)])
        policy = BackfillPolicy(mode="popular", marginal_threshold=3, fill_to=6)
        real = [HistoryItem(300, 0, "feed", 900_000), HistoryItem(301, 0, "feed", 900_060)]
        out = backfill_history(profile(1), real, policy, events, None, pop, 1_000_000)
        assert [h.post_id for h in out[-2:]] == [300, 301]
        assert all(h.action == BACKFILL_ACTION_ID for h in out[:-2])
        assert len(out) == 6

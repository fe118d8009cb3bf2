"""Synthetic world generator: determinism, invariants, calibration targets."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqrec.actions import ActionType
from seqrec.configs import DatasetConfig
from seqrec.dataio import (
    read_events_jsonl, read_posts_jsonl, write_events_jsonl, write_posts_jsonl,
)
from seqrec.post_encoder import PostEncoder
from seqrec.samples import (
    build_samples, events_by_user, filter_events, history_before,
)
from seqrec.world import (
    SECONDS_PER_DAY, InteractionEvent, build_world, generate_world, measure_week_survival,
)


@pytest.fixture(scope="module")
def small_bundle():
    cfg = DatasetConfig(users=60, posts_per_day=40, days=14, drift_rate=0.02,
                        calibrate_survival=False)
    return build_world(cfg, seed=5)


class TestConfigValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            DatasetConfig(users=0)
        with pytest.raises(ValueError):
            DatasetConfig(posts_per_day=-1)
        with pytest.raises(ValueError):
            DatasetConfig(days=0)

    def test_rejects_bad_survival_fractions(self):
        with pytest.raises(ValueError):
            DatasetConfig(survival_week1=1.2, survival_week2=0.1)
        with pytest.raises(ValueError):
            DatasetConfig(survival_week1=0.2, survival_week2=0.2)  # non-decreasing
        with pytest.raises(ValueError):
            DatasetConfig(survival_week1=0.1, survival_week2=0.2)

    @pytest.mark.parametrize("field, value", [
        ("timespent_rate", -0.5), ("timespent_rate", float("nan")),
        ("timespent_rate", float("inf")), ("action_signal_sharpness", float("nan")),
        ("action_signal_pivot", float("-inf")), ("surfaces", ()),
        ("surfaces", ("feed", "groups_tab", "search", "watch")),
    ])
    def test_rejects_bad_action_and_surface_shares(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatasetConfig(**{field: value})


class TestDeterminism:
    def test_same_config_seed_identical_streams(self):
        cfg = DatasetConfig(users=25, posts_per_day=20, days=10,
                            calibrate_survival=False)
        p1, u1, e1 = generate_world(cfg, seed=9)
        p2, u2, e2 = generate_world(cfg, seed=9)
        assert e1 == e2
        assert [(p.post_id, p.lifetime_days, p.lang) for p in p1] == \
               [(p.post_id, p.lifetime_days, p.lang) for p in p2]
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a.topic, b.topic)

    def test_different_seed_differs(self):
        cfg = DatasetConfig(users=25, posts_per_day=20, days=10,
                            calibrate_survival=False)
        _, _, e1 = generate_world(cfg, seed=1)
        _, _, e2 = generate_world(cfg, seed=2)
        assert e1 != e2

    def test_jsonl_round_trip_byte_identical(self, tmp_path, small_bundle):
        write_events_jsonl(tmp_path / "e1.jsonl", small_bundle.events)
        events = read_events_jsonl(tmp_path / "e1.jsonl")
        write_events_jsonl(tmp_path / "e2.jsonl", events)
        assert (tmp_path / "e1.jsonl").read_bytes() == (tmp_path / "e2.jsonl").read_bytes()
        write_posts_jsonl(tmp_path / "p1.jsonl", small_bundle.posts)
        posts = read_posts_jsonl(tmp_path / "p1.jsonl")
        write_posts_jsonl(tmp_path / "p2.jsonl", posts)
        assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()


class TestJsonlReaders:
    @pytest.mark.parametrize("kind, bad_line, message", [
        ("events", b'{"action": "like", "post_id": 3, "surf', "Unterminated string"),
        ("events", b'{"action": "like", "post_id": 3, "surface": "feed", "user_id": 1}',
         "missing field 'ts'"),
        ("events", b'{"action": "wave", "post_id": 3, "surface": "feed", "ts": 5, "user_id": 1}',
         "unknown action type: 'wave'"),
        ("events", b'{"action": "like", "post_id": 3, "surface": "feed", "ts": 5.5, "user_id": 1}',
         "ts must be an integer, got 5.5"),
        ("events", b'{"action": "like", "post_id": 3, "surface": "feed", "ts": "5", "user_id": 1}',
         "ts must be an integer, got '5'"),
        ("events", b'[1, 2]', "list indices must be integers"),
        ("events", b'{"action": 5, "post_id": 3, "surface": "feed", "ts": 5, "user_id": 1}',
         "action must be a string, got 5"),
        ("events", b'{"action": "like", "post_id": 3, "surface": 0, "ts": 5, "user_id": 1}',
         "surface must be a string, got 0"),
        ("posts", b'{"post_id": 3, "created_at": 0, "lifetime_days": 2, "topic": [0.1, ',
         "Expecting value"),
        ("posts", b'{"post_id": 3, "created_at": 0, "lifetime_days": 2}', "missing field"),
        ("posts", b'{"post_id": 3, "created_at": 0.5}', "created_at must be an integer"),
        ("posts", b'{"post_id": \xff3}', "can't decode byte 0xff"),
    ])
    def test_corrupt_line_names_file_and_line(self, tmp_path, small_bundle, kind,
                                              bad_line, message):
        writer, reader, records = {
            "events": (write_events_jsonl, read_events_jsonl, small_bundle.events),
            "posts": (write_posts_jsonl, read_posts_jsonl, small_bundle.posts),
        }[kind]
        path = tmp_path / f"{kind}.jsonl"
        writer(path, records[:2])
        # A blank third line is skipped but still counted; the bad line ends
        # the file, as a truncated write would.
        path.write_bytes(path.read_bytes() + b"\n" + bad_line)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: ") + ".*"
                           + re.escape(message)):
            reader(path)


class TestWorldInvariants:
    def test_zero_rate_user_produces_nothing(self):
        cfg = DatasetConfig(users=1, posts_per_day=5, days=5, activity_rate=0.0,
                            calibrate_survival=False)
        _, _, events = generate_world(cfg, seed=0)
        assert events == []

    def test_topics_unit_norm(self, small_bundle):
        for p in small_bundle.posts:
            assert abs(np.linalg.norm(p.topic) - 1.0) < 1e-6

    def test_affinity_weights_simplex(self, small_bundle):
        for u in small_bundle.users:
            assert np.all(u.affinity_weights >= 0)
            assert abs(u.affinity_weights.sum() - 1.0) < 1e-6

    def test_events_inside_eligibility_window(self, small_bundle):
        by_id = {p.post_id: p for p in small_bundle.posts}
        for e in small_bundle.events:
            p = by_id[e.post_id]
            assert p.created_at <= e.day < p.created_at + p.lifetime_days

    def test_timestamps_strictly_increasing_per_user(self, small_bundle):
        per_user = {}
        for e in small_bundle.events:
            per_user.setdefault(e.user_id, []).append(e.ts)
        for ts in per_user.values():
            assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_lifetime_at_least_one(self, small_bundle):
        assert min(p.lifetime_days for p in small_bundle.posts) >= 1

    def test_events_order_normalized(self, small_bundle):
        keys = [(e.user_id, e.ts) for e in small_bundle.events]
        assert keys == sorted(keys)


@pytest.mark.slow
class TestVolatilityCalibration:
    def test_survival_hits_targets_within_tolerance(self):
        cfg = DatasetConfig(users=350, posts_per_day=250, days=31)
        posts, _, events = generate_world(cfg, seed=13)
        assert len(posts) >= 5000
        s1, s2 = measure_week_survival(posts, events)
        assert abs(s1 - cfg.survival_week1) <= 0.03
        assert abs(s2 - cfg.survival_week2) <= 0.03


class TestFilterEvents:
    def test_below_threshold_removed(self, small_bundle):
        events = small_bundle.events
        out = filter_events(events, min_interactions=2)
        counts = {}
        for e in events:
            counts[e.post_id] = counts.get(e.post_id, 0) + 1
        assert all(counts[e.post_id] >= 2 for e in out)

    def test_identity_when_disabled(self, small_bundle):
        out = filter_events(small_bundle.events, min_interactions=0,
                            drop_integrity=False)
        assert out == small_bundle.events

    def test_integrity_posts_fully_dropped(self, small_bundle):
        flagged = {p.post_id for p in small_bundle.posts if p.integrity_violating}
        assert flagged, "fixture world should contain flagged posts"
        out = filter_events(small_bundle.events, 0, True, small_bundle.posts)
        assert all(e.post_id not in flagged for e in out)

    def test_idempotent(self, small_bundle):
        once = filter_events(small_bundle.events, 3, True, small_bundle.posts)
        twice = filter_events(once, 3, True, small_bundle.posts)
        assert once == twice

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_monotone_in_threshold(self, n):
        cfg = DatasetConfig(users=20, posts_per_day=10, days=8,
                            calibrate_survival=False)
        _, _, events = generate_world(cfg, seed=3)
        lo = filter_events(events, n)
        hi = filter_events(events, n + 1)
        assert set(hi) <= set(lo)

    def test_rejects_negative_threshold(self, small_bundle):
        with pytest.raises(ValueError):
            filter_events(small_bundle.events, -1)


class TestBuildSamples:
    def test_windowing_example(self):
        # events at t=1..5 with L_max=3, m=2: eval targets from t=4
        from seqrec.world import InteractionEvent
        day = 5 * SECONDS_PER_DAY
        events = [InteractionEvent(1, pid, ActionType.LIKE, "feed", day + pid)
                  for pid in range(1, 6)]
        # holdout of 1 day on a 6-day horizon: all five events in one day means
        # everything is history-or-target at day granularity; use 2 users' worth
        # of days instead
        events = [InteractionEvent(1, pid, ActionType.LIKE, "feed",
                                   (pid - 1) * SECONDS_PER_DAY + 100)
                  for pid in range(1, 6)]
        train, eval_ = build_samples(events, L_max=3, m=2, eval_holdout_days=2)
        assert len(eval_) == 1
        s = eval_[0]
        assert [h.post_id for h in s.history] == [1, 2, 3]
        assert s.long_targets == [4, 5]

    def test_single_event_user_yields_nothing(self):
        from seqrec.world import InteractionEvent
        ev = [InteractionEvent(7, 1, ActionType.VIEW, "feed", 5 * SECONDS_PER_DAY)]
        train, eval_ = build_samples(ev, L_max=4, m=2, eval_holdout_days=1)
        assert train == [] and eval_ == []

    def test_leakage_freedom_exhaustive(self, small_bundle):
        train, eval_ = build_samples(small_bundle.events, L_max=8, m=4,
                                     eval_holdout_days=3)
        assert train and eval_
        for s in train + eval_:
            s.validate()
            assert max(h.ts for h in s.history) < s.cutoff_time
            assert all(t >= s.cutoff_time for t in s.target_ts)
            assert not ({h.post_id for h in s.history} & set(s.long_targets))

    def test_histories_capped_at_l_max(self, small_bundle):
        train, eval_ = build_samples(small_bundle.events, L_max=4, m=3,
                                     eval_holdout_days=2)
        assert all(len(s.history) <= 4 for s in train + eval_)

    def test_rejects_bad_args(self, small_bundle):
        with pytest.raises(ValueError):
            build_samples(small_bundle.events, 0, 1, 1)
        with pytest.raises(ValueError):
            build_samples(small_bundle.events, 1, 0, 1)
        with pytest.raises(ValueError):
            build_samples(small_bundle.events, 1, 1, 0)


class TestHistoryBefore:
    STREAM = [InteractionEvent(1, 10 + i, ActionType.LIKE, "feed", 100 * i)
              for i in range(1, 6)]

    def test_event_at_cutoff_excluded(self):
        assert [h.ts for h in history_before(self.STREAM, 300, 10)] == [100, 200]

    def test_keeps_the_last_max_len(self):
        assert [h.post_id for h in history_before(self.STREAM, 501, 2)] == [14, 15]

    def test_empty_before_first_event(self):
        assert history_before(self.STREAM, 100, 3) == []
        assert history_before([], 100, 3) == []

    def test_max_len_may_exceed_stream(self):
        assert history_before(self.STREAM, 10**9, 50) == self.STREAM

    def test_returns_the_streams_own_events(self):
        hist = history_before(self.STREAM, 450, 2)
        assert len(hist) == 2
        assert all(h is e for h, e in zip(hist, self.STREAM[2:4]))

    def test_samples_hold_the_logged_events(self, small_bundle):
        train, eval_ = build_samples(small_bundle.events, L_max=8, m=4, eval_holdout_days=3)
        assert train and eval_
        logged = {id(e) for e in small_bundle.events}
        assert all(id(h) in logged for s in train + eval_ for h in s.history)


def action_predictiveness(events: list, embeddings) -> dict:
    """Mean cosine between each event's post and the user's next engaged post,
    sliced by action type. Actions that never occur are omitted."""
    sums: dict[ActionType, float] = {}
    counts: dict[ActionType, int] = {}
    for uid, stream in events_by_user(events).items():
        for cur, nxt in zip(stream, stream[1:]):
            a = embeddings.vector(cur.post_id)
            b = embeddings.vector(nxt.post_id)
            c = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            sums[cur.action] = sums.get(cur.action, 0.0) + c
            counts[cur.action] = counts.get(cur.action, 0) + 1
    return {a: sums[a] / counts[a] for a in sorted(sums, key=int)}


class TestActionPredictiveness:
    """The generator's action signal, measured by the helper above."""

    def test_high_signal_actions_more_predictive(self, small_bundle):
        cfg = small_bundle.config
        penc = PostEncoder("oracle", cfg, oracle_seed=small_bundle.seed)
        embs = penc.encode_all(small_bundle.posts)
        events = filter_events(small_bundle.events, 2, True, small_bundle.posts)
        table = action_predictiveness(events, embs)
        high = [table[a] for a in (ActionType.LIKE, ActionType.COMMENT,
                                   ActionType.POST_CLICK) if a in table]
        low = [table[a] for a in (ActionType.COMMENT_CLICK, ActionType.COMMENT_LIKE)
               if a in table]
        assert high and low
        assert min(high) > max(low)

    def test_degenerate_identical_embeddings(self, small_bundle):
        class OneVector:
            def vector(self, pid):
                return np.array([1.0, 0.0])
        table = action_predictiveness(small_bundle.events[:500], OneVector())
        for v in table.values():
            assert v == pytest.approx(1.0)

    def test_single_event_user_contributes_nothing(self):
        from seqrec.world import InteractionEvent
        class OneVector:
            def vector(self, pid):
                return np.array([1.0, 0.0])
        ev = [InteractionEvent(1, 5, ActionType.LIKE, "feed", 100)]
        assert action_predictiveness(ev, OneVector()) == {}

    def test_zero_occurrence_actions_omitted(self, small_bundle):
        class OneVector:
            def vector(self, pid):
                return np.array([1.0, 0.0])
        only_likes = [e for e in small_bundle.events if e.action == ActionType.LIKE]
        table = action_predictiveness(only_likes[:200], OneVector())
        assert set(table) <= {ActionType.LIKE}


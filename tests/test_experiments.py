import dataclasses
import json

import numpy as np
import pytest

import seqrec.experiments as experiments
from seqrec.cli import main
from seqrec.configs import DatasetConfig, EncoderConfig, LossConfig, TrainConfig
from seqrec.encoder import init_params
from seqrec.experiments import (
    coldstart_eval, staleness_experiment, sweep, temporal_decay_experiment,
)
from seqrec.manifest import RunManifest
from seqrec.metrics import EvalReport
from seqrec.pipeline import alive_corpus, load_pipeline, prepare
from seqrec.samples import events_by_user
from seqrec.trainer import UserTower, train
from seqrec.world import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def drift_data():
    cfg = DatasetConfig(users=140, posts_per_day=90, days=18, n_topics=12,
                        activity_rate=3.0, drift_rate=0.10,
                        calibrate_survival=False)
    return prepare(cfg, seed=17, enc_cfg=EncoderConfig(), eval_holdout_days=3, m=5)


@pytest.fixture(scope="module")
def drift_tower(drift_data):
    tcfg = TrainConfig(batch_size=32, learning_rate=3e-3, epochs=2, seed=0,
                       variant="ttt_causal_long")
    tower, _ = train(drift_data.train, drift_data.eval, drift_data.embeddings,
                     EncoderConfig(), LossConfig(), tcfg, drift_data.surfaces)
    return tower


class TestAliveCorpus:
    def test_targets_always_present(self, drift_data):
        eval_day = drift_data.holdout_start_ts // SECONDS_PER_DAY
        ids, vecs = alive_corpus(drift_data.posts, drift_data.embeddings,
                                 eval_day, eval_day + 2)
        known = set(ids)
        for s in drift_data.eval:
            assert set(s.long_targets) <= known

    def test_no_flagged_posts(self, drift_data):
        ids, _ = alive_corpus(drift_data.posts, drift_data.embeddings, 0, 100)
        flagged = {p.post_id for p in drift_data.posts if p.integrity_violating}
        assert not (set(ids) & flagged)


class TestStaleness:
    def test_series_shape_and_zero_day_drop(self, drift_data, drift_tower):
        reports = staleness_experiment(drift_tower, drift_data, max_stale_days=3)
        assert len(reports) == 4
        assert [r.slice["staleness_days"] for r in reports] == [0, 1, 2, 3]
        assert reports[0].slice["drop"] == 0.0
        for r in reports:
            assert 0.0 <= r.value <= 1.0
            assert r.n_queries == reports[0].n_queries  # fixed user set

    def test_drop_consistent_with_values(self, drift_data, drift_tower):
        reports = staleness_experiment(drift_tower, drift_data, max_stale_days=2)
        base = reports[0].value
        for r in reports[1:]:
            assert r.slice["drop"] == pytest.approx((base - r.value) / base)


@pytest.fixture(scope="module")
def decay_series():
    cfg = DatasetConfig(users=140, posts_per_day=90, days=18, n_topics=12,
                        activity_rate=3.0, drift_rate=0.10,
                        calibrate_survival=False)
    data = prepare(cfg, seed=23, enc_cfg=EncoderConfig(), eval_holdout_days=4,
                   m=5, target_window_days=2)
    tcfg = TrainConfig(batch_size=32, learning_rate=3e-3, epochs=2, seed=0)
    return temporal_decay_experiment(data, EncoderConfig(), LossConfig(),
                                     tcfg, horizon_days=4)


class TestTemporalDecay:

    def test_both_series_present_and_bounded(self, decay_series):
        assert set(decay_series) == {"with_long", "without_long"}
        for reports in decay_series.values():
            assert len(reports) == 4
            for r in reports:
                assert 0.0 <= r.value <= 1.0

    def test_day_offsets_and_drop_recorded(self, decay_series):
        for reports in decay_series.values():
            assert [r.slice["eval_day_offset"] for r in reports] == [1, 2, 3, 4]
            first, last = reports[0].value, reports[-1].value
            expected = 0.0 if first == 0 else (first - last) / first
            assert reports[0].slice["day4_drop"] == pytest.approx(expected)

    def test_requires_wide_enough_holdout(self, drift_data):
        with pytest.raises(ValueError, match="holdout"):
            temporal_decay_experiment(drift_data, EncoderConfig(), LossConfig(),
                                      TrainConfig(), horizon_days=30)


class TestSweep:
    def test_single_value_series(self, drift_data):
        tcfg = TrainConfig(batch_size=32, learning_rate=3e-3, epochs=1, seed=0)
        reports = sweep("layers", [1], drift_data, EncoderConfig(), LossConfig(),
                        tcfg, seeds=(0,))
        assert len(reports) == 1
        assert reports[0].slice["layers"] == 1
        assert reports[0].slice["secs_per_step"] > 0

    def test_values_must_be_sorted(self, drift_data):
        with pytest.raises(ValueError, match="sorted"):
            sweep("seq_len", [8, 4], drift_data, EncoderConfig(), LossConfig(),
                  TrainConfig(), seeds=(0,))

    def test_unknown_axis_rejected(self, drift_data):
        with pytest.raises(ValueError, match="axis"):
            sweep("heads", [1, 2], drift_data, EncoderConfig(), LossConfig(),
                  TrainConfig(), seeds=(0,))

    @pytest.mark.slow
    def test_wall_clock_non_decreasing_in_layers(self, drift_data):
        tcfg = TrainConfig(batch_size=32, learning_rate=3e-3, epochs=1, seed=0)
        reports = sweep("layers", [1, 3], drift_data, EncoderConfig(), LossConfig(),
                        tcfg, seeds=(0,))
        times = [r.slice["secs_per_step"] for r in reports]
        assert times[0] <= times[1]


@pytest.mark.slow
def test_sweep_seq_len_diminishing_returns():
    """On a fast-drifting world only the recent past predicts: lengthening the
    window from the top quartile buys no more than from the bottom quartile."""
    cfg = DatasetConfig(users=300, posts_per_day=150, days=20, n_topics=16,
                        activity_rate=3.5, drift_rate=0.18,
                        calibrate_survival=False)
    data = prepare(cfg, seed=29, enc_cfg=EncoderConfig(max_seq_len=32),
                   eval_holdout_days=2, m=5)
    tcfg = TrainConfig(batch_size=64, learning_rate=3e-3, epochs=3, seed=0)
    values = [2, 4, 16, 32]
    reports = sweep("seq_len", values, data, EncoderConfig(), LossConfig(),
                    tcfg, seeds=(0, 1))
    hits = [r.value for r in reports]
    bottom_gain = hits[1] - hits[0]
    top_gain = hits[3] - hits[2]
    assert top_gain <= bottom_gain, f"hits={hits}"


def test_coldstart_eval_names_missing_profiles(tmp_path):
    """A gen-data world has cold/marginal users but no generator profiles."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {
        "users": 40, "posts_per_day": 20, "days": 10, "marginal_user_frac": 0.3,
        "calibrate_survival": False}}))
    world = tmp_path / "world"
    assert main(["gen-data", "--config", str(config), "--seed", "3",
                 "--out", str(world)]) == 0
    data = load_pipeline(world, RunManifest.load(world / "manifest.json").config)
    enc = EncoderConfig()
    tower = UserTower("transformer", init_params(enc, 0), enc, data.surfaces)
    with pytest.raises(ValueError, match="no generator user profiles"):
        coldstart_eval(data, tower)


# -- the slices the experiments rank, against test-local copies of the loops ----
# that built them before `samples.history_before` and `samples.collect_targets`

def _old_coldstart_slice(data, marginal_threshold, m_eval):
    cutoff = data.holdout_start_ts
    per_user = events_by_user(data.events)
    profiles = {u.user_id: u for u in data.users}
    slice_users = []
    real_hist, targets = {}, {}
    for uid, stream in per_user.items():
        past = [e for e in stream if e.ts < cutoff]
        if len(past) >= marginal_threshold or uid not in profiles:
            continue
        future_ids = []
        past_ids = {e.post_id for e in past}
        for e in stream:
            if e.ts >= cutoff and e.post_id not in past_ids and e.post_id not in future_ids:
                future_ids.append(e.post_id)
        if not future_ids:
            continue
        slice_users.append(uid)
        real_hist[uid] = past
        targets[uid] = future_ids[:m_eval]
    slice_users.sort()
    return slice_users, real_hist, targets


def _old_decay_days(data, horizon_days, m, max_len):
    """Per holdout day: (histories encoded that day, ranked users, targets, seen)."""
    eval_day = data.holdout_start_ts // SECONDS_PER_DAY
    per_user = events_by_user(data.events)
    day_targets = []
    for h in range(horizon_days):
        lo = (eval_day + h) * SECONDS_PER_DAY
        hi = lo + SECONDS_PER_DAY
        per_day = {}
        for uid, stream in per_user.items():
            ids = []
            for e in stream:
                if lo <= e.ts < hi and e.post_id not in ids:
                    ids.append(e.post_id)
            if ids:
                per_day[uid] = ids[:m]
        day_targets.append(per_day)
    cutoff_ts = data.holdout_start_ts
    seen_all = {uid: {e.post_id for e in stream if e.ts < cutoff_ts}
                for uid, stream in per_user.items()}
    encoded, out = set(), []
    for per_day in day_targets:
        users = [uid for uid in sorted(per_day)
                 if uid in per_user and any(e.ts < cutoff_ts for e in per_user[uid])]
        missing = [u for u in users if u not in encoded]
        encoded.update(missing)
        histories = [(u, [e for e in per_user[u] if e.ts < cutoff_ts][-max_len:], cutoff_ts)
                     for u in missing]
        out.append((histories, users, [per_day[u] for u in users],
                    [seen_all[u] for u in users]))
    return out


class _Recorder:
    """Stands in for a tower's encoder and for the KNN ranking; records the
    samples each encodes, the (targets, hidden seen posts per row) each ranks,
    and the corpus and seen cells it ranks them against."""

    def __init__(self, monkeypatch, tower):
        self.encoded, self.ranked, self.corpora, self.cells = [], [], [], []
        monkeypatch.setattr(tower, "eval_user_vectors", self._encode)
        monkeypatch.setattr(experiments, "knn_hits_at_k", self._rank)

    def _encode(self, samples, embeddings):
        self.encoded.append([(s.user_id, s.history, s.cutoff_time) for s in samples])
        return np.zeros((len(samples), embeddings.dim))

    def _rank(self, user_vecs, target_sets, corpus_ids, corpus_vecs, k, seen_cells):
        hidden = [set() for _ in target_sets]
        for row, col in zip(*seen_cells):
            hidden[row].add(int(corpus_ids[col]))
        self.ranked.append((target_sets, hidden))
        self.corpora.append(set(corpus_ids.tolist()))
        self.cells.append(seen_cells)
        return EvalReport(metric="knn_hits", k=k, hits=0, n_queries=len(target_sets))

    def in_corpus(self, call, seen_sets):
        """seen_sets cut to the corpus the given ranking call saw."""
        return [seen & self.corpora[call] for seen in seen_sets]


def _tiny_tower(data, max_seq_len):
    enc = EncoderConfig(max_seq_len=max_seq_len)
    return UserTower("transformer", init_params(enc, 0), enc, data.surfaces)


@pytest.mark.parametrize("threshold", [20, 40])
def test_coldstart_slice_matches_old_loop(marginal_world_data, monkeypatch, threshold):
    data = marginal_world_data
    tower = _tiny_tower(data, max_seq_len=8)
    rec = _Recorder(monkeypatch, tower)
    coldstart_eval(data, tower, policy_modes=("none",), m_eval=4,
                   marginal_threshold=threshold)
    users, real_hist, targets = _old_coldstart_slice(data, threshold, m_eval=4)
    assert len(users) >= 5
    assert rec.encoded == [[(u, real_hist[u][-8:], data.holdout_start_ts) for u in users]]
    seen = rec.in_corpus(0, [{h.post_id for h in real_hist[u]} for u in users])
    assert any(seen)
    assert rec.ranked == [([targets[u] for u in users], seen)]


def test_temporal_decay_days_match_old_loop(marginal_world_data, monkeypatch):
    data = marginal_world_data
    tower = _tiny_tower(data, max_seq_len=8)
    monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: (tower, None))
    rec = _Recorder(monkeypatch, tower)
    temporal_decay_experiment(data, tower.enc_cfg, LossConfig(m=3), TrainConfig(),
                              horizon_days=3)
    days = _old_decay_days(data, horizon_days=3, m=3, max_len=8)
    assert all(users for _, users, _, _ in days)
    # each variant encodes and ranks the same days
    assert rec.encoded == 2 * [hist for hist, _, _, _ in days if hist]
    assert rec.ranked == [(targets, rec.in_corpus(call, seen)) for call, (_, _, targets, seen)
                          in enumerate(2 * days)]
    assert any(any(seen) for _, seen in rec.ranked)


@pytest.mark.parametrize("run", ["staleness", "coldstart"])
def test_seen_cells_built_once_per_experiment(marginal_world_data, monkeypatch, run):
    """Staleness ranks its levels, and cold start its policies, against one
    corpus and one seen set per user, so they share one set of seen cells."""
    data = marginal_world_data
    tower = _tiny_tower(data, max_seq_len=8)
    rec = _Recorder(monkeypatch, tower)
    if run == "staleness":
        staleness_experiment(tower, data, max_stale_days=2)
    else:
        coldstart_eval(data, tower, marginal_threshold=20)
    assert len(rec.cells) == 3 and rec.cells[0][0].size > 0
    assert all(cells is rec.cells[0] for cells in rec.cells)

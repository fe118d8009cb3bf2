"""World lock: generator streams pinned byte for byte.

The behaviour lock's world has no drift, no bursty sessions, no cold or
marginal users, no calibration pass, several languages and exploration > 0.
The four small worlds below cover each of those paths, plus a saturated
activity rate where the number of events a user-day can draw is capped by the
posts left with non-zero probability, and a sharpness at which most
probabilities underflow to zero. For each world the test pins the sha256 of
`posts.jsonl` and `events.jsonl` as `write_*_jsonl` writes them.

`_reference_events` keeps a copy of the straightforward per-event generator
(one `rng.choice` per action and per surface). A faster generator must draw
the same numbers from the same PCG64 streams, so the reference and
`world._build_pass` must agree event for event on any config.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqrec import world
from seqrec.actions import ActionType
from seqrec.configs import DatasetConfig
from seqrec.dataio import write_events_jsonl, write_posts_jsonl
from seqrec.world import SECONDS_PER_DAY, InteractionEvent

SEED = 7

CONFIGS = {
    "drift_bursty_cold_calibrated": dict(
        users=40, posts_per_day=30, days=22, n_topics=6, activity_rate=3.0,
        drift_rate=0.2, session_rate=0.5, cold_user_frac=0.15,
        marginal_user_frac=0.15),
    "one_language_no_exploration": dict(
        users=30, posts_per_day=25, days=10, n_topics=5, activity_rate=4.0,
        exploration=0.0, languages=("en",), timespent_rate=0.0,
        surfaces=("feed", "search"), calibrate_survival=False),
    "saturated_activity": dict(
        users=12, posts_per_day=6, days=9, n_topics=4, activity_rate=20.0,
        surfaces=("feed",), calibrate_survival=False),
    "underflowing_probabilities": dict(
        users=12, posts_per_day=6, days=9, n_topics=4, activity_rate=20.0,
        exploration=0.0, affinity_strength=5000.0, surfaces=("feed",),
        calibrate_survival=False),
}

GOLDEN_SHA256 = {
    "drift_bursty_cold_calibrated": {
        "posts.jsonl": "ec030de65315bf502d6545749668560dc9bc943abc1c0619f5fc9bb2f5fb342a",
        "events.jsonl": "f844cc0361601f0de84af75964cf29195dd6415d017f536f6adcbdb555212146"},
    "one_language_no_exploration": {
        "posts.jsonl": "574dac2454544035f39c4a1739f12fd9c821a12ec615a2ef5bee3d7e4d2bfeb0",
        "events.jsonl": "4d4c705f889fb76660069c276099959a57f026bb9fafecaa5632423f114438ba"},
    "saturated_activity": {
        "posts.jsonl": "5c6b03dbce9c6aa495e40b220e4a216cebeaf0defd1aa266075123475eadf656",
        "events.jsonl": "56eafd902072eee6419e3bcdee9a3daa6c30eb303ea7cc0c6840163fcedc92a3"},
    "underflowing_probabilities": {
        "posts.jsonl": "5c6b03dbce9c6aa495e40b220e4a216cebeaf0defd1aa266075123475eadf656",
        "events.jsonl": "259346f72d3e3aa5b1f85f379f4d5f5b14d4d5f80ac0ee5fad6f94d6ff45a691"},
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_world_files_byte_identical(name, tmp_path, monkeypatch):
    passes = []
    build_pass = world._build_pass

    def counted(*args, **kwargs):
        passes.append(args)
        return build_pass(*args, **kwargs)

    monkeypatch.setattr(world, "_build_pass", counted)
    cfg = DatasetConfig(**CONFIGS[name])
    bundle = world.build_world(cfg, SEED)
    # The calibrated world must really run the pilot and the final pass.
    assert len(passes) == (2 if cfg.calibrate_survival else 1)
    write_posts_jsonl(tmp_path / "posts.jsonl", bundle.posts)
    write_events_jsonl(tmp_path / "events.jsonl", bundle.events)
    got = {f: _sha256(tmp_path / f) for f in ("posts.jsonl", "events.jsonl")}
    assert got == GOLDEN_SHA256[name]


@pytest.mark.parametrize("seed", range(4))
def test_cdf_draw_repeats_generator_choice(seed):
    """`_choice_indices` on one `rng.random(n)` picks what n `choice` calls
    pick and leaves the stream where they leave it. A numpy release that
    changes `Generator.choice` fails here, not as silently different worlds."""
    rows = np.random.default_rng(seed)
    n, width = 300, 9
    p = rows.random((n, width))
    p[rows.random((n, width)) < 0.4] = 0.0            # zero entries anywhere
    p[np.arange(n), rows.integers(width, size=n)] += 0.25
    p /= p.sum(axis=1, keepdims=True)
    values = np.arange(width)
    by_choice, by_cdf = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)

    want = [int(by_choice.choice(values, p=row)) for row in p]
    assert world._choice_indices(p, by_cdf.random(n)).tolist() == want
    shared = p[0]
    want = [int(by_choice.choice(values, p=shared)) for _ in range(n)]
    assert world._choice_indices(shared, by_cdf.random(n)).tolist() == want
    assert by_choice.random() == by_cdf.random()


# ---------------------------------------------------------------------------
# Reference generator: one rng.choice per action and per surface.

def _reference_rotate_towards(v, target, step):
    cos_t = float(np.clip(np.dot(v, target), -1.0, 1.0))
    theta = math.acos(cos_t)
    if theta <= step or theta < 1e-9:
        return target.copy()
    t = step / theta
    s = math.sin(theta)
    return (math.sin((1.0 - t) * theta) * v + math.sin(t * theta) * target) / s


def _reference_user_stream(cfg, user, user_lang_code, rng, centers, topics,
                           lang_codes, elig_by_day, post_ids, high_dist, low_dist):
    events = []
    if user.activity_rate <= 0:
        return events
    aff = user.affinity_vectors.copy()
    weights = user.affinity_weights
    k = aff.shape[0]
    targets = np.stack([world._drift_goal(centers, rng) for _ in range(k)])
    session_rate = 1.0
    if cfg.session_rate < 1.0:
        session_rate = float(np.clip(rng.uniform(cfg.session_rate - 0.25,
                                                 cfg.session_rate + 0.25),
                                     0.15, 1.0))
    engaged = set()
    surf_idx = np.arange(len(cfg.surfaces))
    surf_p = np.array([0.7, 0.2, 0.1])[: len(cfg.surfaces)]
    surf_p = surf_p / surf_p.sum()
    actions = np.arange(len(ActionType))

    for day in range(cfg.days):
        if user.drift_rate > 0:
            for i in range(k):
                aff[i] = _reference_rotate_towards(aff[i], targets[i], user.drift_rate)
                if float(np.dot(aff[i], targets[i])) > 1.0 - 1e-9:
                    targets[i] = world._drift_goal(centers, rng)
        if day < user.start_day:
            continue
        rate = user.activity_rate
        if user.ramp_day is not None and day >= user.ramp_day:
            rate = max(rate, cfg.activity_rate)
        if session_rate < 1.0:
            if rng.random() >= session_rate:
                continue
            n_ev = int(rng.poisson(rate / session_rate))
        else:
            n_ev = int(rng.poisson(rate))
        if n_ev == 0:
            continue
        elig = elig_by_day[day]
        if elig.size == 0:
            continue
        cos = aff @ topics[elig].T
        sharp = cfg.affinity_strength
        if day - user.start_day < cfg.newuser_days:
            sharp *= cfg.newuser_topic_damp
        logits = sharp * cos
        logits += np.where(lang_codes[elig] == user_lang_code, math.log(cfg.lang_match_boost), 0.0)
        logits -= logits.max(axis=1, keepdims=True)
        p_comp = np.exp(logits)
        p_comp /= p_comp.sum(axis=1, keepdims=True)
        p = weights @ p_comp
        p = (1.0 - cfg.exploration) * p + cfg.exploration / elig.size
        if engaged:
            hit = np.isin(elig, np.fromiter(engaged, dtype=np.int64), assume_unique=False)
            p[hit] = 0.0
            total = p.sum()
            if total <= 0:
                continue
            p /= total
        n_ev = min(n_ev, int((p > 0).sum()))
        if n_ev == 0:
            continue
        chosen = rng.choice(elig.size, size=n_ev, replace=False, p=p)
        offsets = np.sort(rng.choice(SECONDS_PER_DAY, size=n_ev, replace=False))
        q_best = (aff @ topics[elig[chosen]].T).max(axis=0)
        for j in range(n_ev):
            idx = int(elig[chosen[j]])
            engaged.add(idx)
            w_high = 1.0 / (1.0 + math.exp(-cfg.action_signal_sharpness * (q_best[j] - cfg.action_signal_pivot)))
            dist = w_high * high_dist + (1.0 - w_high) * low_dist
            action = ActionType(int(rng.choice(actions, p=dist)))
            surface = cfg.surfaces[int(rng.choice(surf_idx, p=surf_p))]
            events.append(InteractionEvent(
                user_id=user.user_id,
                post_id=int(post_ids[idx]),
                action=action,
                surface=surface,
                ts=int(day) * SECONDS_PER_DAY + int(offsets[j]),
            ))
    return events


def _reference_events(config, seed, shares) -> list:
    root = np.random.SeedSequence(seed)
    rng_global = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))
    centers = world._unit_rows(rng_global.standard_normal((config.n_topics, config.topic_dim)))
    lang_prior = world._lang_center_prior(rng_global, len(config.languages), config.n_topics)
    posts = world._make_posts(config, rng_global, centers, lang_prior, shares)
    users = world._make_users(config, rng_global, centers, lang_prior)
    topics = np.stack([p.topic for p in posts])
    post_ids = np.array([p.post_id for p in posts], dtype=np.int64)
    lang_to_code = {lang: i for i, lang in enumerate(config.languages)}
    lang_codes = np.array([lang_to_code[p.lang] for p in posts], dtype=np.int64)
    created = np.array([p.created_at for p in posts])
    dies = created + np.array([p.lifetime_days for p in posts])
    elig_by_day = [np.nonzero((created <= day) & (day < dies))[0]
                   for day in range(config.days)]
    high_dist, low_dist = world._action_tables(config)
    user_seeds = root.spawn(2 + config.users)[2:]
    events = []
    for user, ss in zip(users, user_seeds):
        rng_u = np.random.Generator(np.random.PCG64(ss))
        events.extend(_reference_user_stream(config, user, lang_to_code[user.lang], rng_u,
                                             centers, topics, lang_codes, elig_by_day,
                                             post_ids, high_dist, low_dist))
    events.sort(key=lambda e: (e.user_id, e.ts, e.post_id))
    return events


def _assert_matches_reference(cfg: DatasetConfig, seed: int) -> None:
    shares = world._initial_shares(cfg)
    got = world._build_pass(cfg, seed, shares).events
    assert got == _reference_events(cfg, seed, shares)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generator_matches_reference_on_another_seed(name):
    _assert_matches_reference(DatasetConfig(**CONFIGS[name]), seed=11)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(users=st.integers(1, 6), posts_per_day=st.integers(1, 8),
       days=st.integers(1, 6), activity_rate=st.floats(0.0, 25.0),
       session_rate=st.floats(0.2, 1.0), drift_rate=st.floats(0.0, 0.6),
       exploration=st.floats(0.0, 1.0), timespent_rate=st.floats(0.0, 2.0),
       affinity_strength=st.floats(0.0, 3000.0),
       n_surfaces=st.integers(1, 3), n_languages=st.integers(1, 3),
       cold=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_generator_matches_reference_on_random_configs(
        users, posts_per_day, days, activity_rate, session_rate, drift_rate,
        exploration, timespent_rate, affinity_strength, n_surfaces,
        n_languages, cold, seed):
    cfg = DatasetConfig(
        users=users, posts_per_day=posts_per_day, days=days, n_topics=3,
        topic_dim=8, activity_rate=activity_rate, session_rate=session_rate,
        drift_rate=drift_rate, exploration=exploration,
        timespent_rate=timespent_rate, affinity_strength=affinity_strength,
        surfaces=("feed", "groups_tab", "search")[:n_surfaces],
        languages=("en", "es", "pt")[:n_languages], cold_user_frac=cold,
        marginal_user_frac=cold / 2, cold_start_window=2)
    _assert_matches_reference(cfg, seed)

"""Synthetic engagement world generator.

Produces a reproducible stream of (user, post, action, surface, timestamp)
events with the structure the rest of the pipeline depends on:

* posts have a short shelf-life, calibrated so that of the posts engaged in
  their first week only ``survival_week1`` are engaged again a week later and
  ``survival_week2`` two weeks later;
* each user engages posts with probability increasing in the cosine between
  their interest mixture and the post topic, with optional daily interest
  drift;
* high-signal actions (like / comment / post click) are emitted on posts close
  to the user's interests, comment-thread actions on topically distant ones.

Generation is deterministic given (config, seed) and is structured per user:
every user stream draws from an independent child RNG, so no user's stream
depends on any other's. All outputs are order-normalized (user_id, then
timestamp).

A user-day's actions and surfaces come from one ``rng.random(2 * n)`` call
rather than one ``rng.choice(p=...)`` per action and per surface. They repeat
``Generator.choice``'s own CDF rule (`_choice_indices`), so every PCG64 stream,
and hence every world, stays identical to the per-event form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import ActionType
from .configs import DatasetConfig

SECONDS_PER_DAY = 86400


@dataclass(eq=False)
class Post:
    post_id: int
    created_at: int                 # day index
    topic: np.ndarray               # unit vector, dim topic_dim
    text_channel: np.ndarray        # dim channel_dim
    image_channels: list            # 0..max_images vectors of dim channel_dim
    lang: str
    country: str
    lifetime_days: int
    integrity_violating: bool
    topic_id: int | None = None    # generator metadata, not part of the file schema

    def alive_on(self, day: int) -> bool:
        return self.created_at <= day < self.created_at + self.lifetime_days


@dataclass(eq=False)
class UserProfile:
    user_id: int
    lang: str
    country: str
    affinity_vectors: np.ndarray    # (k, topic_dim) unit rows, initial state
    affinity_weights: np.ndarray    # (k,) non-negative, sums to 1
    activity_rate: float
    drift_rate: float
    start_day: int = 0              # cold-start users begin engaging here
    ramp_day: int | None = None     # marginal users jump to full activity here


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    user_id: int
    post_id: int
    action: ActionType
    surface: str
    ts: int                         # integer seconds

    @property
    def day(self) -> int:
        return self.ts // SECONDS_PER_DAY


@dataclass(eq=False)
class WorldBundle:
    """generate_world output plus generator internals useful for analysis."""

    config: DatasetConfig
    seed: int
    posts: list
    users: list
    events: list
    topic_centers: np.ndarray = field(default=None)  # (n_topics, topic_dim)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, bit for bit, without its overhead."""
    return math.sqrt(v.dot(v))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm(v)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _jittered_unit(center: np.ndarray, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """Unit vector at a jitter-controlled angle from a unit center.

    The perturbation is a random unit direction scaled by `jitter`, so the
    expected cosine to the center is ~1/sqrt(1 + jitter^2) regardless of the
    ambient dimension.
    """
    noise = rng.standard_normal(center.shape[0])
    noise /= _norm(noise)
    return _unit(center + jitter * noise)


def _rotate_towards(v: np.ndarray, target: np.ndarray, step: float) -> np.ndarray:
    """Rotate unit vector v towards unit vector target by `step` radians (slerp)."""
    cos_t = min(1.0, max(-1.0, float(np.dot(v, target))))
    theta = math.acos(cos_t)
    if theta <= step or theta < 1e-9:
        return target.copy()
    t = step / theta
    s = math.sin(theta)
    return (math.sin((1.0 - t) * theta) * v + math.sin(t * theta) * target) / s


# Lifetime buckets. Survivor posts live whole extra weeks so that a post that
# "survives into week 1" is eligible for most of that week; the measured
# survival fraction then tracks the bucket shares closely.
_WEEK1_LIFETIMES = (13, 14)
_WEEK2_LIFETIMES = (20, 21)
# First-pass priors for the lifetime-bucket shares; the builder then measures
# the survival its event stream actually produced and regenerates once with
# ratio-corrected shares (engagement coverage and never-engaged short posts
# shift the measured value off the raw share in a config-dependent way).
_CALIBRATION_WEEK1 = 0.94
_CALIBRATION_WEEK2 = 0.93


def _sample_lifetime(rng: np.random.Generator, share1: float, share2: float) -> int:
    u = rng.random()
    if u < share2:
        return int(rng.choice(_WEEK2_LIFETIMES))
    if u < share1:
        return int(rng.choice(_WEEK1_LIFETIMES))
    return int(rng.integers(1, 8))


def _lang_center_prior(rng: np.random.Generator, n_langs: int, n_topics: int) -> list:
    """Each language owns a disjoint slice of the topic centers (communities
    cluster by language); the concentration knob controls how much engagement
    leaks across that partition."""
    perm = rng.permutation(n_topics)
    chunks = np.array_split(perm, n_langs)
    return [np.sort(chunk) if chunk.size else np.array([int(perm[0])])
            for chunk in chunks]


def _pick_center(rng: np.random.Generator, prior: np.ndarray, n_topics: int,
                 concentration: float) -> int:
    if rng.random() < concentration:
        return int(prior[rng.integers(len(prior))])
    return int(rng.integers(n_topics))


# ActionType members by value, and the surface shares in `surfaces` order.
_ACTIONS = tuple(ActionType)
_SURFACE_SHARES = np.array([0.7, 0.2, 0.1])


def _action_tables(cfg: DatasetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-bucket action distributions; TIME_SPENT mass follows timespent_rate."""
    high = np.zeros(len(ActionType))
    high[ActionType.LIKE] = 0.34
    high[ActionType.COMMENT] = 0.22
    high[ActionType.POST_CLICK] = 0.30
    high[ActionType.TIME_SPENT] = cfg.timespent_rate
    high[ActionType.VIEW] = 0.04
    low = np.zeros(len(ActionType))
    low[ActionType.COMMENT_CLICK] = 0.30
    low[ActionType.COMMENT_LIKE] = 0.24
    low[ActionType.COMMENT_REACT] = 0.18
    low[ActionType.SHARE] = 0.14
    low[ActionType.VIEW] = 0.10
    low[ActionType.TIME_SPENT] = 0.04
    return high / high.sum(), low / low.sum()


def _make_posts(cfg: DatasetConfig, rng: np.random.Generator,
                centers: np.ndarray, lang_prior: list, shares: tuple) -> list:
    # Channel mixing matrices: text and image channels both carry the topic
    # signal through fixed random linear maps, plus independent noise. With
    # unit topics each channel coordinate has unit signal variance, so
    # channel_noise is the per-coordinate noise-to-signal ratio.
    text_map = rng.standard_normal((cfg.topic_dim, cfg.channel_dim))
    image_map = rng.standard_normal((cfg.topic_dim, cfg.channel_dim))
    posts = []
    pid = 0
    for day in range(cfg.days):
        for _ in range(cfg.posts_per_day):
            lang_idx = int(rng.integers(len(cfg.languages)))
            center_id = _pick_center(rng, lang_prior[lang_idx], cfg.n_topics,
                                     cfg.lang_topic_concentration)
            topic = _jittered_unit(centers[center_id], cfg.topic_jitter, rng)
            text = topic @ text_map + cfg.channel_noise * rng.standard_normal(cfg.channel_dim)
            n_images = int(rng.integers(1, cfg.max_images + 1)) if rng.random() < cfg.image_rate else 0
            images = [
                topic @ image_map + cfg.channel_noise * rng.standard_normal(cfg.channel_dim)
                for _ in range(n_images)
            ]
            posts.append(Post(
                post_id=pid,
                created_at=day,
                topic=topic,
                text_channel=text,
                image_channels=images,
                lang=cfg.languages[lang_idx],
                country=cfg.countries[int(rng.integers(len(cfg.countries)))],
                lifetime_days=_sample_lifetime(rng, shares[0], shares[1]),
                integrity_violating=bool(rng.random() < cfg.integrity_rate),
                topic_id=center_id,
            ))
            pid += 1
    return posts


def _make_users(cfg: DatasetConfig, rng: np.random.Generator,
                centers: np.ndarray, lang_prior: list) -> list:
    users = []
    n_cold = int(round(cfg.cold_user_frac * cfg.users))
    n_marginal = int(round(cfg.marginal_user_frac * cfg.users))
    for uid in range(cfg.users):
        lang_idx = int(rng.integers(len(cfg.languages)))
        k = int(rng.integers(1, cfg.max_affinity_components + 1))
        comp = []
        for _ in range(k):
            c = _pick_center(rng, lang_prior[lang_idx], cfg.n_topics,
                             cfg.lang_topic_concentration)
            comp.append(_jittered_unit(centers[c], 0.15, rng))
        weights = np.sort(rng.dirichlet(np.full(k, 1.0)))[::-1]  # dominant interest first
        rate = max(0.0, rng.normal(cfg.activity_rate, cfg.activity_rate * 0.25)) if cfg.activity_rate > 0 else 0.0
        start_day = 0
        ramp_day = None
        if uid >= cfg.users - n_cold:
            # brand-new users: first engagement inside the final window
            start_day = max(0, cfg.days - cfg.cold_start_window)
        elif uid >= cfg.users - n_cold - n_marginal:
            # returning users: a trickle of history, then normal activity
            rate = cfg.marginal_activity_rate
            ramp_day = max(0, cfg.days - cfg.cold_start_window)
        users.append(UserProfile(
            user_id=uid,
            lang=cfg.languages[lang_idx],
            country=cfg.countries[int(rng.integers(len(cfg.countries)))],
            affinity_vectors=np.stack(comp),
            affinity_weights=weights,
            activity_rate=rate,
            drift_rate=cfg.drift_rate,
            start_day=start_day,
            ramp_day=ramp_day,
        ))
    return users


def _drift_goal(centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return _jittered_unit(centers[int(rng.integers(centers.shape[0]))], 0.15, rng)


def _choice_indices(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index ``Generator.choice(len(row), p=row)`` returns for uniform u.

    Repeats numpy's own rule: cumulative sum, divide by the last entry, then
    ``searchsorted(side="right")``, which for a non-decreasing CDF is the count
    of entries <= u. ``p`` is one row shared by every u, or one row per u, so
    a single ``rng.random(n)`` draws the same numbers as n choice calls.
    """
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= u[:, None]).sum(axis=-1)


def _user_stream(cfg: DatasetConfig, user: UserProfile, user_lang_code: int,
                 rng: np.random.Generator, centers: np.ndarray, days: list,
                 post_ids: np.ndarray, high_dist: np.ndarray, low_dist: np.ndarray,
                 surface_p: np.ndarray) -> list:
    """Generate one user's full event stream. Pure per-user given shared post data.

    ``days[d]`` holds day d's eligible post indices, their topic rows and the
    language-match bias per language code (see `_build_pass`).

    Interest drift migrates each affinity component towards another topic
    center (never into off-manifold space), so drifting users stay coherent
    consumers whose taste moves between topics.
    """
    if user.activity_rate <= 0:
        return []
    aff = user.affinity_vectors.copy()
    weights = user.affinity_weights
    k = aff.shape[0]
    targets = np.stack([_drift_goal(centers, rng) for _ in range(k)])
    # Session rhythm is a per-user trait: some users binge daily, others come
    # back after multi-day gaps. Drawn once so gap structure is user-specific.
    session_rate = 1.0
    if cfg.session_rate < 1.0:
        session_rate = float(np.clip(rng.uniform(cfg.session_rate - 0.25,
                                                 cfg.session_rate + 0.25),
                                     0.15, 1.0))
    engaged = np.zeros(post_ids.size, dtype=bool)   # users never re-engage a post
    any_engaged = False
    sharpness, pivot = cfg.action_signal_sharpness, cfg.action_signal_pivot
    # Each active day's draws; actions, surfaces and events are built at the end.
    picked_days, ts_days, q_best_days, u_days = [], [], [], []

    for day, (elig, elig_topics, lang_bias) in enumerate(days):
        if user.drift_rate > 0:
            for i in range(k):
                aff[i] = _rotate_towards(aff[i], targets[i], user.drift_rate)
                if float(np.dot(aff[i], targets[i])) > 1.0 - 1e-9:
                    targets[i] = _drift_goal(centers, rng)
        if day < user.start_day:
            continue
        rate = user.activity_rate
        if user.ramp_day is not None and day >= user.ramp_day:
            rate = max(rate, cfg.activity_rate)
        if session_rate < 1.0:
            # bursty sessions: quiet days, then intense ones; mean rate preserved
            if rng.random() >= session_rate:
                continue
            n_ev = int(rng.poisson(rate / session_rate))
        else:
            n_ev = int(rng.poisson(rate))
        if n_ev == 0:
            continue
        if elig.size == 0:
            continue
        logits = aff @ elig_topics.T                     # (k, E) cosines
        sharp = cfg.affinity_strength
        if day - user.start_day < cfg.newuser_days:
            sharp *= cfg.newuser_topic_damp  # fresh accounts lean on the popular feed
        logits *= sharp
        logits += lang_bias[user_lang_code]
        logits -= logits.max(axis=1, keepdims=True)
        p_comp = np.exp(logits, out=logits)
        p_comp /= p_comp.sum(axis=1, keepdims=True)
        p = weights @ p_comp                             # mixture over components
        p *= 1.0 - cfg.exploration
        p += cfg.exploration / elig.size
        if any_engaged:
            p[engaged[elig]] = 0.0
            total = p.sum()
            if total <= 0:
                continue
            p /= total
        n_ev = min(n_ev, np.count_nonzero(p > 0))
        if n_ev == 0:
            continue
        chosen = rng.choice(elig.size, size=n_ev, replace=False, p=p)
        offsets = rng.choice(SECONDS_PER_DAY, size=n_ev, replace=False)
        offsets.sort()
        picked = elig[chosen]
        engaged[picked] = True
        any_engaged = True
        picked_days.append(picked)
        ts_days.append(offsets + day * SECONDS_PER_DAY)
        # closeness that drives the action
        q_best_days.append((aff @ elig_topics[chosen].T).max(axis=0))
        # an action uniform, then a surface uniform, per event: the order in
        # which one choice call per action and per surface would draw them
        u_days.append(rng.random(2 * n_ev))

    if not picked_days:
        return []
    # math.exp, not np.exp: the two may round differently.
    w_high = np.array([1.0 / (1.0 + math.exp(-sharpness * (q - pivot)))
                       for q in np.concatenate(q_best_days).tolist()])
    dist = w_high[:, None] * high_dist + (1.0 - w_high)[:, None] * low_dist
    u = np.concatenate(u_days)
    return [InteractionEvent(user_id=user.user_id, post_id=pid, action=_ACTIONS[a],
                             surface=cfg.surfaces[s], ts=ts)
            for pid, a, s, ts in zip(post_ids[np.concatenate(picked_days)].tolist(),
                                     _choice_indices(dist, u[0::2]).tolist(),
                                     _choice_indices(surface_p, u[1::2]).tolist(),
                                     np.concatenate(ts_days).tolist())]


def _build_pass(config: DatasetConfig, seed: int, shares: tuple) -> WorldBundle:
    root = np.random.SeedSequence(seed)
    rng_global = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))

    centers = _unit_rows(rng_global.standard_normal((config.n_topics, config.topic_dim)))
    lang_prior = _lang_center_prior(rng_global, len(config.languages), config.n_topics)
    posts = _make_posts(config, rng_global, centers, lang_prior, shares)
    users = _make_users(config, rng_global, centers, lang_prior)

    topics = np.stack([p.topic for p in posts])
    post_ids = np.array([p.post_id for p in posts], dtype=np.int64)
    lang_to_code = {lang: i for i, lang in enumerate(config.languages)}
    lang_codes = np.array([lang_to_code[p.lang] for p in posts], dtype=np.int64)
    created = np.array([p.created_at for p in posts])
    dies = created + np.array([p.lifetime_days for p in posts])
    # Everything about a day's eligible posts that does not depend on the user.
    boost = math.log(config.lang_match_boost)
    days = []
    for day in range(config.days):
        elig = np.nonzero((created <= day) & (day < dies))[0]
        elig_langs = lang_codes[elig]
        days.append((elig, topics[elig],
                     [np.where(elig_langs == code, boost, 0.0)
                      for code in range(len(config.languages))]))

    high_dist, low_dist = _action_tables(config)
    surface_p = _SURFACE_SHARES[: len(config.surfaces)]
    surface_p = surface_p / surface_p.sum()
    # Independent child seed per user, so each stream depends on its user alone.
    user_seeds = root.spawn(2 + config.users)[2:]
    events = []
    for user, ss in zip(users, user_seeds):
        rng_u = np.random.Generator(np.random.PCG64(ss))
        events.extend(_user_stream(config, user, lang_to_code[user.lang], rng_u,
                                   centers, days, post_ids, high_dist, low_dist,
                                   surface_p))
    events.sort(key=lambda e: (e.user_id, e.ts, e.post_id))
    return WorldBundle(config=config, seed=seed, posts=posts, users=users,
                       events=events, topic_centers=centers)


def _initial_shares(config: DatasetConfig) -> tuple:
    s1 = min(0.97, config.survival_week1 * _CALIBRATION_WEEK1)
    s2 = min(0.93, config.survival_week2 * _CALIBRATION_WEEK2, s1 * 0.95)
    return s1, s2


def build_world(config: DatasetConfig, seed: int) -> WorldBundle:
    """Generate the full synthetic world, returning internals alongside the data.

    When the horizon is long enough to observe full three-week post windows,
    the builder generates twice: a pilot pass measures the survival fractions
    its event stream actually yields, and the final pass regenerates with
    ratio-corrected lifetime shares. Both passes are deterministic in
    (config, seed), so the output still is.
    """
    shares = _initial_shares(config)
    bundle = _build_pass(config, seed, shares)
    if config.calibrate_survival and config.days >= 22 and bundle.events:
        m1, m2 = measure_week_survival(bundle.posts, bundle.events)
        if m1 > 0 and m2 > 0 and math.isfinite(m1) and math.isfinite(m2):
            s1 = min(0.97, max(0.3 * config.survival_week1,
                               shares[0] * config.survival_week1 / m1))
            s2 = min(0.93, max(0.3 * config.survival_week2,
                               shares[1] * config.survival_week2 / m2), s1 * 0.95)
            bundle = _build_pass(config, seed, (s1, s2))
    return bundle


def generate_world(config: DatasetConfig, seed: int):
    """Generate (posts, users, events) deterministically from (config, seed)."""
    bundle = build_world(config, seed)
    return bundle.posts, bundle.users, bundle.events


def measure_week_survival(posts: list, events: list, weeks: int = 2) -> list:
    """Fraction of week-0-engaged posts engaged again in week k, for k=1..weeks.

    Only posts with a full (weeks+1)-week observation window are counted, so the
    statistic is not biased by the end of the simulation.
    """
    if not events:
        return [float("nan")] * weeks
    horizon_days = max(e.day for e in events) + 1
    engaged_days: dict[int, set] = {}
    for e in events:
        engaged_days.setdefault(e.post_id, set()).add(e.day)
    week0 = []
    for p in posts:
        if p.created_at + 7 * (weeks + 1) > horizon_days:
            continue
        days = engaged_days.get(p.post_id)
        if days and any(p.created_at <= d < p.created_at + 7 for d in days):
            week0.append(p)
    out = []
    for k in range(1, weeks + 1):
        if not week0:
            out.append(float("nan"))
            continue
        alive_k = sum(
            1 for p in week0
            if any(p.created_at + 7 * k <= d < p.created_at + 7 * (k + 1)
                   for d in engaged_days[p.post_id])
        )
        out.append(alive_k / len(week0))
    return out

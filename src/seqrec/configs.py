"""Configuration dataclasses with validation and JSON round-trip.

Precedence when resolving a run: CLI flag > JSON config file > dataclass default.
"""
from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from typing import Any

DEFAULT_SURFACES = ("feed", "groups_tab", "search")
DEFAULT_LANGUAGES = ("en", "es", "pt", "de")
DEFAULT_COUNTRIES = ("us", "br", "mx", "de", "in", "gb")


@dataclass
class DatasetConfig:
    """Knobs of the synthetic engagement world generator.

    Users never re-engage a post, so topical behavior needs supply headroom:
    keep activity_rate comfortably below posts_per_day / n_topics, otherwise
    users exhaust their matched topics and are forced onto off-topic posts.
    """

    users: int = 500
    posts_per_day: int = 250
    days: int = 35
    # Topic geometry. Post embeddings produced by the oracle encoder live in
    # the same space as topics, so topic_dim doubles as the embedding dim there.
    topic_dim: int = 64
    n_topics: int = 24
    topic_jitter: float = 0.25
    # Synthetic content channels fed to the trainable post encoder.
    channel_dim: int = 24
    channel_noise: float = 0.30
    max_images: int = 4
    image_rate: float = 0.6        # P(post has >=1 image)
    # Post shelf-life calibration (fraction of week-0-engaged posts that are
    # still engaged one / two weeks later).
    survival_week1: float = 0.23
    survival_week2: float = 0.10
    integrity_rate: float = 0.02
    calibrate_survival: bool = True   # pilot-pass correction of lifetime shares
    # Engagement dynamics.
    activity_rate: float = 8.0     # expected events per user per day
    session_rate: float = 1.0      # P(user is active on a day); <1 gives bursty sessions
    affinity_strength: float = 10.0  # sharpness of topical post choice
    exploration: float = 0.08      # uniform mixing so no eligible post starves
    lang_match_boost: float = 2.5  # multiplicative preference for own-language posts
    max_affinity_components: int = 3
    drift_rate: float = 0.0        # radians/day of interest rotation
    # Action emission: P(high-signal action) rises with topical closeness.
    action_signal_sharpness: float = 4.0
    action_signal_pivot: float = 0.60
    timespent_rate: float = 0.10   # share of TIME_SPENT within the neutral mass
    # Cold-start population shaping.
    cold_user_frac: float = 0.0    # users whose first event falls in the last cold_start_window days
    marginal_user_frac: float = 0.0
    marginal_activity_rate: float = 0.12
    cold_start_window: int = 5
    # Fresh accounts browse the popular/language feed before personalization
    # kicks in: topical sharpness is damped for their first active days.
    newuser_days: int = 2
    newuser_topic_damp: float = 0.3
    lang_topic_concentration: float = 0.8
    surfaces: tuple[str, ...] = DEFAULT_SURFACES
    languages: tuple[str, ...] = DEFAULT_LANGUAGES
    countries: tuple[str, ...] = DEFAULT_COUNTRIES

    def __post_init__(self) -> None:
        if self.users <= 0 or self.posts_per_day <= 0 or self.days <= 0:
            raise ValueError("users, posts_per_day and days must be positive")
        if not (0.0 < self.survival_week2 < self.survival_week1 < 1.0):
            raise ValueError(
                "survival fractions must satisfy 0 < week2 < week1 < 1 "
                f"(got week1={self.survival_week1}, week2={self.survival_week2})"
            )
        if self.topic_dim < 2 or self.n_topics < 1:
            raise ValueError("topic_dim must be >= 2 and n_topics >= 1")
        if not (0.0 <= self.exploration <= 1.0):
            raise ValueError("exploration must lie in [0, 1]")
        if self.activity_rate < 0:
            raise ValueError("activity_rate must be non-negative")
        # The generator draws actions and surfaces from these by CDF lookup,
        # which accepts a negative or NaN share silently; its surface shares
        # cover one slot per default surface.
        if not (math.isfinite(self.timespent_rate) and self.timespent_rate >= 0):
            raise ValueError(f"timespent_rate must be finite and >= 0 (got {self.timespent_rate})")
        for name in ("action_signal_sharpness", "action_signal_pivot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)})")
        self.surfaces = tuple(self.surfaces)
        if not (1 <= len(self.surfaces) <= len(DEFAULT_SURFACES)):
            raise ValueError(f"surfaces must name 1 to {len(DEFAULT_SURFACES)} surfaces "
                             f"(got {len(self.surfaces)})")
        self.languages = tuple(self.languages)
        self.countries = tuple(self.countries)


@dataclass
class EncoderConfig:
    """Architecture of the sequence user tower.

    d_model must equal the post-embedding dimension: the tower's output is
    compared to post vectors by cosine.
    """

    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    max_seq_len: int = 32          # history positions, excluding CLS
    dropout: float = 0.2
    pooling: str = "last"          # last | mean | sum | attention
    d_ff: int = 128
    n_surfaces: int = len(DEFAULT_SURFACES)
    use_cls: bool = True
    causal: bool = True
    use_time: bool = True          # feed log(1 + seconds-ago) alongside the post vector

    POOLINGS = ("last", "mean", "sum", "attention")

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.max_seq_len < 1:
            raise ValueError("max_seq_len must be >= 1")
        if self.pooling not in self.POOLINGS:
            raise ValueError(f"pooling must be one of {self.POOLINGS}")


@dataclass
class LossConfig:
    """Scaled in-batch-negative cross-entropy and the two-objective mix."""

    scale: float = 16.0            # cosine-logit multiplier; useful range ~[15, 20]
    w_short: float = 0.5
    w_long: float = 0.5
    m: int = 5                     # long-horizon label count
    neg_mode: str = "full_pool"    # full_pool | sampled
    neg_sample_k: int = 500

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.w_short < 0 or self.w_long < 0 or abs(self.w_short + self.w_long - 1.0) > 1e-9:
            raise ValueError("w_short and w_long must be non-negative and sum to 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.neg_mode not in ("full_pool", "sampled"):
            raise ValueError("neg_mode must be 'full_pool' or 'sampled'")
        if self.neg_mode == "sampled" and self.neg_sample_k < 0:
            raise ValueError("neg_sample_k must be >= 0")


# The ablation ladder, in order: variant -> (encoder flags, loss overrides,
# model kind). Each transformer rung adds one change to the rung before it.
_CLS_CAUSAL = dict(use_cls=True, causal=True, use_time=False)
_NEXT_POST = dict(w_short=0.0, w_long=1.0, m=1)       # single next-post label
_BOTH = dict(w_short=0.5, w_long=0.5)                 # short- and long-term objectives
VARIANTS = {
    "baseline_avg": ({}, _NEXT_POST, "baseline"),
    "ttt": (dict(use_cls=False, causal=False, use_time=False), _NEXT_POST, "transformer"),
    "ttt_cls": (dict(use_cls=True, causal=False, use_time=False), _NEXT_POST, "transformer"),
    "ttt_causal": (_CLS_CAUSAL, _NEXT_POST, "transformer"),
    "ttt_causal_long": (_CLS_CAUSAL, dict(w_short=0.0, w_long=1.0), "transformer"),
    "ttt_causal_long_short": (_CLS_CAUSAL, _BOTH, "transformer"),
    "full_with_time": (dict(use_cls=True, causal=True, use_time=True), _BOTH, "transformer"),
}
# Rungs the experiments train: sweeps the plain transformer, temporal decay
# the causal one without and with long-term labels.
SWEEP_VARIANT = "ttt"
DECAY_VARIANTS = {"without_long": "ttt_causal", "with_long": "ttt_causal_long"}


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 7e-4
    grad_clip: float = 1.0
    dropout: float = 0.2
    epochs: int = 5
    seed: int = 0
    variant: str = "full_with_time"
    max_train_samples_per_user: int = 4
    sample_stride: int | None = None   # defaults to the long horizon m

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {tuple(VARIANTS)}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: in-batch negatives need other users")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive (use math.inf to disable)")


@dataclass
class BackfillPolicy:
    mode: str = "none"             # none | popular | similar_user
    marginal_threshold: int = 3    # histories shorter than this get backfilled
    fill_to: int = 8

    def __post_init__(self) -> None:
        if self.mode not in ("none", "popular", "similar_user"):
            raise ValueError("mode must be one of none|popular|similar_user")
        if self.marginal_threshold < 1 or self.fill_to < 1:
            raise ValueError("marginal_threshold and fill_to must be >= 1")


@dataclass
class PipelineConfig:
    """How a world's events become samples: the integrity filter, the eval
    holdout, the oracle post encoder's noise and the target window."""

    eval_holdout_days: int = 3
    min_interactions: int = 2
    drop_integrity: bool = True
    oracle_sigma: float = 0.1
    target_window_days: int | None = None   # None: targets from the whole holdout

    def __post_init__(self) -> None:
        if self.eval_holdout_days < 1:
            raise ValueError("eval_holdout_days must be >= 1")
        if self.min_interactions < 0:
            raise ValueError("min_interactions must be >= 0")
        if not (math.isfinite(self.oracle_sigma) and self.oracle_sigma >= 0):
            raise ValueError(f"oracle_sigma must be finite and >= 0 (got {self.oracle_sigma})")
        if self.target_window_days is not None and self.target_window_days < 1:
            raise ValueError("target_window_days must be null or >= 1")


# Config file section -> its dataclass, in the order runs unpack them.
SECTIONS = {"dataset": DatasetConfig, "encoder": EncoderConfig, "loss": LossConfig,
            "train": TrainConfig, "pipeline": PipelineConfig}


def to_json_dict(cfg: Any) -> dict:
    """Dataclass -> plain JSON-serializable dict (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


# Field type -> (what its JSON value must be, test of the value). A JSON
# boolean loads as a Python int, so the number tests exclude it.
_JSON_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[str, ...]: ("a list of strings",
                      lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a list", lambda v: isinstance(v, list)),
}


def from_json_dict(cls, data: dict):
    """Build a dataclass from a JSON object, rejecting unknown and missing keys
    and values whose JSON type does not fit the field."""
    label = next((name for name, c in SECTIONS.items() if c is cls), cls.__name__)
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a JSON object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    missing = [name for name, f in fields.items() if name not in data and
               f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing {label} keys: {missing}")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        hint, nullable = hints[key], type(None) in typing.get_args(hints[key])
        if nullable:                                      # X | None
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        what, ok = _JSON_TYPES[hint]
        if not (ok(value) or nullable and value is None):
            raise ValueError(f"{label}.{key} must be {what}{' or null' if nullable else ''}, "
                             f"got {json.dumps(value, default=repr)}")
    return cls(**data)

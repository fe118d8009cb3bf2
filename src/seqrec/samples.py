"""Event filtering and leakage-free training/eval sample construction."""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .world import SECONDS_PER_DAY


@dataclass(frozen=True, slots=True)
class HistoryItem:
    post_id: int
    action_id: int                 # ActionType value or a reserved id (backfill)
    surface: str
    ts: int


@dataclass(eq=False)
class SequenceSample:
    """One training/eval example.

    history is time-ordered and strictly precedes cutoff_time; every target
    timestamp is >= cutoff_time. short_targets[t] is the post engaged right
    after history position t (so it has len(history) - 1 entries), and
    long_targets are up to m distinct future post ids not present in history.
    """

    user_id: int
    history: list                  # list[HistoryItem], length <= L_max
    long_targets: list             # list[int] post ids
    cutoff_time: int
    target_ts: list = field(default_factory=list)  # timestamps aligned with long_targets

    @property
    def short_targets(self) -> list:
        return [h.post_id for h in self.history[1:]]

    def validate(self) -> None:
        ts = [h.ts for h in self.history]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"user {self.user_id}: history timestamps not strictly increasing")
        if ts and ts[-1] >= self.cutoff_time:
            raise ValueError(f"user {self.user_id}: history reaches past cutoff")
        if any(t < self.cutoff_time for t in self.target_ts):
            raise ValueError(f"user {self.user_id}: target before cutoff")
        hist_ids = {h.post_id for h in self.history}
        if hist_ids & set(self.long_targets):
            raise ValueError(f"user {self.user_id}: target post already in history")


def filter_events(events: list, min_interactions: int = 2,
                  drop_integrity: bool = False, posts: list | None = None) -> list:
    """Drop events on integrity-flagged posts and on posts with too few interactions.

    Counting happens after the integrity drop, so the operation is idempotent:
    surviving posts keep all of their events, hence a second pass sees the same
    counts. Raising min_interactions can only remove events (monotone).
    """
    if min_interactions < 0:
        raise ValueError("min_interactions must be >= 0")
    kept = events
    if drop_integrity:
        if posts is None:
            raise ValueError("drop_integrity requires the posts list")
        flagged = {p.post_id for p in posts if p.integrity_violating}
        kept = [e for e in kept if e.post_id not in flagged]
    if min_interactions > 0:
        counts: dict[int, int] = {}
        for e in kept:
            counts[e.post_id] = counts.get(e.post_id, 0) + 1
        kept = [e for e in kept if counts[e.post_id] >= min_interactions]
    return kept


def events_by_user(events: list) -> dict:
    """user id -> that user's events in time order.

    The sort is stable, so events sharing a timestamp keep their input order.
    """
    per_user: dict[int, list] = {}
    for e in events:
        per_user.setdefault(e.user_id, []).append(e)
    for stream in per_user.values():
        stream.sort(key=lambda e: e.ts)
    return per_user


def holdout_start_ts(events: list, eval_holdout_days: int) -> int:
    """First second of the eval holdout, the final eval_holdout_days whole days
    of the stream; the last of them is the day of the last event.

    Sample cutting, offline eval, the experiments and the serving horizon all
    take their time boundaries from here, on the filtered event stream.
    """
    horizon_day = max((e.ts for e in events), default=0) // SECONDS_PER_DAY + 1
    return (horizon_day - eval_holdout_days) * SECONDS_PER_DAY


def _history_items(stream: list) -> list:
    return [HistoryItem(e.post_id, int(e.action), e.surface, e.ts) for e in stream]


def history_before(stream: list, cutoff_ts: int, max_len: int) -> list:
    """The last max_len events of a time-sorted stream that fall strictly
    before cutoff_ts, as HistoryItems.

    Offline samples, the experiments and the serving refresh all cut user
    histories here.
    """
    n = bisect.bisect_left(stream, cutoff_ts, key=lambda e: e.ts)
    return _history_items(stream[max(0, n - max_len):n])


def collect_targets(future: list, exclude: set, m: int,
                    window_end_ts: int | None = None) -> tuple[list, list]:
    """(ids, timestamps) of the first m distinct posts of a time-sorted stream
    that are not in exclude, stopping at window_end_ts if given."""
    ids, ts = [], []
    seen = set()
    for e in future:
        if window_end_ts is not None and e.ts >= window_end_ts:
            break
        if e.post_id in exclude or e.post_id in seen:
            continue
        ids.append(e.post_id)
        ts.append(e.ts)
        seen.add(e.post_id)
        if len(ids) == m:
            break
    return ids, ts


def build_samples(events: list, L_max: int, m: int, eval_holdout_days: int,
                  stride: int | None = None, max_train_per_user: int = 4,
                  target_window_days: int | None = None):
    """Split the stream into train and eval SequenceSamples.

    Eval samples take everything before the final eval_holdout_days as history
    and the first m distinct posts engaged during the holdout as targets. Train
    samples are cut from strictly earlier windows, walking backwards from the
    holdout boundary with the given stride (default m). target_window_days, if
    set, additionally restricts targets to that many days past the cutoff.
    """
    if L_max < 1 or m < 1 or eval_holdout_days < 1:
        raise ValueError("L_max, m and eval_holdout_days must all be >= 1")
    if not events:
        return [], []
    stride = stride or m
    holdout_ts = holdout_start_ts(events, eval_holdout_days)
    window_secs = None if target_window_days is None else target_window_days * SECONDS_PER_DAY

    train: list[SequenceSample] = []
    eval_: list[SequenceSample] = []
    for uid, stream in sorted(events_by_user(events).items()):
        past = [e for e in stream if e.ts < holdout_ts]
        future = [e for e in stream if e.ts >= holdout_ts]

        if past and future:
            hist = history_before(stream, holdout_ts, L_max)
            hist_ids = {h.post_id for h in hist}
            tgt_ids, tgt_ts = collect_targets(
                future, hist_ids, m,
                None if window_secs is None else holdout_ts + window_secs)
            if tgt_ids:
                eval_.append(SequenceSample(uid, hist, tgt_ids, holdout_ts, tgt_ts))

        # Training windows: targets end at `end`, history is everything before
        # the target block. Walk backwards so the freshest windows are kept.
        made = 0
        end = len(past) - 1
        while made < max_train_per_user and end >= 1:
            block_start = max(1, end - m + 1)
            targets = past[block_start:end + 1]
            hist_events = past[:block_start]
            if not hist_events:
                break
            cutoff = targets[0].ts
            hist = _history_items(hist_events[-L_max:])
            hist_ids = {h.post_id for h in hist}
            tgt_ids, tgt_ts = collect_targets(
                targets, hist_ids, m,
                None if window_secs is None else cutoff + window_secs)
            if tgt_ids:
                sample = SequenceSample(uid, hist, tgt_ids, cutoff, tgt_ts)
                sample.validate()
                train.append(sample)
                made += 1
            end -= stride
    return train, eval_

"""Serving-path simulator: embedding store, refresh jobs and top-K retrieval.

The store follows a single-writer / many-reader discipline. Writers mutate a
private staging map and publish it with an atomic snapshot swap; readers grab
the current snapshot reference once per operation and never observe a
partially applied batch. Retrieval is exact brute-force cosine over the posts
alive on the simulated day, with ties broken by ascending post id so rankings
are a total order.
"""
from __future__ import annotations

import bisect
import json
import logging
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .configs import EncoderConfig
from .embeddings import EmbeddingSet
from .encoder import encode_user_vectors
from .samples import SequenceSample, events_by_user, history_before
from .world import SECONDS_PER_DAY

log = logging.getLogger(__name__)


class IntegrityRejectedError(ValueError):
    """The post is integrity-flagged and may not enter the index."""


class ColdUserError(KeyError):
    """No served embedding for this user; route through the cold-start path."""


@dataclass(frozen=True)
class StoreEntry:
    vector: np.ndarray
    version: int
    updated_at: int


class EmbeddingStore:
    """Versioned id -> (vector, version, updated_at) map with snapshot isolation.

    Reads see the snapshot that was current when they started; a key's version
    strictly increases across upserts. One writer at a time stages changes and
    publishes them with commit().
    """

    def __init__(self):
        self._snapshot: tuple[int, dict] = (0, {})
        self._staging: dict | None = None
        self._write_lock = threading.Lock()

    @property
    def snapshot_id(self) -> int:
        return self._snapshot[0]

    def snapshot(self) -> tuple[int, dict]:
        return self._snapshot

    def get(self, key: int) -> StoreEntry | None:
        return self._snapshot[1].get(int(key))

    def __len__(self) -> int:
        return len(self._snapshot[1])

    def stage_upsert(self, key: int, vector: np.ndarray, updated_at: int) -> int:
        """Stage a write; visible to readers only after the next commit().
        Returns the version the key will have once published."""
        with self._write_lock:
            if self._staging is None:
                self._staging = dict(self._snapshot[1])
            prev = self._staging.get(int(key))
            version = 1 if prev is None else prev.version + 1
            vec = np.array(vector, dtype=np.float32, copy=True)
            vec.setflags(write=False)
            self._staging[int(key)] = StoreEntry(vec, version, updated_at)
            return version

    def commit(self, force: bool = False) -> int:
        """Atomically publish all staged writes; returns the new snapshot id.

        With nothing staged the snapshot stays, unless force publishes the
        same entries under a new id."""
        with self._write_lock:
            if self._staging is not None or force:
                self._snapshot = (self._snapshot[0] + 1,
                                  self._snapshot[1] if self._staging is None else self._staging)
                self._staging = None
            return self._snapshot[0]


@dataclass
class QueryResult:
    ranked: list                  # [(post_id, cosine score)] non-increasing
    filtered_count: int
    work: dict = field(default_factory=dict)


@dataclass(eq=False)
class ServingSim:
    """Day-driven simulation of the production flow around one model checkpoint."""

    posts: list
    params: dict
    enc_cfg: EncoderConfig
    post_encoder: object                  # provides encode_one(post)
    surfaces: dict = field(default_factory=dict)
    post_store: EmbeddingStore = field(default_factory=EmbeddingStore)
    user_store: EmbeddingStore = field(default_factory=EmbeddingStore)
    current_day: int = 0
    query_log: list = field(default_factory=list)

    def __post_init__(self):
        self._posts_by_id = {p.post_id: p for p in self.posts}
        self._flagged = {p.post_id for p in self.posts if p.integrity_violating}
        self._last_refresh_ts: dict[int, int] = {}
        # refresh_users' grouping of its event log (the log and its length):
        # each user's time-sorted stream, in user id order, over all posts and
        # over the unflagged posts only
        self._log: list | None = None
        self._log_len = 0
        self._by_user: dict[int, list] = {}
        self._unflagged: dict[int, list] = {}

    # -- post side ---------------------------------------------------------

    def upsert_post(self, post) -> int:
        """Encode and stage one post; it serves after the next snapshot swap."""
        if post.integrity_violating:
            raise IntegrityRejectedError(f"post {post.post_id} is integrity-flagged")
        self._posts_by_id[post.post_id] = post
        vec = self.post_encoder.encode_one(post)
        return self.post_store.stage_upsert(post.post_id, vec, self.current_day)

    def bootstrap_posts(self, day: int) -> int:
        """Index every non-flagged post created up to `day` in one snapshot
        swap; returns how many posts that is.

        Only posts missing from the current snapshot are encoded and staged.
        The post encoder is deterministic per post, so a post indexed earlier
        keeps its vector, and its `version` and `updated_at` stay at its first
        indexing.
        """
        snap = self.post_store.snapshot()[1]
        n = 0
        for p in self.posts:
            if p.created_at <= day and not p.integrity_violating:
                if p.post_id not in snap:
                    self.upsert_post(p)
                n += 1
        self.post_store.commit(force=n > 0)
        self.current_day = day
        return n

    # -- user side ----------------------------------------------------------

    def refresh_users(self, events: list, day: int) -> int:
        """Recompute embeddings for users with events since their last refresh.

        Each history is the offline one (`samples.history_before`) over the
        user's events on non-flagged posts before the refresh cutoff. Users
        whose history references a post missing from the post index are
        skipped with a log line. All refreshed vectors publish in one snapshot
        swap.

        `events` is read as one event log that callers only append to. It is
        grouped by user once (`samples.events_by_user`) and grouped again only
        when a call passes another log object or a log of another length, so
        days in any order read the same grouping.
        """
        cutoff_ts = day * SECONDS_PER_DAY
        if not (events is self._log and len(events) == self._log_len):
            self._log, self._log_len = events, len(events)
            self._by_user = dict(sorted(events_by_user(events).items()))
            self._unflagged = {uid: [e for e in stream if e.post_id not in self._flagged]
                               for uid, stream in self._by_user.items()}
        post_snap = self.post_store.snapshot()[1]
        refreshed = 0
        batch_samples, batch_uids = [], []
        for uid, stream in self._by_user.items():
            n = bisect.bisect_left(stream, cutoff_ts, key=lambda e: e.ts)
            if n == 0 or stream[n - 1].ts <= self._last_refresh_ts.get(uid, -1):
                continue  # nothing fresh since the previous refresh
            hist = history_before(self._unflagged[uid], cutoff_ts,
                                  self.enc_cfg.max_seq_len)
            if not hist:
                continue
            missing = [h.post_id for h in hist if h.post_id not in post_snap]
            if missing:
                log.warning("refresh_users: user %d history references post %d "
                            "with no served embedding; skipping user", uid, missing[0])
                continue
            batch_samples.append(SequenceSample(uid, hist, [], cutoff_ts))
            batch_uids.append(uid)
        if batch_samples:
            ids = sorted({h.post_id for s in batch_samples for h in s.history})
            embs = EmbeddingSet(ids, [post_snap[pid].vector for pid in ids],
                                check_norm=False)
            vecs = encode_user_vectors(batch_samples, embs, self.params,
                                       self.enc_cfg, self.surfaces)
            for uid, vec in zip(batch_uids, vecs):
                self.user_store.stage_upsert(uid, vec, day)
                self._last_refresh_ts[uid] = cutoff_ts - 1
                refreshed += 1
        self.user_store.commit()
        self.current_day = day
        return refreshed

    # -- query side ----------------------------------------------------------

    def retrieve(self, user_id: int, k: int, threshold: float = -1.0) -> QueryResult:
        """Exact top-k posts by cosine among posts alive today, then threshold-filter."""
        if k <= 0:
            raise ValueError("k must be positive")
        entry = self.user_store.get(user_id)
        if entry is None:
            raise ColdUserError(f"user {user_id} has no served embedding")
        t0 = time.perf_counter()
        post_snap = self.post_store.snapshot()[1]
        ids, rows = [], []
        for pid in post_snap:
            post = self._posts_by_id.get(pid)
            if post is not None and post.alive_on(self.current_day):
                ids.append(pid)
                rows.append(post_snap[pid].vector)
        uvec = entry.vector.astype(np.float64)
        result: list[tuple[int, float]] = []
        if ids:
            mat = np.stack(rows).astype(np.float64)
            scores = mat @ uvec
            order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
            result = [(ids[i], float(scores[i])) for i in order]
        kept = [(pid, sc) for pid, sc in result if sc >= threshold]
        elapsed = time.perf_counter() - t0
        qr = QueryResult(ranked=kept, filtered_count=len(result) - len(kept),
                         work={"corpus": len(ids), "dim": len(uvec),
                               "seconds": elapsed})
        self.query_log.append({
            "user_id": user_id, "K": k, "threshold": threshold,
            "returned": [pid for pid, _ in kept],
            "scores": [sc for _, sc in kept],
            "ts": self.current_day * SECONDS_PER_DAY,
        })
        return qr

    def write_query_log(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.query_log:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

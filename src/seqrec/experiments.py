"""Deployment-style experiments: embedding staleness, decay of model
performance over the week after training, and architecture sweeps."""
from __future__ import annotations

import dataclasses
import logging
import time

import numpy as np

from .configs import EncoderConfig, LossConfig, TrainConfig
from .metrics import EvalReport, top_k_columns
from .pipeline import PipelineData, alive_corpus
from .samples import HistoryItem, SequenceSample, events_by_user
from .trainer import UserTower, train
from .world import SECONDS_PER_DAY

log = logging.getLogger(__name__)


def _history_sample(uid: int, stream: list, cutoff_ts: int, max_len: int):
    hist = [HistoryItem(e.post_id, int(e.action), e.surface, e.ts)
            for e in stream if e.ts < cutoff_ts][-max_len:]
    if not hist:
        return None
    return SequenceSample(uid, hist, [], cutoff_ts)


def _knn_hits_excluding_seen(user_vecs: np.ndarray, target_sets: list,
                             seen_sets: list, corpus_ids: np.ndarray,
                             corpus_vecs: np.ndarray, k: int):
    """KNN Hits@k where each user's already-engaged posts cannot be retrieved.

    A user cannot re-engage a post, so serving never shows consumed items;
    without this filter the freshest embeddings are crowded out of the top K
    by the very posts they were computed from.
    """
    col = {int(pid): i for i, pid in enumerate(corpus_ids)}
    hidden = [(row, col[int(pid)]) for row, seen in enumerate(seen_sets)
              for pid in seen if int(pid) in col]
    scores = user_vecs @ corpus_vecs.T
    scores[[r for r, _ in hidden], [c for _, c in hidden]] = -np.inf
    top = corpus_ids[top_k_columns(scores, corpus_ids, k)]
    hits = sum(1 for targets, row in zip(target_sets, top)
               if set(targets) & set(row.tolist()))
    return EvalReport(metric="knn_hits", k=k, hits=hits, n_queries=len(target_sets))


def staleness_experiment(tower: UserTower, data: PipelineData,
                         max_stale_days: int, k: int = 20,
                         m_eval: int = 5) -> list:
    """KNN Hits@K when user embeddings are 0..max_stale_days days old.

    For staleness d the history is truncated at (eval_day - d) and encoded with
    that cutoff, exactly what a d-day-old serving embedding would contain. The
    user set is fixed across d (history non-empty even at the deepest
    truncation) so the series is comparable point to point.
    """
    eval_day = data.holdout_start_ts // SECONDS_PER_DAY
    horizon = eval_day + data.eval_holdout_days
    per_user = events_by_user(data.events)
    targets = {s.user_id: s.long_targets[:m_eval] for s in data.eval if s.long_targets}

    deepest = (eval_day - max_stale_days) * SECONDS_PER_DAY
    users = [uid for uid in sorted(targets)
             if uid in per_user and any(e.ts < deepest for e in per_user[uid])]
    corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings,
                                           eval_day, horizon - 1)
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    # posts consumed before the holdout can never be served again; the seen set
    # uses the full pre-holdout stream so the candidate pool is identical for
    # every staleness level
    seen = [{e.post_id for e in per_user[uid] if e.ts < data.holdout_start_ts}
            for uid in users]
    reports = []
    base_value = None
    for d in range(max_stale_days + 1):
        cutoff_ts = (eval_day - d) * SECONDS_PER_DAY
        samples = [_history_sample(uid, per_user[uid], cutoff_ts,
                                   tower.enc_cfg.max_seq_len) for uid in users]
        user_vecs = tower.eval_user_vectors(samples, data.embeddings)
        rep = _knn_hits_excluding_seen(user_vecs, [targets[uid] for uid in users],
                                       seen, corpus_ids, corpus_vecs, k)
        if d == 0:
            base_value = rep.value
        drop = 0.0 if base_value in (None, 0.0) else (base_value - rep.value) / base_value
        rep.slice = {"staleness_days": d, "drop": drop}
        reports.append(rep)
    return reports


def temporal_decay_experiment(data: PipelineData, enc_cfg: EncoderConfig,
                              loss_cfg: LossConfig, train_cfg: TrainConfig,
                              horizon_days: int = 7, k: int = 20) -> dict:
    """Per-day KNN Hits@K over the week after the training window, for models
    trained with and without the long-term objective.

    data must be prepared with eval_holdout_days >= horizon_days and training
    targets restricted to a short window. The headline statistic is the
    relative drop from day 1 to day `horizon_days`.
    """
    if data.eval_holdout_days < horizon_days:
        raise ValueError(f"need a holdout of >= {horizon_days} days")
    eval_day = data.holdout_start_ts // SECONDS_PER_DAY
    per_user = events_by_user(data.events)

    day_targets: list[dict] = []
    for h in range(horizon_days):
        lo = (eval_day + h) * SECONDS_PER_DAY
        hi = lo + SECONDS_PER_DAY
        per_day: dict[int, list] = {}
        for uid, stream in per_user.items():
            ids = []
            for e in stream:
                if lo <= e.ts < hi and e.post_id not in ids:
                    ids.append(e.post_id)
            if ids:
                per_day[uid] = ids[:loss_cfg.m]
        day_targets.append(per_day)

    out: dict[str, list] = {}
    for label, variant in (("without_long", "ttt_causal"),
                           ("with_long", "ttt_causal_long")):
        tcfg = dataclasses.replace(train_cfg, variant=variant)
        tower, _ = train(data.train, data.eval, data.embeddings,
                         enc_cfg, loss_cfg, tcfg, data.surfaces)
        # history is fixed at the end of the training window
        cutoff_ts = data.holdout_start_ts
        cache_vec: dict[int, np.ndarray] = {}
        seen_all = {uid: {e.post_id for e in stream if e.ts < cutoff_ts}
                    for uid, stream in per_user.items()}
        reports = []
        for h in range(horizon_days):
            per_day = day_targets[h]
            users = [uid for uid in sorted(per_day)
                     if uid in per_user and any(e.ts < cutoff_ts for e in per_user[uid])]
            missing = [u for u in users if u not in cache_vec]
            if missing:
                samples = [_history_sample(u, per_user[u], cutoff_ts,
                                           tower.enc_cfg.max_seq_len) for u in missing]
                vecs = tower.eval_user_vectors(samples, data.embeddings)
                cache_vec.update(dict(zip(missing, vecs)))
            day = eval_day + h
            corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings, day, day)
            rep = _knn_hits_excluding_seen(
                np.stack([cache_vec[u] for u in users]),
                [per_day[u] for u in users],
                [seen_all[u] for u in users],
                np.asarray(corpus_ids, dtype=np.int64), corpus_vecs, k)
            rep.slice = {"eval_day_offset": h + 1, "variant": label}
            reports.append(rep)
        first, last = reports[0].value, reports[-1].value
        drop = 0.0 if first == 0 else (first - last) / first
        for rep in reports:
            rep.slice["day%d_drop" % horizon_days] = drop
        out[label] = reports
    return out


def coldstart_eval(data: PipelineData, tower: UserTower,
                   policy_modes: tuple = ("none", "popular", "similar_user"),
                   k: int = 10, m_eval: int = 5, marginal_threshold: int = 3,
                   fill_to: int = 8) -> dict:
    """KNN Hits@k on the cold/marginal-only user slice, per backfill policy.

    The slice is every user with fewer than marginal_threshold events before
    the holdout and at least one holdout engagement. Backfill sources (popular
    posts, user-user similarity) are computed from the training window only.
    """
    from .configs import BackfillPolicy
    from .coldstart import PopularityIndex, backfill_history, user_user_similarity

    if not data.users:
        raise ValueError("this world has no generator user profiles (a world read "
                         "from disk carries none); coldstart_eval needs them to backfill")
    cutoff = data.holdout_start_ts
    per_user = events_by_user(data.events)
    profiles = {u.user_id: u for u in data.users}
    eval_day = cutoff // SECONDS_PER_DAY
    horizon = eval_day + data.eval_holdout_days

    slice_users = []
    real_hist: dict[int, list] = {}
    targets: dict[int, list] = {}
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
        real_hist[uid] = [HistoryItem(e.post_id, int(e.action), e.surface, e.ts)
                          for e in past]
        targets[uid] = future_ids[:m_eval]
    slice_users.sort()
    if not slice_users:
        raise ValueError("no cold/marginal users in this world; "
                         "set cold_user_frac/marginal_user_frac in the config")

    window = [e for e in data.events if e.ts < cutoff]
    popularity = PopularityIndex(window, data.posts)
    similarity = user_user_similarity(window)
    corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings,
                                           eval_day, horizon - 1)
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)

    out = {}
    for mode in policy_modes:
        policy = BackfillPolicy(mode=mode, marginal_threshold=marginal_threshold,
                                fill_to=fill_to)
        samples = []
        for uid in slice_users:
            hist = backfill_history(profiles[uid], real_hist[uid], policy,
                                    window, similarity, popularity, cutoff)
            samples.append(SequenceSample(uid, hist[-tower.enc_cfg.max_seq_len:],
                                          [], cutoff))
        user_vecs = tower.eval_user_vectors(samples, data.embeddings)
        rep = _knn_hits_excluding_seen(
            user_vecs, [targets[u] for u in slice_users],
            [{h.post_id for h in real_hist[u]} for u in slice_users],
            corpus_ids, corpus_vecs, k)
        rep.slice = {"policy": mode, "slice_users": len(slice_users)}
        out[mode] = rep
    return out


def sweep(axis: str, values: list, data: PipelineData, enc_cfg: EncoderConfig,
          loss_cfg: LossConfig, train_cfg: TrainConfig,
          seeds: tuple = (0,)) -> list:
    """Train the plain two-tower-transformer variant per axis value and report
    mean batch Hits@1 plus wall-clock per optimization step."""
    if axis not in ("seq_len", "layers"):
        raise ValueError("axis must be 'seq_len' or 'layers'")
    if list(values) != sorted(values):
        raise ValueError("values must be sorted ascending")
    reports = []
    for value in values:
        if axis == "seq_len":
            cfg = dataclasses.replace(enc_cfg, max_seq_len=int(value))
        else:
            cfg = dataclasses.replace(enc_cfg, n_layers=int(value))
        hits = []
        secs_per_step = []
        n_queries = 0
        for seed in seeds:
            tcfg = dataclasses.replace(train_cfg, seed=int(seed), variant="ttt")
            t0 = time.perf_counter()
            _, report = train(data.train, data.eval, data.embeddings,
                              cfg, loss_cfg, tcfg, data.surfaces)
            steps = max(len(report.losses), 1)
            secs_per_step.append((time.perf_counter() - t0) / steps)
            hits.append(report.final_hits1)
            n_queries = report.n_eval_queries
        mean_hits = float(np.mean(hits))
        reports.append(EvalReport(
            metric="batch_hits", k=1,
            hits=int(round(mean_hits * n_queries)), n_queries=n_queries,
            slice={axis: value, "secs_per_step": float(np.mean(secs_per_step)),
                   "seeds": len(seeds)}))
    return reports

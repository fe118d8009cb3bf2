"""Deployment-style experiments: embedding staleness, decay of model
performance over the week after training, and architecture sweeps."""
from __future__ import annotations

import dataclasses
import logging
import time

import numpy as np

from .configs import DECAY_VARIANTS, SWEEP_VARIANT, EncoderConfig, LossConfig, TrainConfig
from .metrics import EvalReport, knn_hits_at_k, seen_cells
from .pipeline import PipelineData, alive_corpus
from .samples import SequenceSample, collect_targets, events_by_user, history_before
from .trainer import UserTower, train
from .world import SECONDS_PER_DAY

log = logging.getLogger(__name__)

# sweep axis -> the EncoderConfig field it sets
SWEEP_AXES = {"seq_len": "max_seq_len", "layers": "n_layers"}


def staleness_experiment(tower: UserTower, data: PipelineData,
                         max_stale_days: int, k: int = 20,
                         m_eval: int = 5) -> list:
    """KNN Hits@K when user embeddings are 0..max_stale_days days old.

    For staleness d the history is truncated at (eval_day - d) and encoded with
    that cutoff, exactly what a d-day-old serving embedding would contain. The
    user set is fixed across d (history non-empty even at the deepest
    truncation) so the series is comparable point to point.
    """
    if max_stale_days < 0:
        raise ValueError(f"max_stale_days must be >= 0, got {max_stale_days}")
    days = data.holdout_days
    per_user = events_by_user(data.events)
    targets = {s.user_id: s.long_targets[:m_eval] for s in data.eval if s.long_targets}
    deepest_day = days[0] - max_stale_days
    users = [uid for uid in sorted(targets)
             if uid in per_user and per_user[uid][0].ts < deepest_day * SECONDS_PER_DAY]
    if not users:
        raise ValueError(f"no eval user has history before day {deepest_day}, the "
                         f"cutoff at {max_stale_days} stale days")
    corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings, days[0], days[-1])
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    # posts consumed before the holdout can never be served again; the seen set
    # uses the full pre-holdout stream so the candidate pool is identical for
    # every staleness level
    seen = seen_cells([{e.post_id for e in per_user[uid]
                        if e.ts < data.holdout_start_ts} for uid in users], corpus_ids)
    max_len = tower.enc_cfg.max_seq_len
    reports = []
    base_value = None
    for d in range(max_stale_days + 1):
        cutoff_ts = (days[0] - d) * SECONDS_PER_DAY
        samples = [SequenceSample(uid, history_before(per_user[uid], cutoff_ts, max_len),
                                  [], cutoff_ts) for uid in users]
        user_vecs = tower.eval_user_vectors(samples, data.embeddings)
        rep = knn_hits_at_k(user_vecs, [targets[uid] for uid in users],
                            corpus_ids, corpus_vecs, k, seen)
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
    if horizon_days < 1:
        raise ValueError(f"horizon_days must be >= 1, got {horizon_days}")
    if data.eval_holdout_days < horizon_days:
        raise ValueError(f"need a holdout of >= {horizon_days} days")
    days = data.holdout_days[:horizon_days]
    per_user = events_by_user(data.events)
    day_targets: list[dict] = []
    for day in days:
        lo = day * SECONDS_PER_DAY
        per_day: dict[int, list] = {}
        for uid, stream in per_user.items():
            ids, _ = collect_targets([e for e in stream if e.ts >= lo], set(),
                                     loss_cfg.m, lo + SECONDS_PER_DAY)
            if ids:
                per_day[uid] = ids
        day_targets.append(per_day)

    # history is fixed at the end of the training window
    cutoff_ts = data.holdout_start_ts
    seen_all = {uid: {e.post_id for e in stream if e.ts < cutoff_ts}
                for uid, stream in per_user.items()}
    out: dict[str, list] = {}
    for label, variant in DECAY_VARIANTS.items():
        tcfg = dataclasses.replace(train_cfg, variant=variant)
        tower, _ = train(data.train, data.eval, data.embeddings,
                         enc_cfg, loss_cfg, tcfg, data.surfaces)
        cache_vec: dict[int, np.ndarray] = {}
        reports = []
        for h, (day, per_day) in enumerate(zip(days, day_targets)):
            users = [uid for uid in sorted(per_day) if per_user[uid][0].ts < cutoff_ts]
            missing = [u for u in users if u not in cache_vec]
            if missing:
                samples = [SequenceSample(u, history_before(per_user[u], cutoff_ts,
                                                            tower.enc_cfg.max_seq_len),
                                          [], cutoff_ts) for u in missing]
                vecs = tower.eval_user_vectors(samples, data.embeddings)
                cache_vec.update(zip(missing, vecs))
            corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings, day, day)
            corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
            rep = knn_hits_at_k(np.stack([cache_vec[u] for u in users]),
                                [per_day[u] for u in users], corpus_ids, corpus_vecs, k,
                                seen_cells([seen_all[u] for u in users], corpus_ids))
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

    real_hist: dict[int, list] = {}
    targets: dict[int, list] = {}
    for uid, stream in per_user.items():
        # a history of marginal_threshold events means the user is not marginal
        hist = history_before(stream, cutoff, marginal_threshold)
        if len(hist) >= marginal_threshold or uid not in profiles:
            continue
        ids, _ = collect_targets([e for e in stream if e.ts >= cutoff],
                                 {h.post_id for h in hist}, m_eval)
        if ids:
            real_hist[uid], targets[uid] = hist, ids
    slice_users = sorted(real_hist)
    if not slice_users:
        raise ValueError("no cold/marginal users in this world; "
                         "set cold_user_frac/marginal_user_frac in the config")

    window = [e for e in data.events if e.ts < cutoff]
    popularity = PopularityIndex(window, data.posts)
    similarity = user_user_similarity(window)
    days = data.holdout_days
    corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings, days[0], days[-1])
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    # every policy keeps the real history, so all share one seen set per user
    seen = seen_cells([{h.post_id for h in real_hist[u]} for u in slice_users], corpus_ids)

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
        rep = knn_hits_at_k(user_vecs, [targets[u] for u in slice_users],
                            corpus_ids, corpus_vecs, k, seen)
        rep.slice = {"policy": mode, "slice_users": len(slice_users)}
        out[mode] = rep
    return out


def sweep(axis: str, values: list, data: PipelineData, enc_cfg: EncoderConfig,
          loss_cfg: LossConfig, train_cfg: TrainConfig,
          seeds: tuple = (0,)) -> list:
    """Train the plain two-tower-transformer variant per axis value and report
    mean batch Hits@1 plus wall-clock per optimization step."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {list(SWEEP_AXES)}")
    if list(values) != sorted(values):
        raise ValueError("values must be sorted ascending")
    reports = []
    for value in values:
        cfg = dataclasses.replace(enc_cfg, **{SWEEP_AXES[axis]: int(value)})
        hits = []
        secs_per_step = []
        n_queries = 0
        for seed in seeds:
            tcfg = dataclasses.replace(train_cfg, seed=int(seed), variant=SWEEP_VARIANT)
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

"""The three uses of the user tower, each run against the shared set-up.

* train: closed loop of ``train_step`` over TRAIN_EPOCHS whole epochs, then
  ``batch_hits_eval``. The only phase that runs backward, loss and Adam.
* serve: for each of the last SERVE_DAYS simulated days the day's turnover
  (``bootstrap_posts`` + ``refresh_users``) commits new snapshots, then the
  day's ``retrieve`` queries arrive as an open loop at each rate of LADDER_QPS.
* eval: offline batch ranking passes (``encode_user_vectors``,
  ``batch_hits_eval``, ``knn_hits_at_k``, staleness, cold start), repeated
  until the phase has measured for the requested seconds.

Each phase is a generator that does one ROUNDS-th of its work per ``next()``
and returns its PhaseResult. ``interleave`` runs the phases round-robin, so
each one samples the whole run rather than a window of it: the speed of a
shared machine drifts over tens of seconds, and a phase timed in one window
reads that window's speed. ``drain`` runs one phase alone.

Every phase runs untraced for the end-to-end metrics. Given a Tracer it runs
the identical work with spans recorded around the calls into each layer, and
``layer_metrics`` turns those spans into per-layer numbers.
"""
from __future__ import annotations

import contextlib
import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from seqrec.encoder import init_params
from seqrec.experiments import coldstart_eval, staleness_experiment
from seqrec.metrics import knn_hits_at_k, knn_top_ids
from seqrec.optim import Adam
from seqrec.pipeline import alive_corpus
from seqrec.serving import ServingSim
from seqrec.trainer import UserTower, assemble_batch, batch_hits_eval, epoch_batch_order, train_step
from seqrec.world import SECONDS_PER_DAY

from . import oracles
from .openloop import keeps_up, run_open_loop
from .provenance import digest_floats
from .stats import min_samples, percentile
from .tracer import group_under, self_times

K = 10
# Two epochs are the fewest that let the loss check compare a last epoch
# with a first; at desk scale they give about 80 steps, so the step-time tail
# is reported at TRAIN_TAIL_P, the highest percentile with ten steps beyond
# it. A third epoch for p90 would cost a fifth of the run.
TRAIN_EPOCHS = 2
TRAIN_TAIL_P = 75
# Rounds of the interleaved schedule; serve serves one simulated day a round,
# train runs a tenth of its steps and eval tops up a tenth of its seconds.
ROUNDS = 10
SERVE_DAYS = ROUNDS
# Open-loop rates in queries/s, ascending. On a shared 2-CPU x86 box the
# seed's retrieve takes 3.5-10 ms a query as the machine's speed drifts, so it
# sustains 100-280 queries/s; "low" and "high" sit near half and four-fifths
# of the slow end. The next rung sits above the fast end, so the highest rung
# met does not flip with the drift, and the rungs above it exist so that a
# many-times-faster retrieve can show. Above "high" the ladder stops at the
# first rung that misses the latency limit or whose backlog grows.
LADDER_QPS = (50.0, 80.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0)
NAMED_RUNGS = {"low": 50.0, "high": 80.0}
# Every rung sends the same number of queries per day, 150 over all days:
# enough that TAIL_P has ten samples beyond it. A p99 would need 1000, which
# the run's time budget does not allow.
TAIL_P = 90
LATENCY_LIMIT_MS = 100.0            # on the TAIL_P latency, from due time
QUERIES_PER_RUNG_DAY = max(15, math.ceil(min_samples(TAIL_P) / SERVE_DAYS))
QUERY_STREAM = 1                    # spawn key of the query-draw RNG
MAX_STALE_DAYS = 6
# Users with fewer past events than this form the cold-start slice. Desk
# worlds have no user below 13 events; 40 takes roughly the lightest tenth.
COLD_THRESHOLD = 40


@dataclass
class PhaseResult:
    metrics: dict = field(default_factory=dict)     # end-to-end name -> value
    layers: dict = field(default_factory=dict)      # per-layer name -> value
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: object = None          # compared bit for bit, traced vs untraced
    headline_s: float = 0.0         # the time trace overhead is judged on
    digests: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def _spanner(tracer):
    return tracer.span if tracer is not None else (lambda name, **kw: contextlib.nullcontext())


def _ms(x: float) -> float:
    return x * 1000.0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _attn_bytes(span, args, kwargs, result):
    x = args[0]
    heads = args[5] if len(args) > 5 else kwargs["n_heads"]
    b, l, _ = x.shape
    span.attrs["bytes"] = b * heads * l * l * 8


def _pad(span, args, kwargs, result):
    span.attrs["cells"] = result.valid.size
    span.attrs["pad"] = int(result.valid.size - result.valid.sum())


def _pool_size(span, args, kwargs, result):
    span.attrs["pool"] = len(result)


def _anchors(span, args, kwargs, result):
    span.attrs["anchors"] = result[0].n_terms


TRAIN_WRAPS = [
    ("seqrec.trainer", "assemble_batch_inputs", "encoder.assemble_batch_inputs", _pad),
    ("seqrec.trainer", "encode_batch", "encoder.encode_batch", None),
    ("seqrec.trainer", "backward_batch", "encoder.backward_batch", None),
    ("seqrec.trainer", "short_term_loss", "loss.short_term_loss", _anchors),
    ("seqrec.trainer", "long_term_loss", "loss.long_term_loss", _anchors),
    ("seqrec.trainer", "clip_by_global_norm", "optim.clip_by_global_norm", None),
    ("seqrec.optim:Adam", "step", "optim.adam_step", None),
    ("seqrec.loss", "build_pool", "loss.build_pool", _pool_size),
    ("seqrec.encoder", "attention_bias", "blocks.attention_bias", None),
    ("seqrec.encoder", "mha_forward", "blocks.mha_forward", _attn_bytes),
    ("seqrec.encoder", "ffn_forward", "blocks.ffn_forward", None),
    ("seqrec.encoder", "layer_norm_forward", "blocks.layer_norm_forward", None),
    ("seqrec.encoder", "dropout_forward", "blocks.dropout_forward", None),
    ("seqrec.encoder", "mha_backward", "blocks.mha_backward", None),
    ("seqrec.encoder", "ffn_backward", "blocks.ffn_backward", None),
    ("seqrec.encoder", "layer_norm_backward", "blocks.layer_norm_backward", None),
    ("seqrec.encoder", "assembly_backward", "encoder.assembly_backward", None),
]

_STEP_TIMES = ("trainer.train_step", "encoder.assemble_batch_inputs", "encoder.encode_batch",
               "blocks.attention_bias", "blocks.mha_forward", "blocks.ffn_forward",
               "blocks.layer_norm_forward", "blocks.dropout_forward",
               "encoder.backward_batch", "blocks.mha_backward", "blocks.ffn_backward",
               "blocks.layer_norm_backward", "encoder.assembly_backward",
               "optim.clip_by_global_norm", "optim.adam_step", "loss.short_term_loss",
               "loss.long_term_loss", "loss.build_pool")


def _slices(n: int, rounds: int) -> list:
    """Cut range(n) into ``rounds`` contiguous slices of near-equal length."""
    return [range(n * r // rounds, n * (r + 1) // rounds) for r in range(rounds)]


def train_phase(fx, tracer=None):
    span = _spanner(tracer)
    out = PhaseResult()
    enc, loss_cfg, tcfg = fx.enc_cfg, fx.loss_cfg, fx.train_cfg
    params = init_params(enc, tcfg.seed)
    tower = UserTower(fx.tower.kind, params, enc, fx.surfaces)
    opt = Adam(params, lr=tcfg.learning_rate)
    usable = [s for s in fx.train if s.long_targets and (s.history or enc.use_cls)]

    t0 = time.perf_counter()
    batches = assemble_batch(usable, tcfg.batch_size, tcfg.seed)
    out.layers["train.trainer.assemble_batch_s"] = time.perf_counter() - t0
    out.layers["train.trainer.samples_dropped"] = len(usable) - sum(len(b) for b in batches)

    order = [(epoch, int(bi)) for epoch in range(TRAIN_EPOCHS)
             for bi in epoch_batch_order(len(batches), tcfg.seed, epoch)]
    step_s, losses, clipped = [], [], 0
    for r, steps in enumerate(_slices(len(order), ROUNDS)):
        if r:
            yield
        for step in steps:
            epoch, bi = order[step]
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with span("trainer.train_step"):
                    m = train_step(tower, opt, batches[bi], fx.embeddings,
                                   tcfg, loss_cfg, epoch, step)
            except Exception as exc:  # noqa: BLE001 - a failed step is counted
                out.fail(f"train step {step}: {exc!r}")
                losses.append(float("nan"))
            else:
                step_s.append(time.perf_counter() - t0)
                losses.append(m["loss"])
                clipped += m["grad_norm"] > tcfg.grad_clip

    t0 = time.perf_counter()
    _, hits10, _ = batch_hits_eval(tower, fx.eval, fx.embeddings, tcfg.batch_size)
    out.layers["train.trainer.batch_hits_eval_s"] = time.perf_counter() - t0

    problem = oracles.loss_trajectory_problem(losses, len(batches))
    if problem:
        out.fail(f"train: {problem}")
    if step_s:
        out.metrics["train.samples_per_s"] = len(step_s) * tcfg.batch_size / sum(step_s)
        out.metrics["train.step_p50_ms"] = _ms(percentile(step_s, 50))
        out.metrics[f"train.step_p{TRAIN_TAIL_P}_ms"] = _ms(percentile(step_s, TRAIN_TAIL_P))
        out.headline_s = percentile(step_s, 50)
    out.metrics["train.hits10"] = hits10
    out.layers["train.optim.clip_rate"] = clipped / max(len(step_s), 1)
    out.layers["train.trainer.steps"] = len(step_s)
    out.outputs = (losses, hits10)
    out.digests["train_losses"] = digest_floats(losses)
    return out


def _train_layers(spans, selfs) -> dict:
    per_step = []
    for root, desc in group_under(spans, "trainer.train_step").items():
        row = {name: 0.0 for name in _STEP_TIMES}
        row["trainer.train_step"] = selfs[root]
        for s in desc:
            if s.name in row:
                row[s.name] += selfs[s.id]
        by_parent = {}
        for s in desc:
            by_parent.setdefault(s.parent, []).append(s)
        cells = sum(s.attrs.get("cells", 0) for s in desc)
        row["pad_share"] = sum(s.attrs.get("pad", 0) for s in desc) / cells if cells else 0.0
        row["attn_mb"] = sum(s.attrs.get("bytes", 0) for s in desc) / 1e6
        for s in desc:
            if s.name in ("loss.short_term_loss", "loss.long_term_loss"):
                kind = "short" if s.name == "loss.short_term_loss" else "long"
                pool = sum(c.attrs.get("pool", 0) for c in by_parent.get(s.id, ()))
                row[f"{kind}_anchors"] = s.attrs.get("anchors", 0)
                row[f"{kind}_pool"] = pool
                if kind == "short":
                    row["short_logits_mb"] = s.attrs.get("anchors", 0) * pool * 8 / 1e6
        per_step.append(row)
    if not per_step:
        return {}

    def med(key):
        return percentile([r.get(key, 0.0) for r in per_step], 50)

    layers = {f"train.{name}_ms": _ms(med(name)) for name in _STEP_TIMES}
    layers.update({
        "train.loss.short_anchors": med("short_anchors"),
        "train.loss.short_pool": med("short_pool"),
        "train.loss.long_anchors": med("long_anchors"),
        "train.loss.long_pool": med("long_pool"),
        "train.loss.short_logits_mb": med("short_logits_mb"),
        "train.blocks.attn_scores_mb": med("attn_mb"),
        "train.encoder.pad_share": med("pad_share"),
    })
    return layers


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

SERVE_WRAPS = [
    ("seqrec.serving", "encode_user_vectors", "encoder.encode_user_vectors", None),
]


def _rung_meets(runs: list) -> bool:
    """A rung meets the limit when its TAIL_P latency over ``runs`` is within
    LATENCY_LIMIT_MS and no backlog grows."""
    lat = [x for r in runs for x in r.latency]
    return (keeps_up(runs) and percentile(lat, TAIL_P, require_support=False)
            <= LATENCY_LIMIT_MS / 1000.0)


def _check_day(sim, posts_by_id, day, queries, out) -> None:
    """Check every query of one day against a float64 rebuild of the same
    snapshot, and against the offline KNN ranking (serving/offline parity)."""
    post_snap = sim.post_store.snapshot()[1]
    user_snap = sim.user_store.snapshot()[1]
    ids = np.array([pid for pid in post_snap if posts_by_id[pid].alive_on(day)], dtype=np.int64)
    mat = np.stack([post_snap[int(pid)].vector for pid in ids]).astype(np.float64)
    for uid, res in queries:
        if res is None:
            continue
        uvec = user_snap[uid].vector.astype(np.float64)
        ref_ids, ref_scores = oracles.reference_top_k(ids, mat, uvec, K)
        why = oracles.ranking_mismatch(res.ranked, ref_ids, ref_scores)
        if why is None and knn_top_ids(uvec, ids, mat, K).tolist() != ref_ids.tolist():
            why = "offline knn_top_ids differs from serving"
        if why:
            out.fail(f"serve day {day} user {uid}: {why}")


def serve_phase(fx, tracer=None):
    span = _spanner(tracer)
    out = PhaseResult()
    sim = ServingSim(posts=fx.posts, params=fx.tower.params, enc_cfg=fx.enc_cfg,
                     post_encoder=fx.post_encoder, surfaces=fx.surfaces)
    posts_by_id = {p.post_id: p for p in fx.posts}
    runs = {rate: [] for rate in LADDER_QPS}
    top_rung = len(LADDER_QPS)      # rungs at or above this index stopped
    boot_s = refresh_s = 0.0
    staged = refreshed = 0
    corpus, walked, outputs = [], [], {}

    def turnover(what, fn) -> tuple[int, float]:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with span(f"serving.{what}"):
                n = fn()
        except Exception as exc:  # noqa: BLE001 - a failed turnover is counted
            out.fail(f"serve day {day} {what}: {exc!r}")
            n = 0
        return n, time.perf_counter() - t0

    for day in range(fx.horizon_day - SERVE_DAYS, fx.horizon_day):
        if day > fx.horizon_day - SERVE_DAYS:
            yield
        n, dt = turnover("bootstrap_posts", lambda: sim.bootstrap_posts(day))
        staged, boot_s = staged + n, boot_s + dt
        n, dt = turnover("refresh_users", lambda: sim.refresh_users(fx.events, day))
        refreshed, refresh_s = refreshed + n, refresh_s + dt
        served = sorted(sim.user_store.snapshot()[1])
        n_walk = len(sim.post_store.snapshot()[1])
        day_queries = []
        for idx, rate in enumerate(LADDER_QPS):
            named = rate in NAMED_RUNGS.values()
            if idx >= top_rung and not named:
                break
            # One stream per (day, rung), so the draws do not depend on which
            # rungs ran before.
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                fx.seed, spawn_key=(QUERY_STREAM, day, idx))))
            uids = [int(u) for u in rng.choice(served, size=QUERIES_PER_RUNG_DAY)]
            results = [None] * len(uids)

            def op(i):
                try:
                    with span("serving.retrieve"):
                        results[i] = sim.retrieve(uids[i], K)
                    return True
                except Exception as exc:  # noqa: BLE001 - a failed query is counted
                    out.fail(f"serve day {day} user {uids[i]}: {exc!r}")
                    return False

            res = run_open_loop(len(uids), rate, op)
            out.attempted += len(uids)
            runs[rate].append(res)
            for r in results:
                if r is not None:
                    corpus.append(r.work["corpus"])
                    walked.append(n_walk)
            outputs[(day, rate)] = [(u, None if r is None else r.ranked)
                                    for u, r in zip(uids, results)]
            day_queries.extend(zip(uids, results))
            if not named and not _rung_meets([res]):
                top_rung = idx
        _check_day(sim, posts_by_id, day, day_queries, out)

    def pooled(rate, attr):
        return [x for res in runs[rate] for x in getattr(res, attr)]

    out.metrics["serve.turnover_s"] = boot_s + refresh_s
    for label, rate in NAMED_RUNGS.items():
        lat = pooled(rate, "latency")
        out.metrics[f"serve.{label}.retrieve_p50_ms"] = _ms(percentile(lat, 50))
        out.layers[f"serve.serving.{label}_retrieve_p{TAIL_P}_ms"] = _ms(percentile(lat, TAIL_P))
    best = 0.0
    for rate in LADDER_QPS:
        days = runs[rate]
        if len(days) < SERVE_DAYS or not _rung_meets(days):
            break
        best = sum(len(r) for r in days) / sum(r.end[-1] - r.due[0] for r in days)
    out.metrics["serve.max_rate_qps"] = best

    service = [x for rate in LADDER_QPS for x in pooled(rate, "service")]
    out.headline_s = boot_s + refresh_s + sum(service)
    out.layers.update({
        "serve.serving.bootstrap_posts_s": boot_s,
        "serve.serving.posts_staged": staged,
        "serve.serving.refresh_users_s": refresh_s,
        "serve.serving.users_refreshed": refreshed,
        "serve.serving.retrieve_service_ms": _ms(percentile(service, 50)),
        "serve.serving.retrieve_corpus": percentile(corpus, 50) if corpus else 0,
        "serve.serving.alive_share": sum(corpus) / sum(walked) if walked else 0.0,
        "serve.serving.walked_mb": (percentile(walked, 50) * fx.enc_cfg.d_model * 4 / 1e6
                                    if walked else 0.0),
        f"serve.serving.queue_wait_p{TAIL_P}_ms": _ms(
            percentile(pooled(NAMED_RUNGS["high"], "lateness"), TAIL_P)),
        "serve.serving.query_log_records": len(sim.query_log),
        "serve.serving.queries": len(service),
    })
    out.outputs = outputs
    return out


def _serve_layers(spans, selfs) -> dict:
    total = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + selfs[s.id]
    return {
        "serve.serving.bootstrap_posts_s": total.get("serving.bootstrap_posts", 0.0),
        "serve.serving.refresh_users_s": total.get("serving.refresh_users", 0.0),
        "serve.encoder.encode_user_vectors_s": total.get("encoder.encode_user_vectors", 0.0),
    }


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _rows(span, args, kwargs, result):
    span.attrs["rows"] = len(result)


EVAL_WRAPS = [
    ("seqrec.trainer", "encode_user_vectors", "encoder.encode_user_vectors", _rows),
    ("seqrec.experiments", "alive_corpus", "pipeline.alive_corpus", None),
    ("seqrec.coldstart", "user_user_similarity", "coldstart.user_user_similarity", None),
    ("seqrec.coldstart", "backfill_history", "coldstart.backfill_history", None),
]

_PASS_TIMES = ("encoder.encode_user_vectors", "trainer.batch_hits_eval",
               "metrics.knn_hits_at_k", "pipeline.alive_corpus",
               "experiments.staleness_experiment", "experiments.coldstart_eval",
               "coldstart.user_user_similarity", "coldstart.backfill_history")


def _eval_pass(fx, usable, span, out) -> tuple:
    tower, embs = fx.tower, fx.embeddings
    eval_day = fx.data.holdout_start_ts // SECONDS_PER_DAY
    holdout = fx.data.eval_holdout_days
    targets = [s.long_targets for s in usable]
    with span("eval.pass"):
        user_vecs = tower.eval_user_vectors(usable, embs)
        with span("trainer.batch_hits_eval"):
            batch = batch_hits_eval(tower, fx.eval, embs, fx.train_cfg.batch_size)
        with span("pipeline.alive_corpus"):
            corpus_ids, corpus_vecs = alive_corpus(fx.posts, embs, eval_day,
                                                   eval_day + holdout - 1)
        with span("metrics.knn_hits_at_k"):
            knn = knn_hits_at_k(user_vecs, targets, corpus_ids, corpus_vecs, K)
        with span("experiments.staleness_experiment"):
            stale = staleness_experiment(tower, fx.data, max_stale_days=MAX_STALE_DAYS)
        with span("experiments.coldstart_eval"):
            cold = coldstart_eval(fx.data, tower, marginal_threshold=COLD_THRESHOLD)
    ref = oracles.reference_knn_hits(user_vecs, targets, corpus_ids, corpus_vecs, K)
    if ref != knn.hits:
        out.fail(f"eval: knn_hits_at_k counted {knn.hits} hits, reference {ref}")
    reports = [knn, *stale, *(cold[m] for m in sorted(cold))]
    outputs = (digest_floats(user_vecs), batch,
               [(r.hits, r.n_queries) for r in reports])
    return sum(r.n_queries for r in reports), len(corpus_ids), outputs


def eval_phase(fx, seconds: float, tracer=None):
    span = _spanner(tracer)
    out = PhaseResult()
    usable = [s for s in fx.eval
              if s.long_targets and (s.history or fx.tower.enc_cfg.use_cls)]
    pass_s, rankings, outputs, raised = [], 0, [], False
    # Round r tops the measured time up to its share of ``seconds``; at least
    # one pass runs in all.
    for r in range(ROUNDS):
        if r:
            yield
        while not raised and (not pass_s or sum(pass_s) < seconds * (r + 1) / ROUNDS):
            t0 = time.perf_counter()
            try:
                n, corpus, result = _eval_pass(fx, usable, span, out)
            except Exception as exc:  # noqa: BLE001 - a failed pass is counted
                out.attempted += 1
                out.fail(f"eval pass {len(pass_s)}: {exc!r}")
                raised = True
                break
            pass_s.append(time.perf_counter() - t0)
            out.attempted += n
            rankings += n
            outputs.append(result)
    if rankings:
        out.metrics["eval.rankings_per_s"] = rankings / sum(pass_s)
        out.headline_s = percentile(pass_s, 50)
        out.layers.update({"eval.metrics.knn_queries": len(usable), "eval.metrics.corpus": corpus,
                           "eval.rankings": rankings / len(pass_s)})
    # Passes repeat identical work, so one pass's outputs stand for all.
    if outputs and any(o != outputs[0] for o in outputs):
        out.fail("eval: passes over the same inputs disagree")
    out.outputs = outputs[:1]
    return out


def _eval_layers(spans, selfs) -> dict:
    per_pass = []
    for root, desc in group_under(spans, "eval.pass").items():
        row = {name: 0.0 for name in _PASS_TIMES}
        for s in desc:
            if s.name in row:
                row[s.name] += selfs[s.id]
        row["rows"] = sum(s.attrs.get("rows", 0) for s in desc)
        per_pass.append(row)
    if not per_pass:
        return {}

    def med(key):
        return percentile([r[key] for r in per_pass], 50)

    layers = {f"eval.{name}_s": med(name) for name in _PASS_TIMES}
    layers["eval.encoder.users_encoded"] = med("rows")
    return layers


def layer_metrics(phase: str, tracer) -> dict:
    """Per-layer numbers from one traced phase's spans."""
    selfs = self_times(tracer.spans)
    return {"train": _train_layers, "serve": _serve_layers,
            "eval": _eval_layers}[phase](tracer.spans, selfs)


WRAPS = {"train": TRAIN_WRAPS, "serve": SERVE_WRAPS, "eval": EVAL_WRAPS}


PHASES = ("train", "serve", "eval")


def _start(name: str, fx, seconds: float, tracer=None):
    if name == "train":
        return train_phase(fx, tracer)
    if name == "serve":
        return serve_phase(fx, tracer)
    return eval_phase(fx, seconds, tracer)


def round_robin(gens: dict, collect=gc.collect) -> dict:
    """Advance every generator by one round in turn until each has returned;
    name -> returned value. Each round starts with a full collection, so a
    collection of the set-up's or an earlier round's garbage does not land
    inside a timed interval."""
    running, results = dict(gens), {}
    while running:
        collect()
        for name in list(running):
            try:
                next(running[name])
            except StopIteration as stop:
                results[name] = stop.value
                del running[name]
    return results


def interleave(fx, seconds: float) -> dict:
    """Run all phases round-robin; name -> PhaseResult."""
    return round_robin({name: _start(name, fx, seconds) for name in PHASES})


def drain(name: str, fx, seconds: float, tracer=None) -> PhaseResult:
    """Run one phase alone from start to end."""
    return round_robin({name: _start(name, fx, seconds, tracer)})[name]

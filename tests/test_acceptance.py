"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite trains real models
on synthetic worlds; the heavy criteria are marked slow as well as acceptance.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from seqrec.configs import DatasetConfig, EncoderConfig, LossConfig, TrainConfig
from seqrec.encoder import (
    assemble_batch_inputs, encode_batch, init_params, load_checkpoint,
)
from seqrec.loss import scaled_cross_entropy
from seqrec.metrics import batch_hits_at_k, knn_hits_at_k, knn_top_ids
from seqrec.pipeline import prepare
from seqrec.trainer import train
from seqrec.world import generate_world, measure_week_survival

from helpers import make_samples, random_embeddings, unit_rows

pytestmark = pytest.mark.acceptance


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1. causality ------------------------------------------------------------

def test_c1_causality_exact():
    cfg = EncoderConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=32,
                        dropout=0.2, pooling="last", d_ff=128, n_surfaces=2)
    embs = random_embeddings(300, 64, seed=1)
    params = init_params(cfg, seed=2)
    samples = make_samples(4, (32, 20, 11, 5), 300, seed=3)
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    asm0 = assemble_batch_inputs(samples, embs, params, cfg,
                                 {"feed": 0, "search": 1})
    base, _, _ = encode_batch(asm0, params, cfg, train=False)
    violations = 0
    for _ in range(100):
        b = int(rng.integers(len(samples)))
        L = int(asm0.lengths[b])
        j = int(rng.integers(1, L))
        asm = assemble_batch_inputs(samples, embs, params, cfg,
                                    {"feed": 0, "search": 1})
        asm.tokens[b, j] += rng.standard_normal(64)
        pert, _, _ = encode_batch(asm, params, cfg, train=False)
        if not np.array_equal(base[b, :j], pert[b, :j]):
            violations += 1
    elapsed = time.perf_counter() - t0
    verdict("C1 causality",
            violations == 0 and elapsed < 10.0,
            f"100 random single-token perturbations, {violations} violations, "
            f"{elapsed:.2f}s (< 10 s)")


# -- 2. gradient oracle -------------------------------------------------------

def test_c2_gradient_oracle():
    from test_gradients import loss_and_grads, relative_errors

    enc_cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=2, max_seq_len=5,
                            dropout=0.0, pooling="attention", d_ff=16,
                            n_surfaces=2)
    loss_cfg = LossConfig(scale=4.0, w_short=0.5, w_long=0.5, m=3)
    embs = random_embeddings(30, 8, seed=0)
    samples = make_samples(3, (5, 3, 2), 30, seed=1, n_targets=2)
    params = init_params(enc_cfg, seed=3)
    t0 = time.perf_counter()
    _, grads = loss_and_grads(params, embs, samples, enc_cfg, loss_cfg)
    worst, _ = relative_errors(
        params, grads,
        lambda: loss_and_grads(params, embs, samples, enc_cfg, loss_cfg)[0])
    elapsed = time.perf_counter() - t0
    n_params = sum(v.size for v in params.values())
    verdict("C2 gradient oracle",
            worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e} over {n_params} parameters "
            f"(step 1e-5, float64), {elapsed:.1f}s (< 60 s)")


# -- 3. Eq.-style loss exactness ----------------------------------------------

def test_c3_scaled_ce_exactness():
    a = np.array([1.0, 0.0, 0.0])
    zero = scaled_cross_entropy(a, a, [], s=16.0)
    errs = []
    for n in (2, 17, 1024):
        cand = np.array([0.0, 1.0, 0.0])
        loss = scaled_cross_entropy(a, cand, [cand] * (n - 1), s=16.0)
        errs.append(abs(loss - math.log(n)))
    pos = np.array([1.0, 0.0])
    neg = np.array([0.0, 1.0])
    worked = scaled_cross_entropy(np.array([1.0, 0.0]), pos, [neg], s=15.0)
    worked_err = abs(worked - math.log1p(math.exp(-15.0)))
    ok = zero == 0.0 and max(errs) < 1e-9 and worked_err < 1e-12
    verdict("C3 loss exactness",
            ok,
            f"no-negatives loss {zero!r}; ln(n) errs {[f'{e:.1e}' for e in errs]} "
            f"(< 1e-9); s=15 worked example err {worked_err:.1e} (< 1e-12)")


# -- 4. metric oracles ---------------------------------------------------------

def test_c4_metric_oracles():
    from test_metrics import full_sort_batch_oracle, full_sort_knn_oracle
    rng = np.random.default_rng(11)
    batch_mismatch = 0
    for _ in range(100):
        b = int(rng.integers(2, 24))
        u = unit_rows(rng.standard_normal((b, 8)))
        p = unit_rows(rng.standard_normal((b, 8)))
        k = int(rng.integers(1, b + 1))
        if batch_hits_at_k(u, p, k) != full_sort_batch_oracle(u, p, k):
            batch_mismatch += 1
    corpus_ids = np.arange(150)
    corpus = unit_rows(rng.standard_normal((150, 8)))
    knn_mismatch = 0
    for _ in range(100):
        q = unit_rows(rng.standard_normal((1, 8)))[0]
        targets = [int(t) for t in rng.choice(150, size=2, replace=False)]
        k = int(rng.integers(1, 25))
        rep = knn_hits_at_k(q[None, :], [targets], corpus_ids, corpus, k)
        if bool(rep.hits) != full_sort_knn_oracle(q, corpus_ids, corpus, k, targets):
            knn_mismatch += 1
    vals = []
    for _ in range(100):
        u = unit_rows(rng.standard_normal((128, 16)))
        p = unit_rows(rng.standard_normal((128, 16)))
        vals.append(batch_hits_at_k(u, p, 1))
    rand_err = abs(float(np.mean(vals)) - 1 / 128)
    verdict("C4 metric oracles",
            batch_mismatch == 0 and knn_mismatch == 0 and rand_err < 0.01,
            f"batch mismatches {batch_mismatch}/100, knn mismatches {knn_mismatch}/100, "
            f"random Hits@1 within {rand_err:.4f} of 1/128 (< 0.01)")


# -- 5. ablation ladder --------------------------------------------------------

LADDER_WORLD = dict(users=650, posts_per_day=250, days=24, n_topics=24,
                    activity_rate=3.5, session_rate=0.45, drift_rate=0.13,
                    exploration=0.10, calibrate_survival=False)


@pytest.mark.slow
def test_c5_ablation_ladder_direction():
    t0 = time.perf_counter()
    enc = EncoderConfig()
    loss = LossConfig()
    results: dict[str, list] = {}
    n_posts = n_events = 0
    for seed in (0, 1, 2):
        dcfg = DatasetConfig(**LADDER_WORLD)
        data = prepare(dcfg, seed=200 + seed, enc_cfg=enc, eval_holdout_days=3, m=5)
        n_posts = len(data.posts)
        n_events = len(data.bundle.events)
        for variant in ("ttt", "ttt_causal_long", "full_with_time"):
            tcfg = TrainConfig(batch_size=64, learning_rate=3e-3, epochs=4,
                               seed=seed, variant=variant)
            _, rep = train(data.train, data.eval, data.embeddings, enc, loss,
                           tcfg, data.surfaces)
            results.setdefault(variant, []).append(rep.final_hits1)
    elapsed = time.perf_counter() - t0
    t = np.array(results["ttt"])
    l = np.array(results["ttt_causal_long"])
    f = np.array(results["full_with_time"])
    wins_lt = int((l >= t).sum())
    wins_fl = int((f >= l).sum())
    ok = (f.mean() >= l.mean() >= t.mean()
          and wins_lt >= 2 and wins_fl >= 2
          and n_posts >= 5000 and n_events >= 50_000
          and elapsed < 1800)
    verdict("C5 ablation ladder",
            ok,
            f"world: {n_posts} posts, {n_events} events, >=500 users; "
            f"mean Hits@1 ttt={t.mean():.4f} +long={l.mean():.4f} "
            f"full={f.mean():.4f}; long>=ttt on {wins_lt}/3, full>=long on "
            f"{wins_fl}/3 seeds; {elapsed/60:.1f} min (< 30)")


# -- 6. temporal decay ----------------------------------------------------------

@pytest.mark.slow
def test_c6_temporal_decay_long_term_helps():
    from seqrec.experiments import temporal_decay_experiment
    enc = EncoderConfig(pooling="mean")
    loss = LossConfig()
    wins = 0
    drops = []
    for seed in (0, 1, 2):
        dcfg = DatasetConfig(users=600, posts_per_day=200, days=26, n_topics=24,
                             activity_rate=3.5, drift_rate=0.13, exploration=0.08,
                             calibrate_survival=False)
        data = prepare(dcfg, seed=300 + seed, enc_cfg=enc, eval_holdout_days=7,
                       m=5, target_window_days=2)
        tcfg = TrainConfig(batch_size=64, learning_rate=3e-3, epochs=4, seed=seed)
        series = temporal_decay_experiment(data, enc, loss, tcfg, horizon_days=7)
        with_drop = series["with_long"][0].slice["day7_drop"]
        without_drop = series["without_long"][0].slice["day7_drop"]
        drops.append((without_drop, with_drop))
        wins += with_drop < without_drop
    verdict("C6 temporal decay",
            wins >= 2,
            "relative day-7 KNN Hits@20 drop (without_long, with_long) per seed: "
            + ", ".join(f"({a:.3f}, {b:.3f})" for a, b in drops)
            + f"; long-term strictly smaller on {wins}/3 seeds")


# -- 7. staleness ----------------------------------------------------------------

@pytest.mark.slow
def test_c7_staleness_decay():
    from seqrec.experiments import staleness_experiment
    enc = EncoderConfig(pooling="mean")
    loss = LossConfig()

    def run(drift: float, seed: int):
        dcfg = DatasetConfig(users=800, posts_per_day=200, days=24, n_topics=24,
                             activity_rate=3.5, drift_rate=drift, exploration=0.08,
                             max_affinity_components=1, calibrate_survival=False)
        data = prepare(dcfg, seed=seed, enc_cfg=enc, eval_holdout_days=3, m=5)
        tcfg = TrainConfig(batch_size=64, learning_rate=3e-3, epochs=4, seed=0,
                           variant="ttt_causal_long")
        tower, _ = train(data.train, data.eval, data.embeddings, enc, loss,
                         tcfg, data.surfaces)
        reports = staleness_experiment(tower, data, max_stale_days=6, k=20)
        return [r.slice["drop"] for r in reports]

    drift_drops = run(0.13, seed=77)
    inversions = [max(0.0, drift_drops[i] - drift_drops[i + 1])
                  for i in range(len(drift_drops) - 1)]
    n_inv = sum(1 for v in inversions if v > 0)
    drift_ok = n_inv <= 1 and max(inversions, default=0.0) <= 0.01

    control_drops = run(0.0, seed=77)
    control_ok = max(abs(d) for d in control_drops) <= 0.02
    verdict("C7 staleness",
            drift_ok and control_ok,
            f"drifting world drops {[round(d, 3) for d in drift_drops]} "
            f"({n_inv} inversion(s), max magnitude "
            f"{max(inversions, default=0.0):.4f} <= 0.01); zero-drift "
            f"|drop| max {max(abs(d) for d in control_drops):.4f} (<= 0.02)")


# -- 8. volatility calibration -----------------------------------------------------

@pytest.mark.slow
def test_c8_volatility_calibration():
    cfg = DatasetConfig(users=350, posts_per_day=250, days=31)
    posts, _, events = generate_world(cfg, seed=13)
    s1, s2 = measure_week_survival(posts, events)
    e1 = abs(s1 - 0.23)
    e2 = abs(s2 - 0.10)
    verdict("C8 volatility",
            len(posts) >= 5000 and e1 <= 0.03 and e2 <= 0.03,
            f"{len(posts)} posts; measured week-1/2 survival {s1:.4f}/{s2:.4f} "
            f"vs 0.23/0.10 (errors {e1:.4f}/{e2:.4f} <= 0.03)")


# -- 9. cold start -------------------------------------------------------------------

COLDSTART_WORLD = dict(users=700, posts_per_day=200, days=24, n_topics=24,
                       activity_rate=3.5, drift_rate=0.02, exploration=0.08,
                       cold_user_frac=0.12, marginal_user_frac=0.12,
                       cold_start_window=3, newuser_days=3,
                       lang_topic_concentration=0.9, lang_match_boost=3.5,
                       calibrate_survival=False)
COLDSTART_POOLING = "attention"
COLDSTART_FILL_TO = 6


@pytest.mark.slow
def test_c9_coldstart_backfill():
    from seqrec.coldstart import (
        PopularityIndex, augment_with_backfill, user_user_similarity,
    )
    from seqrec.experiments import coldstart_eval
    enc = EncoderConfig(pooling=COLDSTART_POOLING)
    loss = LossConfig()
    wins = {"popular": 0, "similar": 0, "similar_vs_popular": 0}
    rows = []
    for seed in (0, 1, 2):
        dcfg = DatasetConfig(**COLDSTART_WORLD)
        data = prepare(dcfg, seed=400 + seed, enc_cfg=enc, eval_holdout_days=3, m=5)
        window = [e for e in data.events if e.ts < data.holdout_start_ts]
        sim = user_user_similarity(window)
        pop = PopularityIndex(window, data.posts)
        profiles = {u.user_id: u for u in data.users}
        train_s = augment_with_backfill(data.train, profiles, window, sim, pop,
                                        fill_to=COLDSTART_FILL_TO, frac=0.3,
                                        seed=seed)
        tcfg = TrainConfig(batch_size=64, learning_rate=3e-3, epochs=4, seed=seed,
                           variant="full_with_time")
        tower, _ = train(train_s, data.eval, data.embeddings, enc, loss, tcfg,
                         data.surfaces)
        r = coldstart_eval(data, tower, k=10, fill_to=COLDSTART_FILL_TO)
        none, popular, similar = (r[m].value for m in ("none", "popular", "similar_user"))
        rows.append((none, popular, similar))
        wins["popular"] += popular >= none
        wins["similar"] += similar >= none
        wins["similar_vs_popular"] += similar >= popular
    ok = wins["popular"] >= 2 and wins["similar"] >= 2 and wins["similar_vs_popular"] >= 2
    verdict("C9 cold start",
            ok,
            "KNN Hits@10 (none, popular, similar_user) per seed: "
            + ", ".join(f"({a:.3f}, {b:.3f}, {c:.3f})" for a, b, c in rows)
            + f"; popular>=none {wins['popular']}/3, similar>=none {wins['similar']}/3, "
              f"similar>=popular {wins['similar_vs_popular']}/3")


# -- 10. serving parity and snapshot isolation ----------------------------------------

def test_c10_serving_parity_and_isolation():
    import threading
    from seqrec.post_encoder import PostEncoder
    from seqrec.serving import EmbeddingStore, ServingSim
    from seqrec.world import build_world

    cfg = DatasetConfig(users=80, posts_per_day=50, days=12, n_topics=8,
                        activity_rate=3.0, calibrate_survival=False)
    bundle = build_world(cfg, seed=31)
    enc_cfg = EncoderConfig(d_model=cfg.topic_dim, n_heads=4, n_layers=1,
                            max_seq_len=8, dropout=0.0, pooling="last",
                            n_surfaces=len(cfg.surfaces))
    penc = PostEncoder("oracle", cfg, oracle_seed=31)
    sim = ServingSim(posts=bundle.posts, params=init_params(enc_cfg, seed=1),
                     enc_cfg=enc_cfg, post_encoder=penc,
                     surfaces={s: i for i, s in enumerate(cfg.surfaces)})
    sim.bootstrap_posts(day=10)
    sim.refresh_users(bundle.events, day=10)

    alive = [p for p in bundle.posts if p.alive_on(10) and not p.integrity_violating]
    ids = np.array([p.post_id for p in alive], dtype=np.int64)
    vecs = np.stack([sim.post_store.get(p.post_id).vector.astype(np.float64)
                     for p in alive])
    users = [u for u in sorted({e.user_id for e in bundle.events})
             if sim.user_store.get(u) is not None][:100]
    mismatches = 0
    for uid in users:
        res = sim.retrieve(uid, 10, threshold=-1.0)
        uvec = sim.user_store.get(uid).vector.astype(np.float64)
        oracle = knn_top_ids(uvec, ids, vecs, 10).tolist()
        if [pid for pid, _ in res.ranked] != oracle:
            mismatches += 1

    # concurrent snapshot-isolation stress: vector payload encodes its version
    store = EmbeddingStore()
    keys = list(range(8))
    for k in keys:
        store.stage_upsert(k, np.zeros(16), 0)
    store.commit()
    stop = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            _, data = store.snapshot()
            for k in keys:
                entry = data[k]
                vals = set(entry.vector.tolist())
                if len(vals) != 1 or vals != {float(entry.version - 1)}:
                    torn.append(k)
                    return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    ops = 0
    version = 1
    while ops < 10_000:
        for k in keys:
            store.stage_upsert(k, np.full(16, float(version)), version)
            ops += 1
        store.commit()
        version += 1
    stop.set()
    for t in threads:
        t.join()

    verdict("C10 serving parity",
            mismatches == 0 and not torn,
            f"retrieve == offline oracle on {len(users)} queries "
            f"({mismatches} mismatches); {ops} concurrent ops, {len(torn)} torn reads")


# -- 11. reproducibility -----------------------------------------------------------------

@pytest.mark.slow
def test_c11_manifest_replay_and_round_trips(tmp_path):
    import json
    from seqrec.cli import main, replay_manifest
    from seqrec.manifest import RunManifest

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"users": 60, "posts_per_day": 40, "days": 12, "n_topics": 8,
                    "activity_rate": 3.0, "calibrate_survival": False},
        "encoder": {"max_seq_len": 12},
        "loss": {"m": 3},
        "train": {"batch_size": 16, "epochs": 2, "learning_rate": 2e-3},
        "pipeline": {"eval_holdout_days": 2},
    }))
    world = tmp_path / "world"
    assert main(["gen-data", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(world)]) == 0
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--world", str(world),
                 "--variant", "full_with_time", "--seed", "5",
                 "--out", str(train_out)]) == 0
    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg_path), "--world", str(world),
                 "--checkpoint", str(train_out / "checkpoint.ckpt"),
                 "--out", str(eval_out)]) == 0

    worst = 0.0
    for out in (train_out, eval_out):
        original = RunManifest.load(out / "manifest.json").metrics
        replayed = replay_manifest(out / "manifest.json", tmp_path / f"replay-{out.name}")
        for key, val in original.items():
            if isinstance(val, float):
                worst = max(worst, abs(replayed[key] - val))
            else:
                assert replayed[key] == val, key

    # bit-exact round-trips of the binary artifacts
    from seqrec.embeddings import load_embeddings, save_embeddings
    from seqrec.tensorio import load_tensors, save_tensors
    embs = load_embeddings(world / "embeddings.nxtp")
    save_embeddings(tmp_path / "emb2.nxtp", embs)
    emb_ok = (world / "embeddings.nxtp").read_bytes() == (tmp_path / "emb2.nxtp").read_bytes()
    tensors, meta = load_tensors(train_out / "checkpoint.ckpt")
    save_tensors(tmp_path / "ckpt2.ckpt", tensors, meta)
    ckpt_ok = (train_out / "checkpoint.ckpt").read_bytes() == (tmp_path / "ckpt2.ckpt").read_bytes()

    verdict("C11 reproducibility",
            worst < 1e-7 and emb_ok and ckpt_ok,
            f"replayed train+eval metrics max |diff| {worst:.2e} (< 1e-7); "
            f"embedding file bit-exact={emb_ok}, checkpoint bit-exact={ckpt_ok}")

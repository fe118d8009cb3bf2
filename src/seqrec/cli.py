"""Single entry point orchestrating the pipeline.

Subcommands: gen-data, train-post-tower, train, eval, experiment, serve-sim,
sweep. Config precedence is flags > JSON config file > defaults; the fully
resolved configuration, input hashes and reported metrics land in a
manifest.json under --out, and `replay_manifest` re-runs any manifest and
returns the freshly computed metrics for comparison.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .configs import (
    DatasetConfig, EncoderConfig, LossConfig, TrainConfig, VARIANTS,
    from_json_dict, to_json_dict,
)
from .dataio import write_events_jsonl, write_posts_jsonl
from .embeddings import save_embeddings
from .encoder import load_checkpoint
from .experiments import staleness_experiment, sweep, temporal_decay_experiment
from .manifest import RunManifest, new_manifest, sha256_file
from .metrics import knn_hits_at_k, reports_to_csv, reports_to_json, reports_to_table
from .pipeline import alive_corpus, load_pipeline
from .post_encoder import (
    PostEncoder, PostTowerConfig, build_coengagement_pairs, train_post_tower,
)
from .serving import ServingSim
from .tensorio import save_tensors
from .trainer import UserTower, batch_hits_eval, train
from .world import SECONDS_PER_DAY, generate_world

log = logging.getLogger("seqrec")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit1(message)


class SystemExit1(Exception):
    pass


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def _int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None


def _ascending_positive_ints(text: str) -> list:
    values = _int_list(text)
    if values[0] < 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"must be positive and ascending, got {text!r}")
    return values


_PIPELINE_KEYS = ("eval_holdout_days", "min_interactions", "drop_integrity",
                 "oracle_sigma", "target_window_days")


def _load_sections(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
        raise SystemExit1("a config file maps section names to JSON objects")
    unknown = set(data) - {"dataset", "encoder", "loss", "train", "pipeline"}
    if unknown:
        raise SystemExit1(f"unknown config sections {sorted(unknown)}")
    return data


def _resolve(sections: dict, flag_overrides: dict) -> dict:
    """defaults <- config file <- flags; returns plain dicts per section."""
    configs = {name: from_json_dict(cls, sections.get(name, {}))
               for name, cls in (("dataset", DatasetConfig), ("encoder", EncoderConfig),
                                 ("loss", LossConfig), ("train", TrainConfig))}
    unknown = set(sections.get("pipeline", {})) - set(_PIPELINE_KEYS)
    if unknown:
        raise ValueError(f"unknown pipeline keys: {sorted(unknown)}")
    pipe = dict({"eval_holdout_days": 3, "min_interactions": 2,
                 "drop_integrity": True, "oracle_sigma": 0.1},
                **sections.get("pipeline", {}))
    for key, value in flag_overrides.items():
        section, name = key.split(".", 1)
        if value is None:
            continue
        if section == "pipeline":
            pipe[name] = value
        else:
            configs[section] = dataclasses.replace(configs[section], **{name: value})
    return {**{name: to_json_dict(cfg) for name, cfg in configs.items()},
            "pipeline": pipe}


def _cfgs(resolved: dict):
    return (from_json_dict(DatasetConfig, resolved["dataset"]),
            from_json_dict(EncoderConfig, resolved["encoder"]),
            from_json_dict(LossConfig, resolved["loss"]),
            from_json_dict(TrainConfig, resolved["train"]),
            resolved["pipeline"])


def _world_inputs(world_dir: Path, *extra) -> dict:
    """sha256 of the world's posts and events plus any extra input files."""
    paths = [world_dir / "posts.jsonl", world_dir / "events.jsonl", *extra]
    return {str(p): sha256_file(p) for p in paths}


def _embeddings_path(world_dir: Path, embeddings_path) -> Path:
    return Path(embeddings_path) if embeddings_path else world_dir / "embeddings.nxtp"


# ---------------------------------------------------------------------------
# command implementations; each takes (resolved config, args-ish dict, out dir)
# and returns (metrics, inputs, outputs)
# ---------------------------------------------------------------------------

def run_gen_data(resolved: dict, out: Path) -> tuple[dict, dict, list]:
    dataset, _, _, _, pipe = _cfgs(resolved)
    seed = resolved["train"]["seed"]
    posts, users, events = generate_world(dataset, seed)
    write_posts_jsonl(out / "posts.jsonl", posts)
    write_events_jsonl(out / "events.jsonl", events)
    penc = PostEncoder("oracle", dataset, oracle_sigma=pipe["oracle_sigma"],
                       oracle_seed=seed)
    save_embeddings(out / "embeddings.nxtp", penc.encode_all(posts))
    metrics = {"n_posts": len(posts), "n_users": len(users), "n_events": len(events)}
    outputs = [str(out / n) for n in ("posts.jsonl", "events.jsonl", "embeddings.nxtp")]
    return metrics, {}, outputs


def run_train_post_tower(resolved: dict, out: Path, world_dir: Path) -> tuple[dict, dict, list]:
    data = load_pipeline(world_dir, resolved)
    dataset_w = data.bundle.config
    pairs = build_coengagement_pairs(data.events)
    tcfg = PostTowerConfig(channel_dim=dataset_w.channel_dim, seed=resolved["train"]["seed"])
    params, losses = train_post_tower(pairs, data.posts, dataset_w, tcfg)
    save_tensors(out / "post_tower.ckpt", params,
                 meta={"tower": dataclasses.asdict(tcfg)})
    penc = PostEncoder("trained", dataset_w, tower_cfg=tcfg, params=params)
    save_embeddings(out / "embeddings.nxtp", penc.encode_all(data.posts))
    metrics = {"n_pairs": len(pairs), "first_loss": losses[0], "last_loss": losses[-1]}
    return metrics, _world_inputs(world_dir), \
        [str(out / "post_tower.ckpt"), str(out / "embeddings.nxtp")]


def run_train(resolved: dict, out: Path, world_dir: Path, embeddings_path=None):
    _, enc_cfg, loss_cfg, train_cfg, _ = _cfgs(resolved)
    data = load_pipeline(world_dir, resolved, embeddings_path)
    tower, report = train(data.train, data.eval, data.embeddings, enc_cfg, loss_cfg,
                          train_cfg, data.surfaces, checkpoint_path=out / "checkpoint.ckpt")
    report.save(out / "report.json")
    metrics = {"final_hits1": report.final_hits1, "final_hits10": report.final_hits10,
               "n_train_samples": report.n_train_samples,
               "final_loss": report.losses[-1] if report.losses else None}
    inputs = _world_inputs(world_dir, _embeddings_path(world_dir, embeddings_path))
    return metrics, inputs, [str(out / "checkpoint.ckpt"), str(out / "report.json")]


def _tower_from_checkpoint(ckpt_path, surfaces):
    params, enc_cfg, extra = load_checkpoint(ckpt_path)
    return UserTower(extra.get("kind", "transformer"), params, enc_cfg, surfaces)


def run_eval(resolved: dict, out: Path, world_dir: Path, ckpt: Path,
             embeddings_path, k: int):
    data = load_pipeline(world_dir, resolved, embeddings_path)
    tower = _tower_from_checkpoint(ckpt, data.surfaces)
    h1, h10, n = batch_hits_eval(tower, data.eval, data.embeddings,
                                 resolved["train"]["batch_size"])
    days = data.holdout_days
    corpus_ids, corpus_vecs = alive_corpus(data.posts, data.embeddings, days[0], days[-1])
    usable = [s for s in data.eval if s.long_targets and
              (s.history or tower.enc_cfg.use_cls)]
    user_vecs = tower.eval_user_vectors(usable, data.embeddings)
    knn = knn_hits_at_k(user_vecs, [s.long_targets for s in usable],
                        corpus_ids, corpus_vecs, k)
    knn.slice = {"corpus": len(corpus_ids)}
    reports_to_json([knn], out / "eval_report.json")
    metrics = {"batch_hits1": h1, "batch_hits10": h10, "batch_n": n,
               f"knn_hits{k}": knn.value, "knn_n": knn.n_queries}
    inputs = _world_inputs(world_dir, _embeddings_path(world_dir, embeddings_path), ckpt)
    return metrics, inputs, [str(out / "eval_report.json")]


def run_experiment(resolved: dict, out: Path, world_dir: Path, which: str,
                   ckpt, embeddings_path, max_days: int, horizon_days: int):
    _, enc_cfg, loss_cfg, train_cfg, _ = _cfgs(resolved)
    data = load_pipeline(world_dir, resolved, embeddings_path)
    inputs = _world_inputs(world_dir, _embeddings_path(world_dir, embeddings_path))
    if which == "staleness":
        if ckpt is None:
            raise SystemExit1("experiment staleness requires --checkpoint")
        tower = _tower_from_checkpoint(ckpt, data.surfaces)
        inputs[str(ckpt)] = sha256_file(ckpt)
        reports = staleness_experiment(tower, data, max_stale_days=max_days)
        reports_to_json(reports, out / "staleness.json")
        reports_to_csv(reports, out / "staleness.csv")
        print(reports_to_table(reports))
        metrics = {f"hits20_stale_{r.slice['staleness_days']}": r.value for r in reports}
        metrics.update({f"drop_stale_{r.slice['staleness_days']}": r.slice["drop"]
                        for r in reports})
        return metrics, inputs, [str(out / "staleness.json"), str(out / "staleness.csv")]
    if which == "temporal-decay":
        series = temporal_decay_experiment(data, enc_cfg, loss_cfg, train_cfg,
                                           horizon_days=horizon_days)
        flat = [r for reports in series.values() for r in reports]
        reports_to_json(flat, out / "temporal_decay.json")
        print(reports_to_table(flat))
        metrics = {}
        for label, reports in series.items():
            metrics[f"{label}_day1"] = reports[0].value
            metrics[f"{label}_day{horizon_days}"] = reports[-1].value
            metrics[f"{label}_drop"] = reports[0].slice[f"day{horizon_days}_drop"]
        return metrics, inputs, [str(out / "temporal_decay.json")]
    raise SystemExit1(f"unknown experiment {which!r}")


def run_serve_sim(resolved: dict, out: Path, world_dir: Path, ckpt: Path,
                  days: int, queries_per_day: int, k: int, threshold: float):
    data = load_pipeline(world_dir, resolved)
    params, ck_cfg, _ = load_checkpoint(ckpt)
    sim = ServingSim(posts=data.posts, params=params, enc_cfg=ck_cfg,
                     post_encoder=data.post_encoder, surfaces=data.surfaces)
    horizon_day = data.holdout_days.stop
    start = max(1, horizon_day - days)
    refreshed_total = served = 0
    work_corpus, work_secs = [], []
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(data.bundle.seed)))
    for day in range(start, horizon_day):
        sim.bootstrap_posts(day)
        refreshed_total += sim.refresh_users(data.events, day)
        candidates = sorted({e.user_id for e in data.events
                             if e.ts < day * SECONDS_PER_DAY})
        if candidates:
            for uid in rng.choice(candidates, size=min(queries_per_day, len(candidates)),
                                  replace=False):
                res = sim.retrieve(int(uid), k, threshold)
                work_corpus.append(res.work["corpus"])
                work_secs.append(res.work["seconds"])
                served += 1
    sim.write_query_log(out / "queries.jsonl")
    metrics = {"days": horizon_day - start, "users_refreshed": refreshed_total,
               "queries_served": served,
               "post_snapshot": sim.post_store.snapshot_id,
               "user_snapshot": sim.user_store.snapshot_id,
               "mean_query_corpus": float(np.mean(work_corpus)) if work_corpus else 0.0,
               "mean_query_seconds": float(np.mean(work_secs)) if work_secs else 0.0}
    return metrics, _world_inputs(world_dir, ckpt), [str(out / "queries.jsonl")]


def run_sweep(resolved: dict, out: Path, world_dir: Path, axis: str,
              values: list, seeds: list):
    _, enc_cfg, loss_cfg, train_cfg, _ = _cfgs(resolved)
    data = load_pipeline(world_dir, resolved)
    reports = sweep(axis, values, data, enc_cfg, loss_cfg, train_cfg,
                    seeds=tuple(seeds))
    reports_to_json(reports, out / "sweep.json")
    reports_to_csv(reports, out / "sweep.csv")
    print(reports_to_table(reports))
    metrics = {f"hits1_{axis}_{r.slice[axis]}": r.value for r in reports}
    return metrics, _world_inputs(world_dir), [str(out / "sweep.json"), str(out / "sweep.csv")]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="seqrec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, world=True):
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config with sections dataset/encoder/loss/train/pipeline")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=Path, required=True)
        if world:
            sp.add_argument("--world", type=Path, required=True,
                            help="directory produced by gen-data")

    sp = sub.add_parser("gen-data", help="generate a synthetic world")
    common(sp, world=False)

    sp = sub.add_parser("train-post-tower", help="train the content post tower")
    common(sp)
    sp.add_argument("--epochs", type=int, default=None)

    sp = sub.add_parser("train", help="train a user-tower variant")
    common(sp)
    sp.add_argument("--variant", choices=VARIANTS, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--embeddings", type=Path, default=None)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", type=Path, required=True)
    sp.add_argument("--embeddings", type=Path, default=None)
    sp.add_argument("--k", type=_positive_int, default=10)

    sp = sub.add_parser("experiment", help="run a deployment experiment")
    sp.add_argument("which", choices=["staleness", "temporal-decay"])
    common(sp)
    sp.add_argument("--checkpoint", type=Path, default=None)
    sp.add_argument("--embeddings", type=Path, default=None)
    sp.add_argument("--max-days", type=_non_negative_int, default=6)
    sp.add_argument("--horizon-days", type=_positive_int, default=7)

    sp = sub.add_parser("serve-sim", help="simulate the serving day loop")
    common(sp)
    sp.add_argument("--checkpoint", type=Path, required=True)
    sp.add_argument("--days", type=_positive_int, default=3)
    sp.add_argument("--queries-per-day", type=_non_negative_int, default=5)
    sp.add_argument("--k", type=_positive_int, default=10)
    sp.add_argument("--threshold", type=float, default=-1.0)

    sp = sub.add_parser("sweep", help="sequence-length / layer-count sweep")
    common(sp)
    sp.add_argument("--axis", choices=["seq_len", "layers"], required=True)
    sp.add_argument("--values", type=_ascending_positive_ints, required=True,
                    help="comma-separated positive ascending values")
    sp.add_argument("--seeds", type=_int_list, default=[0],
                    help="comma-separated seeds")

    return p


def _dispatch(args, resolved: dict, out: Path):
    cmd = args.command
    if cmd == "gen-data":
        return run_gen_data(resolved, out)
    if cmd == "train-post-tower":
        return run_train_post_tower(resolved, out, args.world)
    if cmd == "train":
        return run_train(resolved, out, args.world, args.embeddings)
    if cmd == "eval":
        return run_eval(resolved, out, args.world, args.checkpoint,
                        args.embeddings, args.k)
    if cmd == "experiment":
        return run_experiment(resolved, out, args.world, args.which,
                              args.checkpoint, args.embeddings,
                              args.max_days, args.horizon_days)
    if cmd == "serve-sim":
        return run_serve_sim(resolved, out, args.world, args.checkpoint,
                             args.days, args.queries_per_day, args.k, args.threshold)
    if cmd == "sweep":
        return run_sweep(resolved, out, args.world, args.axis, args.values, args.seeds)
    raise SystemExit1(f"unknown command {cmd!r}")


def _flag_overrides(args) -> dict:
    over = {"train.seed": getattr(args, "seed", None)}
    for flag, key in (("variant", "train.variant"), ("epochs", "train.epochs"),
                      ("batch_size", "train.batch_size"), ("lr", "train.learning_rate")):
        if hasattr(args, flag):
            over[key] = getattr(args, flag)
    return over


def _recorded(value):
    """A parsed argument as the manifest records it: paths as strings and int
    lists in the comma-separated form their flag parses."""
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return value


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        sections = _load_sections(args.config)
        resolved = _resolve(sections, _flag_overrides(args))
    except SystemExit1 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    resolved["cli_args"] = {name: _recorded(v) for name, v in vars(args).items()
                            if name not in ("config", "out")}
    manifest = new_manifest(args.command, resolved, resolved["train"]["seed"])
    t0 = time.perf_counter()
    try:
        metrics, inputs, outputs = _dispatch(args, resolved, out)
    except SystemExit1 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("run failed: %s", exc)
        return 2
    manifest.metrics = metrics
    manifest.inputs = inputs
    manifest.outputs = outputs
    manifest.timings = {"wall_clock_s": time.perf_counter() - t0}
    manifest.save(out / "manifest.json")
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def replay_manifest(manifest_path, out_dir, extra_args: dict | None = None) -> dict:
    """Re-run the command recorded in a manifest; returns the new metrics.

    The recorded command line is parsed again, so every flag it left out takes
    the parser's default. extra_args overrides recorded arguments, such as the
    world or checkpoint paths.
    """
    man = RunManifest.load(manifest_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    recorded = {**man.config.get("cli_args", {}), **(extra_args or {})}
    recorded.pop("command", None)
    argv = [man.command]
    if "which" in recorded:
        argv.append(str(recorded.pop("which")))
    worlds = [Path(p).parent for p in man.inputs if Path(p).name == "posts.jsonl"]
    if recorded.get("world") is None and worlds:
        recorded["world"] = worlds[0]
    argv += [f"--{name.replace('_', '-')}={val}" for name, val in recorded.items()
             if val is not None]
    args = _build_parser().parse_args(argv + ["--out", str(out)])
    metrics, _, _ = _dispatch(args, man.config, out)
    return metrics


if __name__ == "__main__":
    sys.exit(main())

"""Set-up shared by every phase, following the CLI path.

Generate the world from ``configs/desk.json``, write posts, events and the
NXTP file, read them back, filter the events and cut samples, then build the
``full_with_time`` user tower round-tripped through float32 as a checkpoint
reader sees it. Each step is timed on its own; the sum is ``setup_s``.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from seqrec.configs import DatasetConfig, EncoderConfig, LossConfig, TrainConfig, from_json_dict
from seqrec.dataio import (
    read_events_jsonl, read_posts_jsonl, write_events_jsonl, write_posts_jsonl,
)
from seqrec.embeddings import load_embeddings, save_embeddings
from seqrec.encoder import init_params, quantize_params
from seqrec.pipeline import PipelineData
from seqrec.post_encoder import PostEncoder
from seqrec.samples import build_samples, filter_events
from seqrec.trainer import UserTower, variant_settings
from seqrec.world import SECONDS_PER_DAY, WorldBundle, build_world

from .provenance import sha256_file

CONFIG = Path("configs") / "desk.json"
VARIANT = "full_with_time"


@dataclass(eq=False)
class Fixture:
    seed: int
    dataset: DatasetConfig
    enc_cfg: EncoderConfig          # resolved for VARIANT
    loss_cfg: LossConfig
    train_cfg: TrainConfig
    pipe: dict
    posts: list                     # as read back from posts.jsonl
    events: list                    # filtered stream
    embeddings: object
    post_encoder: PostEncoder
    train: list
    eval: list
    surfaces: dict
    data: PipelineData
    tower: UserTower                # init params, float32 round-trip
    horizon_day: int
    timings: dict = field(default_factory=dict)   # step -> seconds
    counts: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.timings.values())


class _Clock:
    def __init__(self, timings: dict):
        self.timings = timings

    def __call__(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0
        return out


def _load_config(root: Path) -> dict:
    with open(root / CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def build(root: Path, seed: int, max_seq_len: int, tmp: Path) -> Fixture:
    """Run the shared set-up for one workload seed; files go under ``tmp``."""
    timings: dict = {}
    timed = _Clock(timings)
    sections = _load_config(root)
    dataset = from_json_dict(DatasetConfig, sections.get("dataset", {}))
    enc_cfg = dataclasses.replace(from_json_dict(EncoderConfig, sections.get("encoder", {})),
                                  max_seq_len=max_seq_len)
    loss_cfg = from_json_dict(LossConfig, sections.get("loss", {}))
    train_cfg = dataclasses.replace(from_json_dict(TrainConfig, sections.get("train", {})),
                                    seed=seed, variant=VARIANT)
    pipe = dict({"eval_holdout_days": 3, "min_interactions": 2,
                 "drop_integrity": True, "oracle_sigma": 0.1},
                **sections.get("pipeline", {}))

    bundle = timed("world.build_world", build_world, dataset, seed)
    paths = {n: tmp / n for n in ("posts.jsonl", "events.jsonl", "embeddings.nxtp")}
    timed("dataio.write", write_posts_jsonl, paths["posts.jsonl"], bundle.posts)
    timed("dataio.write", write_events_jsonl, paths["events.jsonl"], bundle.events)
    penc = PostEncoder("oracle", dataset, oracle_sigma=pipe["oracle_sigma"], oracle_seed=seed)
    embs = timed("post_encoder.encode_all", penc.encode_all, bundle.posts)
    timed("embeddings.save_load", save_embeddings, paths["embeddings.nxtp"], embs)
    embs = timed("embeddings.save_load", load_embeddings, paths["embeddings.nxtp"])
    posts = timed("dataio.read", read_posts_jsonl, paths["posts.jsonl"])
    raw_events = timed("dataio.read", read_events_jsonl, paths["events.jsonl"])
    events = timed("samples.filter_events", filter_events, raw_events,
                   pipe["min_interactions"], pipe["drop_integrity"], posts)
    train, eval_ = timed(
        "samples.build_samples", build_samples, events,
        L_max=enc_cfg.max_seq_len, m=loss_cfg.m,
        eval_holdout_days=pipe["eval_holdout_days"], stride=train_cfg.sample_stride,
        max_train_per_user=train_cfg.max_train_samples_per_user,
        target_window_days=pipe.get("target_window_days"))

    def make_tower():
        enc, loss, kind = variant_settings(VARIANT, enc_cfg, loss_cfg, train_cfg.dropout)
        params = quantize_params(init_params(enc, seed))
        return UserTower(kind, params, enc, surfaces), enc, loss

    surfaces = {name: i for i, name in enumerate(dataset.surfaces)}
    tower, enc_v, loss_v = timed("encoder.init_params", make_tower)

    horizon_day = max(e.ts for e in events) // SECONDS_PER_DAY + 1
    holdout = pipe["eval_holdout_days"]
    # The CLI drops generator-only user profiles when it reads a world back;
    # coldstart_eval needs them, so they come from the in-memory bundle.
    data = PipelineData(
        bundle=WorldBundle(config=dataset, seed=seed, posts=posts,
                           users=bundle.users, events=raw_events),
        events=events, embeddings=embs, post_encoder=penc, train=train, eval=eval_,
        surfaces=surfaces, holdout_start_ts=(horizon_day - holdout) * SECONDS_PER_DAY,
        eval_holdout_days=holdout)
    fx = Fixture(seed=seed, dataset=dataset, enc_cfg=enc_v, loss_cfg=loss_v,
                 train_cfg=train_cfg, pipe=pipe, posts=posts, events=events,
                 embeddings=embs, post_encoder=penc, train=train, eval=eval_,
                 surfaces=surfaces, data=data, tower=tower, horizon_day=horizon_day,
                 timings=timings)
    fx.counts = {"world.events": len(bundle.events), "samples.train_samples": len(train),
                 "samples.eval_samples": len(eval_)}
    fx.hashes = {name: sha256_file(p) for name, p in paths.items()}
    return fx

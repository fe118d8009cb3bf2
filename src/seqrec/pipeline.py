"""End-to-end data preparation shared by the CLI, the experiments and the tests.

`prepare` generates a world in memory and `load_pipeline` reads one that
gen-data wrote; both end in the same filter -> samples -> holdout tail, so a
world yields the same PipelineData whichever way it arrives.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .configs import SECTIONS, DatasetConfig, EncoderConfig, PipelineConfig, from_json_dict
from .dataio import read_events_jsonl, read_posts_jsonl
from .embeddings import EmbeddingSet, load_embeddings
from .manifest import RunManifest
from .post_encoder import PostEncoder
from .samples import build_samples, filter_events, holdout_start_ts
from .world import SECONDS_PER_DAY, WorldBundle, build_world


@dataclass(eq=False)
class PipelineData:
    bundle: WorldBundle
    events: list                   # filtered stream
    embeddings: EmbeddingSet
    post_encoder: PostEncoder
    train: list
    eval: list
    surfaces: dict
    holdout_start_ts: int
    eval_holdout_days: int

    @property
    def posts(self) -> list:
        return self.bundle.posts

    @property
    def users(self) -> list:
        return self.bundle.users

    @property
    def holdout_days(self) -> range:
        """The eval holdout's days; the first begins at holdout_start_ts."""
        first = self.holdout_start_ts // SECONDS_PER_DAY
        return range(first, first + self.eval_holdout_days)


def _from_world(bundle: WorldBundle, post_encoder: PostEncoder,
                embeddings: EmbeddingSet, pipe: PipelineConfig, *, max_seq_len: int,
                m: int, max_train_per_user: int,
                sample_stride: int | None) -> PipelineData:
    """Filter the world's events, cut samples and fix the holdout boundary."""
    events = filter_events(bundle.events, min_interactions=pipe.min_interactions,
                           drop_integrity=pipe.drop_integrity, posts=bundle.posts)
    train, eval_ = build_samples(events, L_max=max_seq_len, m=m,
                                 eval_holdout_days=pipe.eval_holdout_days,
                                 stride=sample_stride,
                                 max_train_per_user=max_train_per_user,
                                 target_window_days=pipe.target_window_days)
    surfaces = {name: i for i, name in enumerate(bundle.config.surfaces)}
    return PipelineData(bundle=bundle, events=events, embeddings=embeddings,
                        post_encoder=post_encoder, train=train, eval=eval_,
                        surfaces=surfaces,
                        holdout_start_ts=holdout_start_ts(events, pipe.eval_holdout_days),
                        eval_holdout_days=pipe.eval_holdout_days)


def prepare(dataset_cfg: DatasetConfig, seed: int, enc_cfg: EncoderConfig, m: int = 5,
            max_train_per_user: int = 4, sample_stride: int | None = None,
            **pipeline) -> PipelineData:
    """Generate a world, filter it, embed its posts with the oracle encoder and
    cut train/eval samples. `pipeline` holds PipelineConfig keys."""
    pipe = from_json_dict(PipelineConfig, pipeline)
    bundle = build_world(dataset_cfg, seed)
    penc = PostEncoder("oracle", dataset_cfg, oracle_sigma=pipe.oracle_sigma, oracle_seed=seed)
    return _from_world(bundle, penc, penc.encode_all(bundle.posts), pipe,
                       max_seq_len=enc_cfg.max_seq_len, m=m,
                       max_train_per_user=max_train_per_user, sample_stride=sample_stride)


def load_pipeline(world_dir, resolved: dict, embeddings_path=None) -> PipelineData:
    """Read a gen-data directory into PipelineData under a resolved CLI config.

    The world's own manifest supplies its dataset config and seed; `resolved`
    (sections encoder/loss/train/pipeline) supplies the sample cutting. The
    embeddings come from embeddings_path, else the world's embeddings.nxtp.
    Generator-only user profiles are not on disk, so `users` is empty, and
    post_encoder is the world's oracle encoder.
    """
    world_dir = Path(world_dir)
    posts = read_posts_jsonl(world_dir / "posts.jsonl")
    events = read_events_jsonl(world_dir / "events.jsonl")
    man = RunManifest.load(world_dir / "manifest.json")
    dataset = from_json_dict(DatasetConfig, man.config["dataset"])
    bundle = WorldBundle(config=dataset, seed=man.seed, posts=posts, users=[],
                         events=events)
    enc_cfg, loss_cfg, train_cfg, pipe = (
        from_json_dict(SECTIONS[name], resolved[name])
        for name in ("encoder", "loss", "train", "pipeline"))
    penc = PostEncoder("oracle", dataset, oracle_sigma=pipe.oracle_sigma,
                       oracle_seed=man.seed)
    embeddings = load_embeddings(embeddings_path or world_dir / "embeddings.nxtp")
    return _from_world(bundle, penc, embeddings, pipe,
                       max_seq_len=enc_cfg.max_seq_len, m=loss_cfg.m,
                       max_train_per_user=train_cfg.max_train_samples_per_user,
                       sample_stride=train_cfg.sample_stride)


def alive_corpus(posts: list, embeddings: EmbeddingSet,
                 day_from: int, day_to: int) -> tuple[list, "object"]:
    """Ids + vectors of non-flagged posts alive on any day in [day_from, day_to].

    A post created by day_to is alive in the window iff it is alive on the
    window's first day it exists, so `Post.alive_on` stays the one rule."""
    ids = [p.post_id for p in posts
           if not p.integrity_violating
           and p.created_at <= day_to and p.alive_on(max(p.created_at, day_from))
           and p.post_id in embeddings]
    return ids, embeddings.gather(ids)

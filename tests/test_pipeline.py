"""One path from a world to PipelineData: the holdout boundary and loading."""
import json

import numpy as np

from seqrec.cli import main
from seqrec.configs import DatasetConfig, EncoderConfig
from seqrec.manifest import RunManifest
from seqrec.pipeline import load_pipeline, prepare
from seqrec.world import SECONDS_PER_DAY


def _sample_key(s):
    return (s.user_id, s.history, s.long_targets, s.cutoff_time, s.target_ts)


def test_holdout_boundary_from_filtered_events():
    cfg = DatasetConfig(users=8, posts_per_day=6, days=6, activity_rate=1.0,
                        integrity_rate=0.2, calibrate_survival=False)
    data = prepare(cfg, seed=5, enc_cfg=EncoderConfig(), eval_holdout_days=3)
    # filtering empties the last day of this world, so the raw and the
    # filtered stream end on different days
    assert max(e.ts for e in data.bundle.events) // SECONDS_PER_DAY > \
        max(e.ts for e in data.events) // SECONDS_PER_DAY
    assert data.eval
    for s in data.eval:
        assert data.holdout_start_ts == s.cutoff_time


def test_load_pipeline_matches_prepare(tmp_path):
    dataset = {"users": 30, "posts_per_day": 20, "days": 10, "n_topics": 6,
               "activity_rate": 3.0, "calibrate_survival": False}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": dataset, "encoder": {"max_seq_len": 8},
                                  "loss": {"m": 3},
                                  "pipeline": {"eval_holdout_days": 2}}))
    world = tmp_path / "world"
    assert main(["gen-data", "--config", str(config), "--seed", "4",
                 "--out", str(world)]) == 0
    loaded = load_pipeline(world, RunManifest.load(world / "manifest.json").config)
    ref = prepare(DatasetConfig(**dataset), seed=4,
                  enc_cfg=EncoderConfig(max_seq_len=8), eval_holdout_days=2, m=3)

    assert loaded.events == ref.events
    assert loaded.holdout_start_ts == ref.holdout_start_ts
    assert loaded.eval_holdout_days == ref.eval_holdout_days
    assert loaded.surfaces == ref.surfaces
    assert [_sample_key(s) for s in loaded.train] == [_sample_key(s) for s in ref.train]
    assert [_sample_key(s) for s in loaded.eval] == [_sample_key(s) for s in ref.eval]
    np.testing.assert_array_equal(loaded.embeddings.ids, ref.embeddings.ids)
    np.testing.assert_array_equal(loaded.embeddings.vectors, ref.embeddings.vectors)
    post = ref.posts[0]
    np.testing.assert_array_equal(loaded.post_encoder.encode_one(post),
                                  ref.post_encoder.encode_one(post))

"""Behaviour lock: one small end-to-end CLI run pinned byte for byte.

gen-data, train, eval, the staleness experiment and serve-sim run on the
test_cli world at seed 7. The sha256 of every data file they write and every
manifest metric (except the wall-clock `mean_query_seconds`) must match the
goldens below exactly. Refactors keep this green unchanged; a change that must
move a value updates the golden in the same change and says why.
"""
import hashlib
import json

import pytest

from seqrec.cli import main
from seqrec.manifest import RunManifest

WORLD_CONFIG = {
    "dataset": {"users": 50, "posts_per_day": 30, "days": 12, "n_topics": 8,
                "activity_rate": 3.0, "calibrate_survival": False},
    "encoder": {"max_seq_len": 12},
    "loss": {"m": 3},
    "train": {"batch_size": 16, "epochs": 1, "learning_rate": 2e-3},
    "pipeline": {"eval_holdout_days": 2},
}
SEED = "7"

GOLDEN_SHA256 = {
    ("world", "posts.jsonl"): "f7b8096d6b18ccfd598feb8fc5a4eba9d4f8729e69d7afdc769cb2f3c5b9e3bb",
    ("world", "events.jsonl"): "60c06243557e8347e0da5cfa77c17e527142163ac417b42ea66bfbc4969fe0b7",
    ("world", "embeddings.nxtp"): "adb7996077b89462dc7c46f26f15177cdb2c86169f3ca4ea2bc418077518fa03",
    ("train", "checkpoint.ckpt"): "8497e8b4693e4a91d4280f5ffbf287fb96564a225dc293ef0710a352ed53d84c",
    ("serve", "queries.jsonl"): "c6f43e9f510c404b33c57a1e7cb0ed7973c7cb2069ba08afb667021c439fa7c1",
}

GOLDEN_METRICS = {
    "world": {"n_events": 1811, "n_posts": 360, "n_users": 50},
    "train": {"final_hits1": 0.25, "final_hits10": 0.9166666666666666,
              "final_loss": 4.112755484050692, "n_train_samples": 200},
    "eval": {"batch_hits1": 0.25, "batch_hits10": 0.9166666666666666,
             "batch_n": 48, "knn_hits10": 0.4897959183673469, "knn_n": 49},
    "stale": {"drop_stale_0": 0.0, "drop_stale_1": -0.045454545454545504,
              "drop_stale_2": 0.20454545454545453,
              "drop_stale_3": 0.11363636363636363,
              "hits20_stale_0": 0.8979591836734694,
              "hits20_stale_1": 0.9387755102040817,
              "hits20_stale_2": 0.7142857142857143,
              "hits20_stale_3": 0.7959183673469388},
    "serve": {"cold_misses": 0, "days": 2, "mean_query_corpus": 166.0, "post_snapshot": 2,
              "queries_served": 10, "user_snapshot": 2, "users_refreshed": 94},
}


@pytest.fixture(scope="module")
def lock_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("lock")
    config = root / "config.json"
    config.write_text(json.dumps(WORLD_CONFIG))
    world, ckpt = root / "world", root / "train" / "checkpoint.ckpt"
    commands = {
        "world": ["gen-data"],
        "train": ["train", "--world", str(world)],
        "eval": ["eval", "--world", str(world), "--checkpoint", str(ckpt)],
        "stale": ["experiment", "staleness", "--world", str(world),
                  "--checkpoint", str(ckpt), "--max-days", "3"],
        "serve": ["serve-sim", "--world", str(world), "--checkpoint", str(ckpt),
                  "--days", "2"],
    }
    for name, argv in commands.items():
        rc = main(argv + ["--config", str(config), "--seed", SEED,
                          "--out", str(root / name)])
        assert rc == 0, name
    return root


def test_output_files_byte_identical(lock_run):
    got = {key: hashlib.sha256((lock_run / key[0] / key[1]).read_bytes()).hexdigest()
           for key in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


@pytest.mark.parametrize("run", sorted(GOLDEN_METRICS))
def test_manifest_metrics_identical(lock_run, run):
    metrics = RunManifest.load(lock_run / run / "manifest.json").metrics
    metrics.pop("mean_query_seconds", None)
    assert metrics == GOLDEN_METRICS[run]

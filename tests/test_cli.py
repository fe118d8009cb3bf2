import json
import shutil
from pathlib import Path

import pytest

from seqrec.cli import _resolve, main, replay_manifest
from seqrec.manifest import RunManifest
from seqrec.pipeline import load_pipeline

from helpers import subcommands

WORLD_CONFIG = {
    "dataset": {"users": 50, "posts_per_day": 30, "days": 12, "n_topics": 8,
                "activity_rate": 3.0, "calibrate_survival": False},
    "encoder": {"max_seq_len": 12},
    "loss": {"m": 3},
    "train": {"batch_size": 16, "epochs": 1, "learning_rate": 2e-3},
    "pipeline": {"eval_holdout_days": 2},
}


@pytest.fixture(scope="module")
def world_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(WORLD_CONFIG))
    return path


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory, world_cfg):
    out = tmp_path_factory.mktemp("world")
    rc = main(["gen-data", "--config", str(world_cfg), "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    return out


class TestGenData:
    def test_outputs_and_manifest(self, world_dir):
        for name in ("posts.jsonl", "events.jsonl", "embeddings.nxtp", "manifest.json"):
            assert (world_dir / name).exists()
        man = RunManifest.load(world_dir / "manifest.json")
        assert man.command == "gen-data"
        assert man.seed == 7
        assert man.metrics["n_events"] > 0

    def test_byte_identical_rerun(self, tmp_path, world_cfg, world_dir):
        out2 = tmp_path / "again"
        rc = main(["gen-data", "--config", str(world_cfg), "--seed", "7",
                   "--out", str(out2)])
        assert rc == 0
        for name in ("posts.jsonl", "events.jsonl", "embeddings.nxtp"):
            assert (world_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_differs(self, tmp_path, world_cfg, world_dir):
        out2 = tmp_path / "seed8"
        assert main(["gen-data", "--config", str(world_cfg), "--seed", "8",
                     "--out", str(out2)]) == 0
        assert (world_dir / "events.jsonl").read_bytes() != (out2 / "events.jsonl").read_bytes()


class TestUsageErrors:
    def test_unknown_flag_exit_1(self, capsys):
        assert main(["gen-data", "--nonsense", "x", "--out", "/tmp/zz"]) == 1

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate", "--out", "/tmp/zz"]) == 1

    def test_missing_required_out_exit_1(self):
        assert main(["gen-data"]) == 1

    def test_bad_config_section_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": {}}))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_pipeline_key_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pipeline": {"eval_holdout_dayz": 5}}))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "eval_holdout_dayz" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [[], {"pipeline": 5}, {"loss": ["m", 3]}])
    def test_non_object_config_exit_1(self, tmp_path, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_every_pipeline_key_resolves(self):
        pipe = {"eval_holdout_days": 5, "min_interactions": 1, "drop_integrity": False,
                "oracle_sigma": 0.2, "target_window_days": 4}
        assert _resolve({"pipeline": pipe}, {})["pipeline"] == pipe
        assert _resolve({}, {})["pipeline"] == {
            "eval_holdout_days": 3, "min_interactions": 2, "drop_integrity": True,
            "oracle_sigma": 0.1, "target_window_days": None}

    @pytest.mark.parametrize("section,key,value,message", [
        ("train", "epochs", "4", "train.epochs must be an integer"),
        ("pipeline", "drop_integrity", "false", "pipeline.drop_integrity must be true or"),
        ("encoder", "causal", "false", "encoder.causal must be true or false"),
        ("loss", "m", 2.5, "loss.m must be an integer"),
        ("dataset", "users", 1e3, "dataset.users must be an integer"),
        ("dataset", "surfaces", "feed", "dataset.surfaces must be a list of strings"),
        ("pipeline", "eval_holdout_days", 0, "eval_holdout_days must be >= 1")])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, section, key, value,
                                             message):
        config = {name: dict(fields) for name, fields in WORLD_CONFIG.items()}
        config[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_encoder_dropout_apart_from_train_dropout_exit_1(self, tmp_path, capsys):
        bad = _config_with(tmp_path, encoder={"dropout": 0.1})
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "encoder.dropout=0.1" in err and "train.dropout=0.2" in err
        assert not (tmp_path / "o").exists()
        agreed = _config_with(tmp_path, encoder={"dropout": 0.1}, train={"dropout": 0.1})
        assert _resolve(json.loads(agreed.read_text()), {})["encoder"]["dropout"] == 0.1

    def test_runtime_failure_exit_2(self, tmp_path, world_cfg):
        # train against a world directory that does not exist
        rc = main(["train", "--config", str(world_cfg), "--world",
                   str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_truncated_world_file_exit_2(self, tmp_path, world_cfg, world_dir, caplog):
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        events = world / "events.jsonl"
        events.write_bytes(events.read_bytes()[:-20])
        rc = main(["train", "--config", str(world_cfg), "--world", str(world),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        n_lines = events.read_bytes().count(b"\n") + 1
        assert f"{events}, line {n_lines}: " in caplog.text

    def test_malformed_world_manifest_exit_2(self, tmp_path, world_cfg, world_dir, caplog):
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        (world / "manifest.json").write_text("[1]")
        rc = main(["train", "--config", str(world_cfg), "--world", str(world),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{world / 'manifest.json'}: RunManifest must be a JSON object" in caplog.text


def _config_with(tmp_path, **sections) -> Path:
    """WORLD_CONFIG with the given sections' keys overridden, written to a file."""
    config = {name: dict(fields) for name, fields in WORLD_CONFIG.items()}
    for name, fields in sections.items():
        config.setdefault(name, {}).update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestCommandTable:
    def test_every_subcommand_names_its_runner(self):
        runners = {name: sp.get_default("run") for name, sp in subcommands().items()}
        assert runners and all(callable(run) for run in runners.values()), runners

    def test_manifests_do_not_record_the_runner(self, world_dir, trained, tmp_path, world_cfg):
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(world_cfg), "--world", str(world_dir),
                     "--checkpoint", str(trained / "checkpoint.ckpt"), "--out", str(out)]) == 0
        for run in (world_dir, trained, out):
            cli_args = RunManifest.load(run / "manifest.json").config["cli_args"]
            assert "run" not in cli_args and cli_args["command"]


class TestRunChecks:
    """Runs whose settings or checkpoint do not fit the world or the command."""

    def test_eval_without_integrity_filter_scores_flagged_targets_as_absent(self, tmp_path):
        cfg = _config_with(tmp_path, dataset={"integrity_rate": 0.2},
                           pipeline={"drop_integrity": False})
        world, train_out, out = tmp_path / "world", tmp_path / "train", tmp_path / "eval"
        assert main(["gen-data", "--config", str(cfg), "--seed", "7", "--out", str(world)]) == 0
        assert main(["train", "--config", str(cfg), "--world", str(world),
                     "--out", str(train_out)]) == 0
        data = load_pipeline(world, RunManifest.load(train_out / "manifest.json").config)
        flagged = {p.post_id for p in data.posts if p.integrity_violating}
        assert flagged & {t for s in data.eval for t in s.long_targets}
        assert main(["eval", "--config", str(cfg), "--world", str(world),
                     "--checkpoint", str(train_out / "checkpoint.ckpt"),
                     "--out", str(out)]) == 0
        metrics = RunManifest.load(out / "manifest.json").metrics
        # every eval user with targets is still a query; one whose targets
        # are all flagged is a miss
        assert metrics["knn_n"] == sum(1 for s in data.eval if s.long_targets)
        assert 0 < metrics["knn_hits10"] < 1

    def test_serve_sim_rejects_a_baseline_checkpoint(self, tmp_path, world_cfg, world_dir,
                                                     capsys):
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(world_cfg), "--world", str(world_dir),
                     "--variant", "baseline_avg", "--out", str(train_out)]) == 0
        ckpt = train_out / "checkpoint.ckpt"
        rc = main(["serve-sim", "--config", str(world_cfg), "--world", str(world_dir),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "serve")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'baseline_avg'" in err
        assert not (tmp_path / "serve" / "queries.jsonl").exists()

    def test_serve_sim_counts_a_cold_user_as_a_miss(self, tmp_path):
        """Without the integrity filter a queried user whose every earlier event
        is on a flagged post has no served vector (user 43 before day 11 of
        this seed-2 world); serve-sim counts the query as a cold miss."""
        cfg = _config_with(tmp_path, dataset={"integrity_rate": 0.5},
                           pipeline={"drop_integrity": False, "min_interactions": 1})
        world, train_out, out = tmp_path / "world", tmp_path / "train", tmp_path / "serve"
        assert main(["gen-data", "--config", str(cfg), "--seed", "2", "--out", str(world)]) == 0
        assert main(["train", "--config", str(cfg), "--world", str(world),
                     "--out", str(train_out)]) == 0
        assert main(["serve-sim", "--config", str(cfg), "--world", str(world),
                     "--checkpoint", str(train_out / "checkpoint.ckpt"), "--days", "6",
                     "--queries-per-day", "50", "--out", str(out)]) == 0
        metrics = RunManifest.load(out / "manifest.json").metrics
        assert metrics["cold_misses"] > 0
        lines = (out / "queries.jsonl").read_text().splitlines()
        assert len(lines) == metrics["queries_served"]
        assert 43 not in {json.loads(line)["user_id"] for line in lines
                          if json.loads(line)["ts"] == 11 * 86400}

    def test_too_few_surface_rows_names_the_setting(self, tmp_path, world_dir, caplog):
        cfg = _config_with(tmp_path, encoder={"n_surfaces": 1})
        rc = main(["train", "--config", str(cfg), "--world", str(world_dir),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "encoder.n_surfaces=1 is below the world's 3 surfaces" in caplog.text

    def test_training_that_forms_no_batch_fails(self, tmp_path, world_dir, caplog):
        # 50 users cannot fill the default batch of 64 distinct users
        cfg = _config_with(tmp_path, train={"batch_size": 64})
        rc = main(["train", "--config", str(cfg), "--world", str(world_dir),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "batch_size=64" in caplog.text and "have 50" in caplog.text
        assert not (tmp_path / "o" / "checkpoint.ckpt").exists()


def _assert_same_metrics(replayed: dict, original: dict) -> None:
    assert set(replayed) == set(original)
    for key, val in original.items():
        if isinstance(val, float):
            assert abs(replayed[key] - val) < 1e-7, key
        else:
            assert replayed[key] == val


@pytest.fixture(scope="module")
def trained(tmp_path_factory, world_cfg, world_dir):
    out = tmp_path_factory.mktemp("train")
    rc = main(["train", "--config", str(world_cfg), "--world", str(world_dir),
               "--variant", "ttt_causal_long", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    return out


class TestTrainEvalPipeline:
    def test_train_outputs(self, trained):
        assert (trained / "checkpoint.ckpt").exists()
        assert (trained / "report.json").exists()
        report = json.loads((trained / "report.json").read_text())
        assert report["variant"] == "ttt_causal_long"
        assert len(report["losses"]) > 0

    def test_eval_writes_report(self, tmp_path, world_cfg, world_dir, trained):
        out = tmp_path / "eval"
        rc = main(["eval", "--config", str(world_cfg), "--world", str(world_dir),
                   "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--out", str(out)])
        assert rc == 0
        man = RunManifest.load(out / "manifest.json")
        assert "batch_hits1" in man.metrics
        assert "knn_hits10" in man.metrics
        reports = json.loads((out / "eval_report.json").read_text())
        assert reports[0]["metric"] == "knn_hits"

    def test_replay_reproduces_metrics(self, tmp_path, trained):
        replayed = replay_manifest(trained / "manifest.json", tmp_path / "replay")
        _assert_same_metrics(replayed, RunManifest.load(trained / "manifest.json").metrics)

    @pytest.mark.parametrize("argv,flag_key,default_key", [
        (["eval", "--k", "5"], "knn_hits5", "knn_hits10"),
        (["experiment", "staleness", "--max-days", "1"], "hits20_stale_1", "hits20_stale_2")])
    def test_replay_keeps_non_default_flags(self, tmp_path, world_cfg, world_dir,
                                            trained, argv, flag_key, default_key):
        out = tmp_path / "run"
        assert main(argv + ["--config", str(world_cfg), "--world", str(world_dir),
                            "--checkpoint", str(trained / "checkpoint.ckpt"),
                            "--out", str(out)]) == 0
        original = RunManifest.load(out / "manifest.json").metrics
        assert flag_key in original and default_key not in original
        replayed = replay_manifest(out / "manifest.json", tmp_path / "replay")
        _assert_same_metrics(replayed, original)

    @pytest.mark.parametrize("command,k", [("eval", "-1"), ("eval", "0"),
                                           ("serve-sim", "0")])
    def test_nonpositive_k_is_usage_error(self, tmp_path, world_cfg, world_dir,
                                          trained, command, k):
        rc = main([command, "--config", str(world_cfg), "--world", str(world_dir),
                   "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--k", k, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert not (tmp_path / "o").exists()

    def test_serve_sim_runs(self, tmp_path, world_cfg, world_dir, trained):
        out = tmp_path / "serve"
        rc = main(["serve-sim", "--config", str(world_cfg), "--world", str(world_dir),
                   "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--days", "2", "--out", str(out)])
        assert rc == 0
        man = RunManifest.load(out / "manifest.json")
        assert man.metrics["queries_served"] > 0
        lines = (out / "queries.jsonl").read_text().splitlines()
        assert len(lines) == man.metrics["queries_served"]

    def test_manifest_without_target_window_loads_and_replays(self, tmp_path, world_dir,
                                                              trained):
        # manifests written before the pipeline section became a dataclass
        # have no target_window_days key
        def strip(src, dst):
            man = json.loads(src.read_text())
            del man["config"]["pipeline"]["target_window_days"]
            dst.write_text(json.dumps(man))
            return man

        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        old_world = strip(world_dir / "manifest.json", world / "manifest.json")
        loaded = load_pipeline(world, old_world["config"])
        ref = load_pipeline(world_dir, RunManifest.load(world_dir / "manifest.json").config)
        for got, want in ((loaded.train, ref.train), (loaded.eval, ref.eval)):
            assert [(s.user_id, s.history, s.long_targets) for s in got] == \
                [(s.user_id, s.history, s.long_targets) for s in want]

        old_train = strip(trained / "manifest.json", tmp_path / "manifest.json")
        replayed = replay_manifest(tmp_path / "manifest.json", tmp_path / "replay")
        _assert_same_metrics(replayed, old_train["metrics"])


class TestTrainPostTower:
    def test_outputs_feed_train(self, tmp_path, world_cfg, world_dir):
        out = tmp_path / "tower"
        assert main(["train-post-tower", "--config", str(world_cfg),
                     "--world", str(world_dir), "--out", str(out)]) == 0
        assert (out / "post_tower.ckpt").exists()
        embeddings = out / "embeddings.nxtp"
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(world_cfg), "--world", str(world_dir),
                     "--embeddings", str(embeddings), "--out", str(train_out)]) == 0
        assert str(embeddings) in RunManifest.load(train_out / "manifest.json").inputs

    def test_epochs_flag_is_usage_error(self, tmp_path, world_cfg, world_dir):
        # the post tower trains for PostTowerConfig.epochs; the flag never reached it
        rc = main(["train-post-tower", "--config", str(world_cfg), "--world", str(world_dir),
                   "--epochs", "3", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert not (tmp_path / "o").exists()


class TestExperimentCommands:
    def test_staleness_requires_checkpoint(self, tmp_path, world_cfg, world_dir):
        rc = main(["experiment", "staleness", "--config", str(world_cfg),
                   "--world", str(world_dir), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_staleness_report_count(self, tmp_path, world_cfg, world_dir):
        train_out = tmp_path / "t"
        assert main(["train", "--config", str(world_cfg), "--world", str(world_dir),
                     "--variant", "ttt_causal_long", "--seed", "1",
                     "--out", str(train_out)]) == 0
        out = tmp_path / "stale"
        rc = main(["experiment", "staleness", "--config", str(world_cfg),
                   "--world", str(world_dir),
                   "--checkpoint", str(train_out / "checkpoint.ckpt"),
                   "--max-days", "3", "--out", str(out)])
        assert rc == 0
        reports = json.loads((out / "staleness.json").read_text())
        assert len(reports) == 4  # d = 0..3
        assert [r["slice"]["staleness_days"] for r in reports] == [0, 1, 2, 3]
        assert reports[0]["slice"]["drop"] == 0.0


class TestDayAndCountFlags:
    """Day and count flags outside their range are usage errors (exit 1,
    nothing written); a staleness depth no eval user's history reaches is a
    runtime failure that names the cutoff day."""

    @pytest.mark.parametrize("argv", [
        ["experiment", "staleness", "--max-days", "-1"],
        ["experiment", "temporal-decay", "--horizon-days", "0"],
        ["serve-sim", "--days", "0"],
        ["serve-sim", "--queries-per-day", "-1"],
    ])
    def test_out_of_range_is_usage_error(self, tmp_path, world_cfg, world_dir, trained,
                                         argv):
        ckpt = [] if "temporal-decay" in argv else [
            "--checkpoint", str(trained / "checkpoint.ckpt")]
        rc = main(argv + ["--config", str(world_cfg), "--world", str(world_dir),
                          *ckpt, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert not (tmp_path / "o").exists()

    def test_decay_horizon_beyond_the_holdout_is_usage_error(self, tmp_path, world_dir,
                                                             capsys):
        # README's command: the default --horizon-days 7 against the default
        # pipeline.eval_holdout_days 3
        out = tmp_path / "o"
        rc = main(["experiment", "temporal-decay", "--world", str(world_dir),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--horizon-days 7" in err and "3-day holdout" in err
        assert "pipeline.eval_holdout_days" in err
        assert not (out / "temporal_decay.json").exists()

    def test_staleness_beyond_every_history_fails(self, tmp_path, world_cfg, world_dir,
                                                  trained, caplog):
        rc = main(["experiment", "staleness", "--config", str(world_cfg),
                   "--world", str(world_dir),
                   "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--max-days", "50", "--out", str(tmp_path / "o")])
        assert rc == 2
        # the world has 12 days and a 2-day holdout: eval starts on day 10
        assert "no eval user has history before day -40" in caplog.text
        assert not (tmp_path / "o" / "staleness.json").exists()


class TestSweepCommand:
    def test_sweep_seq_len(self, tmp_path, world_cfg, world_dir):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(world_cfg), "--world", str(world_dir),
                   "--axis", "seq_len", "--values", "4,8", "--seeds", "0",
                   "--out", str(out)])
        assert rc == 0
        reports = json.loads((out / "sweep.json").read_text())
        assert [r["slice"]["seq_len"] for r in reports] == [4, 8]
        assert all(r["slice"]["secs_per_step"] > 0 for r in reports)

    @pytest.mark.parametrize("flag,text", [
        ("--values", "4,x"), ("--values", "8,4"), ("--values", "4,4"),
        ("--values", "0,4"), ("--values", ""), ("--seeds", "0,y")])
    def test_malformed_list_is_usage_error(self, tmp_path, world_cfg, world_dir,
                                           capsys, flag, text):
        argv = {"--values": "4,8", "--seeds": "0", flag: text}
        rc = main(["sweep", "--config", str(world_cfg), "--world", str(world_dir),
                   "--axis", "seq_len", "--values", argv["--values"],
                   "--seeds", argv["--seeds"], "--out", str(tmp_path / "o")])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_replay_reproduces_sweep(self, tmp_path, world_cfg, world_dir):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(world_cfg), "--world", str(world_dir),
                     "--axis", "layers", "--values", "1,2", "--seeds", "3",
                     "--out", str(out)]) == 0
        man = RunManifest.load(out / "manifest.json")
        assert (man.config["cli_args"]["values"], man.config["cli_args"]["seeds"]) == ("1,2", "3")
        replayed = replay_manifest(out / "manifest.json", tmp_path / "replay")
        _assert_same_metrics(replayed, man.metrics)
        assert set(man.metrics) == {"hits1_layers_1", "hits1_layers_2"}

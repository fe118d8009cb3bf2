"""The benchmark's traced mode patches seqrec functions by name and its phases
import seqrec names; a rename that would break it fails here first. Its
attribute readers take values from fixed argument positions and result
fields, so a signature change that would break them fails here too."""
import ast
import importlib
from pathlib import Path

import numpy as np

from seqrec.configs import EncoderConfig, LossConfig, TrainConfig
from seqrec.encoder import init_params
from seqrec.experiments import coldstart_eval, staleness_experiment
from seqrec.optim import Adam
from seqrec.serving import ServingSim
from seqrec.trainer import UserTower, train_step

from helpers import make_samples, random_embeddings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _owner(spec: str):
    """'pkg.mod' -> the module; 'pkg.mod:Class' -> that class."""
    mod_name, _, cls = spec.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


def test_every_wrapped_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    phases = importlib.import_module("seqbench.phases")
    wraps = [w for phase in phases.WRAPS.values() for w in phase]
    assert wraps
    missing = [(owner, attr) for owner, attr, *_ in wraps
               if not hasattr(_owner(owner), attr)]
    assert missing == []


def test_every_imported_seqrec_name_resolves():
    imported = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqrec"):
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert {mod for _, mod, _ in imported} >= {"seqrec.metrics", "seqrec.serving"}
    missing = [entry for entry in imported
               if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


def test_attribute_readers_see_the_arguments_they_expect(monkeypatch):
    """One traced train step and one eval encode: every reader records the
    value its argument positions should give, e.g. _attn_bytes reads x and
    n_heads as mha_forward's args 0 and 5."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    phases = importlib.import_module("seqbench.phases")
    tracer = importlib.import_module("seqbench.tracer")
    enc = EncoderConfig(d_model=8, n_heads=2, n_layers=2, max_seq_len=5,
                        dropout=0.1, pooling="last", d_ff=16, n_surfaces=2)
    embs = random_embeddings(60, 8, seed=1)
    tower = UserTower("transformer", init_params(enc, seed=1), enc, {"feed": 0, "search": 1})
    batch = make_samples(4, (5, 3, 2, 4), 60, seed=2)
    tr = tracer.Tracer()
    with tracer.install(tr, phases.TRAIN_WRAPS + phases.EVAL_WRAPS):
        train_step(tower, Adam(tower.params, lr=1e-3), batch, embs,
                   TrainConfig(batch_size=4), LossConfig(m=2), epoch=0, step=0)
        tower.eval_user_vectors(batch[:3], embs)
    attrs = {}
    for span in tr.spans:
        attrs.setdefault(span.name, []).append(span.attrs)
    b, l = 4, 5 + 1                      # CLS plus the longest history
    assert attrs["blocks.mha_forward"] == [{"bytes": b * 2 * l * l * 8}] * 2 + [
        {"bytes": 3 * 2 * l * l * 8}] * 2
    assert attrs["encoder.assemble_batch_inputs"] == [{"cells": b * l, "pad": 2 + 3 + 1}]
    assert [a["anchors"] for a in attrs["loss.short_term_loss"]] == [4 + 2 + 1 + 3]
    assert [a["anchors"] for a in attrs["loss.long_term_loss"]] == [4 * 2]
    assert all(a["pool"] > 0 for a in attrs["loss.build_pool"])
    assert attrs["encoder.encode_user_vectors"] == [{"rows": 3}]


def test_every_eval_and_serve_wrap_records_a_span(monkeypatch, marginal_world_data):
    """The experiments reach alive_corpus through their module global and
    import coldstart's functions at call time, and serving encodes through its
    module global; otherwise a wrap records nothing and the traced metrics
    quietly read zero."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    phases = importlib.import_module("seqbench.phases")
    tracer = importlib.import_module("seqbench.tracer")
    data = marginal_world_data
    enc = EncoderConfig(max_seq_len=8)
    tower = UserTower("transformer", init_params(enc, seed=1), enc, data.surfaces)
    sim = ServingSim(posts=data.posts, params=tower.params, enc_cfg=enc,
                     post_encoder=data.post_encoder, surfaces=data.surfaces)
    day = data.holdout_days[0]
    sim.bootstrap_posts(day)

    def run_eval():
        staleness_experiment(tower, data, max_stale_days=1)
        coldstart_eval(data, tower, marginal_threshold=20)

    for wraps, run in ((phases.EVAL_WRAPS, run_eval),
                       (phases.SERVE_WRAPS, lambda: sim.refresh_users(data.events, day))):
        tr = tracer.Tracer()
        with tracer.install(tr, phases.EVAL_WRAPS + phases.SERVE_WRAPS):
            run()
        assert {name for _, _, name, _ in wraps} <= {span.name for span in tr.spans}

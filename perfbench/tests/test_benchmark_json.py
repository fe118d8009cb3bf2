"""BENCHMARK.json agrees with what the benchmark measures and how."""
import importlib.util
import json
import re
from pathlib import Path

from seqbench import catalog, phases

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_top_level_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1] == "perfbench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_metric_names_and_units_match_the_catalog():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == catalog.END_TO_END
    assert layers == catalog.PER_LAYER
    names = list(e2e) + list(layers) + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in [*e2e.values(), *layers.values()])


def test_bounds_and_directions():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")


def test_workloads_match_the_runner_and_state_the_serve_ladder():
    run = _run_module()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    why = SPEC["workloads"][0]["why"]
    rates = [int(r) for r in phases.LADDER_QPS]
    assert f"low {int(phases.NAMED_RUNGS['low'])}" in why
    assert f"high {int(phases.NAMED_RUNGS['high'])}" in why
    assert f"{rates[0]},{rates[1]},{rates[2]},{rates[3]}..{rates[-1]} q/s" in why
    assert f"p{phases.TAIL_P} limit {int(phases.LATENCY_LIMIT_MS)} ms" in why

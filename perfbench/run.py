"""Benchmark of the seqrec user tower: set-up, train, serve and offline eval.

Run from the root of a seqrec checkout:

    python3 perfbench/run.py --workload hist32 --seed 1 --seconds 10 --trace 0

One process generates the world and runs the three phases (see
``seqbench/phases.py``) against it. ``--trace 0`` interleaves the phases in
rounds and prints every end-to-end metric; ``--trace 1`` runs each phase
alone, untraced and then traced, checks that both produce bit-identical
outputs, and prints every per-layer metric. The last line of standard output
is the JSON result; the exit code is 0 only when every operation succeeded
and every output check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
# Workload -> the encoder's max_seq_len. hist32 is configs/desk.json as is.
WORKLOADS = {"hist32": 32, "hist16": 16}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum measuring time of the eval phase, spread over the rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _same_outputs(phase: str, a, b) -> bool:
    if phase != "serve":
        return a == b
    # The ladder above "high" may stop at a different rung in the two runs;
    # every (day, rate) both runs served must agree.
    common = a.keys() & b.keys()
    return bool(common) and all(a[key] == b[key] for key in common)


def _emit(result: dict, units: dict, prov: dict, problems: list) -> None:
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name in units:
        value = result["metrics"].get(name, {}).get("value")
        print(f"{name:<45} {value!s:>22} {units[name]}")
    shown: dict = {}
    for what in problems:        # the first few of each phase's problems
        phase = what.split(" ", 1)[0].rstrip(":")
        shown[phase] = shown.get(phase, 0) + 1
        if shown[phase] <= 5:
            print(f"problem: {what}", file=sys.stderr)
    for phase, n in shown.items():
        print(f"problems in {phase}: {n}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "seqrec").is_dir() or not (ROOT / "configs" / "desk.json").is_file():
        print(f"perfbench: {ROOT} is not a seqrec checkout "
              "(needs src/seqrec and configs/desk.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from seqbench import catalog, fixture, phases, provenance
    from seqbench.tracer import Tracer, install

    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        fx = fixture.build(ROOT, args.seed, WORKLOADS[args.workload], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass            # another run still uses it

    attempted = failed = 0
    problems: list = []
    values: dict = {}
    digests: dict = {}

    def absorb(res):
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed
        problems.extend(res.problems)
        digests.update(res.digests)

    if not args.trace:
        units = catalog.END_TO_END
        values["setup_s"] = fx.setup_s
        results = phases.interleave(fx, args.seconds)
        for phase in phases.PHASES:
            absorb(results[phase])
            values.update(results[phase].metrics)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Each phase runs alone, untraced and then traced, so its spans are
        # its own and the overhead share compares like with like.
        units = catalog.PER_LAYER
        values.update({f"setup.{name}_s": t for name, t in fx.timings.items()})
        values.update({f"setup.{name}": n for name, n in fx.counts.items()})
        for phase in phases.PHASES:
            ref = phases.drain(phase, fx, args.seconds)
            absorb(ref)
            tracer = Tracer()
            with install(tracer, phases.WRAPS[phase]):
                got = phases.drain(phase, fx, args.seconds, tracer)
            absorb(got)
            if not _same_outputs(phase, ref.outputs, got.outputs):
                failed += 1
                problems.append(f"{phase}: traced outputs differ from untraced")
            values.update(got.layers)
            values.update(phases.layer_metrics(phase, tracer))
            if ref.headline_s > 0:
                values[f"trace.overhead_share.{phase}"] = got.headline_s / ref.headline_s - 1

    for name in units.keys() - values.keys():
        failed += 1
        problems.append(f"metric {name} was not measured")
    for name in values.keys() - units.keys():
        failed += 1
        problems.append(f"metric {name} is not in the catalog")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    for name in bad:
        failed += 1
        problems.append(f"metric {name} is {values[name]}")
    metrics = {n: {"value": values[n], "unit": units[n]}
               for n in units if n in values and n not in bad}
    prov = provenance.collect(ROOT, args.seed, args.workload)
    prov["inputs_sha256"] = fx.hashes
    prov["outputs_sha256"] = digests
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    _emit(result, units, prov, problems)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

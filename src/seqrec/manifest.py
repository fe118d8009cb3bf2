"""Run manifests: resolved config, input hashes, outputs and metrics per CLI run.

Every CLI invocation writes exactly one manifest.json under its --out
directory. A manifest carries everything needed to replay the run (command,
fully resolved config, seed) plus content hashes of the inputs it read, so a
replay can verify it reproduced the same metrics from the same bytes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .configs import from_json_dict


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    inputs: dict = field(default_factory=dict)     # path -> sha256
    outputs: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    created_at: float = 0.0

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)

    @staticmethod
    def load(path) -> "RunManifest":
        """Read a manifest; malformed JSON or fields raise ValueError naming the path."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return from_json_dict(RunManifest, json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def new_manifest(command: str, config: dict, seed: int) -> RunManifest:
    return RunManifest(
        command=command, config=config, seed=seed,
        versions={"python": platform.python_version(), "numpy": np.__version__},
        created_at=time.time(),
    )

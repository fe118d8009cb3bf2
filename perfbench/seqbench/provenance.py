"""What a result was measured on: machine, interpreter, BLAS, commit, inputs.

Provenance is reported beside every result and never gated.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_floats(values) -> str:
    """sha256 of the float64 bytes, so any change in any bit shows."""
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:           # numpy < 1.26 prints and returns nothing
        return {}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded (threadpoolctl-free)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if line.count("/")}
    except OSError:
        return None
    libs = [p for p in paths
            if "openblas" in os.path.basename(p).lower() and ".so" in os.path.basename(p)]
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def collect(root, seed: int, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": _openblas_threads(),
        "NXTPOST_THREADS": os.environ.get("NXTPOST_THREADS"),
        "git_commit": _git_commit(root),
    }

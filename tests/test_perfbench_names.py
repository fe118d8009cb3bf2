"""The benchmark's traced mode patches seqrec functions by name and its phases
import seqrec names; a rename that would break it fails here first."""
import ast
import importlib
from pathlib import Path

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

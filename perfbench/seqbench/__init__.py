"""End-to-end and per-layer benchmark of the seqrec user tower.

The package is driven by ``perfbench/run.py``; see ``perfbench/README.md``.
"""

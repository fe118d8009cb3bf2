"""Plain helpers shared by test modules.

Fixtures live in conftest.py. Helpers live here because `perfbench/tests` has
a top-level conftest.py too, and a `from conftest import ...` resolves to
whichever of the two pytest imported last.
"""
import numpy as np

from seqrec.embeddings import EmbeddingSet
from seqrec.samples import HistoryItem, SequenceSample


def unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def scaled_cross_entropy(anchor, positive, negatives, s: float) -> float:
    """Softmax cross-entropy over [positive; negatives] with logits s*cosine.

    The scalar reference for `loss._ce_terms`. All vectors must be unit-norm.
    With no negatives the loss is exactly 0.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    cands = [np.asarray(positive, dtype=np.float64)]
    cands.extend(np.asarray(n, dtype=np.float64) for n in negatives)
    for v in [anchor] + cands:
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-4:
            raise ValueError(f"expected unit-norm vectors, got norm {norm:.6f}")
    logits = s * np.array([float(anchor @ c) for c in cands])
    m = logits.max()
    return float(np.log(np.exp(logits - m).sum()) + m - logits[0])


def random_embeddings(n: int, dim: int, seed: int = 0) -> EmbeddingSet:
    rng = np.random.Generator(np.random.PCG64(seed))
    vecs = unit_rows(rng.standard_normal((n, dim)))
    return EmbeddingSet(np.arange(n), vecs.astype(np.float32))


def make_samples(n_users: int, hist_lens, n_posts: int, seed: int = 0,
                 n_targets: int = 2, surfaces=("feed", "search")):
    """Small deterministic SequenceSample fixtures over post ids [0, n_posts)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = []
    for b in range(n_users):
        n_hist = hist_lens[b % len(hist_lens)]
        t0 = 10_000 + 1000 * b
        hist = []
        used = set()
        for t in range(n_hist):
            pid = int(rng.integers(n_posts))
            used.add(pid)
            hist.append(HistoryItem(pid, int(rng.integers(9)),
                                    surfaces[int(rng.integers(len(surfaces)))],
                                    t0 + 60 * t))
        cutoff = t0 + 60 * n_hist + 30
        tgts = []
        while len(tgts) < n_targets:
            pid = int(rng.integers(n_posts))
            if pid not in used and pid not in tgts:
                tgts.append(pid)
        samples.append(SequenceSample(500 + b, hist, tgts, cutoff,
                                      [cutoff + 10 * (i + 1) for i in range(len(tgts))]))
    return samples

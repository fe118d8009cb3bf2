"""One ranking behind offline KNN and the experiments; one alive rule behind
alive_corpus and serving.

Each old per-caller form is kept here as a test-local reference; the shared
`top_k_columns` path must give its exact outputs on inputs that stress the
total order: exact score ties at the k-th boundary, seen ids absent from the
corpus, k beyond what is left to rank, and an empty corpus. Serving retrieve
still ranks on its own; its reference pins the outputs a move onto
`top_k_columns` has to keep.
"""
import numpy as np
import pytest

from seqrec.configs import DatasetConfig, EncoderConfig
from seqrec.encoder import init_params
from seqrec.experiments import _knn_hits_excluding_seen
from seqrec.metrics import knn_hits_at_k, knn_top_ids, top_k_columns
from seqrec.pipeline import alive_corpus
from seqrec.post_encoder import PostEncoder
from seqrec.serving import ServingSim
from seqrec.embeddings import EmbeddingSet
from seqrec.world import Post, build_world

from conftest import unit_rows


# -- the three old forms ----------------------------------------------------

def _knn_top_ids_reference(query_vec, corpus_ids, corpus_vecs, k):
    scores = corpus_vecs @ query_vec
    order = np.lexsort((corpus_ids, -scores))
    return corpus_ids[order[:k]]


def _knn_hits_reference(user_vecs, target_id_sets, corpus_ids, corpus_vecs, k):
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    hits = 0
    for row, targets in enumerate(target_id_sets):
        top = _knn_top_ids_reference(user_vecs[row], corpus_ids, corpus_vecs, k)
        if {int(t) for t in targets} & set(top.tolist()):
            hits += 1
    return hits


def _excluding_seen_reference(user_vecs, target_sets, seen_sets, corpus_ids,
                              corpus_vecs, k):
    col = {int(pid): i for i, pid in enumerate(corpus_ids)}
    scores = user_vecs @ corpus_vecs.T
    hits = 0
    for row, (targets, seen) in enumerate(zip(target_sets, seen_sets)):
        s = scores[row].copy()
        for pid in seen:
            i = col.get(int(pid))
            if i is not None:
                s[i] = -np.inf
        order = np.lexsort((corpus_ids, -s))[:k]
        if set(targets) & {int(corpus_ids[i]) for i in order}:
            hits += 1
    return hits


def _retrieve_reference(sim, posts_by_id, user_id, k):
    """The dict walk plus Python sort that retrieve ran per query."""
    post_snap = sim.post_store.snapshot()[1]
    ids, rows = [], []
    for pid in post_snap:
        post = posts_by_id.get(pid)
        if post is not None and post.alive_on(sim.current_day):
            ids.append(pid)
            rows.append(post_snap[pid].vector)
    if not ids:
        return []
    uvec = sim.user_store.get(user_id).vector.astype(np.float64)
    scores = np.stack(rows).astype(np.float64) @ uvec
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [(ids[i], float(scores[i])) for i in order]


# -- inputs -----------------------------------------------------------------

def _tied_corpus(n=48, distinct=5, dim=6, seed=0):
    """n rows drawn from `distinct` vectors under shuffled ids: every query's
    scores come in exact-tie groups, so most k cut through a tie."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = unit_rows(rng.standard_normal((distinct, dim)))
    vecs = base[rng.integers(distinct, size=n)]
    ids = rng.permutation(np.arange(1000, 1000 + 3 * n, 3))
    queries = unit_rows(rng.standard_normal((12, dim)))
    return ids.astype(np.int64), vecs, queries, rng


def _bytes(x):
    return np.ascontiguousarray(x).tobytes()


class TestTopKColumns:
    def test_matches_per_row_lexsort(self):
        ids, vecs, queries, _ = _tied_corpus()
        scores = queries @ vecs.T
        for k in (1, 7, len(ids), len(ids) + 5):
            got = top_k_columns(scores, ids, k)
            ref = np.stack([np.lexsort((ids, -row))[:k] for row in scores])
            assert _bytes(got) == _bytes(ref)

    @pytest.mark.parametrize("k", [0, -1, -50])
    def test_nonpositive_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            top_k_columns(np.zeros((2, 3)), np.arange(3), k)

    def test_empty_corpus(self):
        assert top_k_columns(np.zeros((3, 0)), np.zeros(0, dtype=np.int64), 5).shape == (3, 0)


class TestOfflineBitEquality:
    """knn_top_ids, knn_hits_at_k and _knn_hits_excluding_seen on the shared
    ranking return the old forms' exact outputs."""

    KS = (1, 2, 3, 9, 10, 11, 24, 47, 48, 60)

    def test_knn_top_ids_ties_at_boundary(self):
        ids, vecs, queries, _ = _tied_corpus()
        straddled = 0
        for q in queries:
            scores = vecs @ q
            for k in self.KS:
                ref = _knn_top_ids_reference(q, ids, vecs, k)
                cut = scores[np.isin(ids, ref)].min()
                straddled += bool((scores[~np.isin(ids, ref)] == cut).any())
                got = knn_top_ids(q, ids, vecs, k)
                assert got.dtype == ref.dtype and _bytes(got) == _bytes(ref)
        assert straddled > len(queries)     # a tie group crosses the k-th place

    def test_knn_hits_ties_at_boundary(self):
        ids, vecs, queries, rng = _tied_corpus(seed=1)
        for k in self.KS:
            targets = [rng.choice(ids, size=2, replace=False).tolist() for _ in queries]
            rep = knn_hits_at_k(queries, targets, ids, vecs, k)
            assert rep.hits == _knn_hits_reference(queries, targets, ids, vecs, k)
            assert rep.n_queries == len(queries)

    def test_knn_hits_one_target_per_column(self):
        """Every corpus id as the lone target of every query: the hit count is
        the size of the top k, and which ids hit pins the boundary order."""
        ids, vecs, queries, _ = _tied_corpus(n=20, distinct=3, seed=2)
        for k in (1, 4, 7, 19):
            for pid in ids:
                targets = [[int(pid)]] * len(queries)
                assert (knn_hits_at_k(queries, targets, ids, vecs, k).hits
                        == _knn_hits_reference(queries, targets, ids, vecs, k))

    def test_knn_hits_empty_corpus(self):
        empty = np.zeros((0, 6))
        rep = knn_hits_at_k(np.ones((3, 6)), [[], [], []], np.zeros(0, dtype=np.int64),
                            empty, 10)
        assert (rep.hits, rep.n_queries) == (0, 3)

    def _seen_case(self, seed, n=40):
        ids, vecs, queries, rng = _tied_corpus(n=n, seed=seed)
        absent = [int(ids.max()) + 1 + i for i in range(5)]
        seen = [set(rng.choice(ids, size=int(rng.integers(0, n // 2)),
                               replace=False).tolist())
                | set(absent[:int(rng.integers(0, 6))]) for _ in queries]
        targets = [rng.choice(ids, size=3, replace=False).tolist() for _ in queries]
        return queries, targets, seen, ids, vecs

    def test_excluding_seen_ties_and_absent_seen_ids(self):
        queries, targets, seen, ids, vecs = self._seen_case(seed=3)
        assert any(s - set(ids.tolist()) for s in seen)
        for k in self.KS:
            rep = _knn_hits_excluding_seen(queries, targets, seen, ids, vecs, k)
            assert rep.hits == _excluding_seen_reference(queries, targets, seen,
                                                         ids, vecs, k)

    def test_excluding_seen_k_beyond_unseen(self):
        """k above a row's unseen count reaches into its -inf (seen) columns,
        which then rank among themselves by ascending id."""
        queries, targets, seen, ids, vecs = self._seen_case(seed=4)
        seen = [s | set(ids[:30].tolist()) for s in seen]
        targets = [t + sorted(s & set(ids.tolist()))[:1] for t, s in zip(targets, seen)]
        for k in (11, 12, 20, 35, 39, 40, 41):
            rep = _knn_hits_excluding_seen(queries, targets, seen, ids, vecs, k)
            assert rep.hits == _excluding_seen_reference(queries, targets, seen,
                                                         ids, vecs, k)

    def test_excluding_seen_empty_corpus(self):
        rep = _knn_hits_excluding_seen(np.ones((2, 6)), [[1], [2]], [{1}, set()],
                                       np.zeros(0, dtype=np.int64), np.zeros((0, 6)), 5)
        assert (rep.hits, rep.n_queries) == (0, 2)


# -- serving ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    cfg = DatasetConfig(users=30, posts_per_day=25, days=10, n_topics=6,
                        activity_rate=2.0, integrity_rate=0.1, calibrate_survival=False)
    bundle = build_world(cfg, seed=23)
    enc_cfg = EncoderConfig(d_model=cfg.topic_dim, n_heads=4, n_layers=1,
                            max_seq_len=8, dropout=0.0, pooling="last",
                            n_surfaces=len(cfg.surfaces))
    return bundle, enc_cfg, PostEncoder("oracle", cfg, oracle_seed=23)


class _TiedEncoder:
    """Posts share three vectors, so every query's scores tie exactly."""

    def __init__(self, dim):
        self.vecs = unit_rows(np.random.default_rng(5).standard_normal((3, dim)))

    def encode_one(self, post):
        return self.vecs[post.post_id % 3]


def _sim(small_world, post_encoder=None):
    bundle, enc_cfg, penc = small_world
    return ServingSim(posts=bundle.posts, params=init_params(enc_cfg, seed=1),
                      enc_cfg=enc_cfg, post_encoder=post_encoder or penc)


def _serve_users(sim, dim, n=6, seed=0):
    rng = np.random.default_rng(seed)
    for uid in range(n):
        sim.user_store.stage_upsert(uid, unit_rows(rng.standard_normal(dim)),
                                    sim.current_day)
    sim.user_store.commit()
    return list(range(n))


class TestRetrieveBitEquality:
    """retrieve returns the reference dict walk's exact ranking and writes the
    same query-log records, so a columnar retrieve can be checked against it."""

    def _assert_same(self, sim, posts_by_id, users, ks):
        for uid in users:
            for k in ks:
                ref = _retrieve_reference(sim, posts_by_id, uid, k)
                got = sim.retrieve(uid, k).ranked
                assert [pid for pid, _ in got] == [pid for pid, _ in ref]
                assert (np.array([s for _, s in got]).tobytes()
                        == np.array([s for _, s in ref]).tobytes())
                assert sim.query_log[-1]["returned"] == [pid for pid, _ in ref]
                assert sim.query_log[-1]["scores"] == [s for _, s in ref]

    def test_oracle_vectors_every_day(self, small_world):
        bundle, enc_cfg, _ = small_world
        sim = _sim(small_world)
        posts_by_id = {p.post_id: p for p in bundle.posts}
        users = _serve_users(sim, enc_cfg.d_model)
        for day in range(bundle.config.days):
            sim.bootstrap_posts(day)
            self._assert_same(sim, posts_by_id, users, (1, 10, 500))

    def test_exact_ties_at_boundary(self, small_world):
        bundle, enc_cfg, _ = small_world
        sim = _sim(small_world, _TiedEncoder(enc_cfg.d_model))
        posts_by_id = {p.post_id: p for p in bundle.posts}
        sim.bootstrap_posts(6)
        users = _serve_users(sim, enc_cfg.d_model, seed=1)
        res = sim.retrieve(users[0], 500)
        # gemv may round equal rows apart in the last bit, but most still tie
        assert len({s for _, s in res.ranked}) < len(res.ranked) // 4
        self._assert_same(sim, posts_by_id, users, (1, 2, 5, 13, 30, 500))

    def test_empty_alive_set(self, small_world):
        bundle, enc_cfg, _ = small_world
        sim = _sim(small_world)
        sim.bootstrap_posts(3)
        users = _serve_users(sim, enc_cfg.d_model)
        sim.current_day = 10_000
        self._assert_same(sim, {p.post_id: p for p in bundle.posts}, users, (1, 5))
        res = sim.retrieve(users[0], 5)
        assert res.ranked == [] and res.work["corpus"] == 0

    def test_follows_the_snapshot(self, small_world):
        """A commit publishes a new snapshot id; the next retrieve ranks it."""
        bundle, enc_cfg, _ = small_world
        sim = _sim(small_world)
        posts_by_id = {p.post_id: p for p in bundle.posts}
        sim.bootstrap_posts(2)
        users = _serve_users(sim, enc_cfg.d_model)
        before = sim.retrieve(users[0], 500).work["corpus"]
        sim.bootstrap_posts(3)
        self._assert_same(sim, posts_by_id, users, (500,))
        assert sim.retrieve(users[0], 500).work["corpus"] != before


class TestOneAliveRule:
    """alive_corpus and retrieve apply Post.alive_on, the one alive rule."""

    def test_rule_boundaries(self):
        """Created on day 3 with a 2-day lifetime: alive on days 3 and 4 only.
        A post with no lifetime is alive on no day, so in no window."""
        def post(pid, lifetime):
            return Post(post_id=pid, created_at=3, topic=np.ones(2), text_channel=None,
                        image_channels=None, lang="en", country="us",
                        lifetime_days=lifetime, integrity_violating=False)
        posts = [post(0, 2), post(1, 0)]
        embs = EmbeddingSet([0, 1], np.eye(2))
        assert [d for d in range(8) if posts[0].alive_on(d)] == [3, 4]
        windows = [(a, b) for a in range(7) for b in range(a, 7)]
        assert ([w for w in windows if alive_corpus(posts, embs, *w)[0] == [0]]
                == [(a, b) for a, b in windows if a <= 4 and b >= 3])

    def _alive(self, posts, day):
        return [p.post_id for p in posts if not p.integrity_violating and p.alive_on(day)]

    def test_single_days(self, small_world):
        bundle, enc_cfg, penc = small_world
        posts = bundle.posts
        assert any(p.integrity_violating for p in posts)
        embs = penc.encode_all(posts)
        sim = _sim(small_world)
        users = None
        for day in range(bundle.config.days + 3):
            expected = self._alive(posts, day)
            assert alive_corpus(posts, embs, day, day)[0] == expected
            sim.bootstrap_posts(day)
            users = users or _serve_users(sim, enc_cfg.d_model, n=1)
            res = sim.retrieve(users[0], len(posts))
            assert sorted(pid for pid, _ in res.ranked) == sorted(expected)

    def test_windows_are_unions_of_days(self, small_world):
        bundle, _, penc = small_world
        posts = bundle.posts
        embs = penc.encode_all(posts)
        last = bundle.config.days + 2
        for a in range(last + 1):
            for b in range(a, last + 1):
                union = set().union(*(self._alive(posts, d) for d in range(a, b + 1)))
                ids, vecs = alive_corpus(posts, embs, a, b)
                assert ids == [p.post_id for p in posts if p.post_id in union]
                assert vecs.shape == (len(ids), embs.dim)

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from seqrec import encoder
from seqrec.actions import NULL_ACTION_ID
from seqrec.blocks import (
    attention_bias, ffn_forward, l2_normalize, layer_norm_forward, mha_forward,
)
from seqrec.configs import EncoderConfig
from seqrec.encoder import (
    TIME_LOG_SCALE, BatchAssembly, assemble_batch_inputs, encode_batch, encode_sequence,
    encode_user_vectors, init_params, load_checkpoint, save_checkpoint,
)
from seqrec.samples import HistoryItem, SequenceSample

from helpers import make_samples, random_embeddings

SURFACES = {"feed": 0, "search": 1}


@pytest.fixture(scope="module")
def setup():
    cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=2, max_seq_len=6,
                        dropout=0.0, pooling="last", d_ff=16, n_surfaces=2)
    embs = random_embeddings(40, 8, seed=9)
    params = init_params(cfg, seed=1)
    samples = make_samples(4, (6, 3, 1, 2), 40, seed=5)
    return cfg, embs, params, samples


class TestAssembleInput:
    """Single-sample assembly: a batch of one, position 0 is CLS."""

    def test_empty_history_is_cls_only(self, setup):
        cfg, embs, params, _ = setup
        s = SequenceSample(1, [], [7], cutoff_time=1000, target_ts=[1001])
        asm = assemble_batch_inputs([s], embs, params, cfg, SURFACES)
        assert asm.tokens.shape == (1, 1, 8)
        assert asm.act_ids[0, 0] == NULL_ACTION_ID
        assert asm.tp_in[0, 0, -1] == 0.0  # relative time of CLS
        np.testing.assert_allclose(asm.tokens[0, 0],
                                   params["cls"] + params["pos_table"][0])

    def test_rel_time_monotone_recent_smallest(self, setup):
        cfg, embs, params, samples = setup
        asm = assemble_batch_inputs([samples[0]], embs, params, cfg, SURFACES)
        rel = asm.tp_in[0, 1:asm.lengths[0], -1]  # skip CLS
        assert all(rel[i] > rel[i + 1] for i in range(len(rel) - 1))

    def test_zero_tables_identity_projection_yields_embedding(self, setup):
        cfg, embs, _, samples = setup
        params = init_params(cfg, seed=1)
        for key in ("pos_table", "action_table", "surface_table", "time_b"):
            params[key] = np.zeros_like(params[key])
        params["time_w"] = np.zeros_like(params["time_w"])
        params["time_w"][:8, :8] = np.eye(8)  # pass the embedding through, drop rel_time
        asm = assemble_batch_inputs([samples[1]], embs, params, cfg, SURFACES)
        hist = samples[1].history[-cfg.max_seq_len:]
        for t, h in enumerate(hist, start=1):
            np.testing.assert_array_equal(asm.tokens[0, t], embs.vector(h.post_id))

    def test_missing_embedding_is_hard_error(self, setup):
        cfg, embs, params, _ = setup
        s = SequenceSample(1, [HistoryItem(999, 0, "feed", 10)], [7], 1000, [1001])
        with pytest.raises(KeyError, match="999"):
            assemble_batch_inputs([s], embs, params, cfg, SURFACES)

    @pytest.mark.parametrize("n_surfaces", [1, 2])
    def test_fewer_surface_rows_than_world_surfaces_rejected(self, setup, n_surfaces):
        cfg, embs, _, samples = setup
        cfg = dataclasses.replace(cfg, n_surfaces=n_surfaces)
        world = {"feed": 0, "groups_tab": 1, "search": 2}
        with pytest.raises(ValueError, match=rf"encoder.n_surfaces={n_surfaces} .* "
                                             r"\['feed', 'groups_tab', 'search'\]"):
            assemble_batch_inputs(samples, embs, init_params(cfg, seed=1), cfg, world)

    @pytest.mark.parametrize("n_surfaces", [3, 4])
    def test_spare_surface_rows_are_valid(self, setup, n_surfaces):
        cfg, embs, _, samples = setup
        cfg = dataclasses.replace(cfg, n_surfaces=n_surfaces)
        world = {"feed": 0, "groups_tab": 1, "search": 2}
        asm = assemble_batch_inputs(samples, embs, init_params(cfg, seed=1), cfg, world)
        assert set(asm.surf_ids[asm.is_real].tolist()) == {world["feed"], world["search"]}

    def test_history_truncated_to_max_seq_len(self, setup):
        cfg, embs, params, _ = setup
        hist = [HistoryItem(i, 0, "feed", 100 + i) for i in range(10)]
        s = SequenceSample(1, hist, [20], 1000, [1001])
        asm = assemble_batch_inputs([s], embs, params, cfg, SURFACES)
        assert asm.tokens.shape[1] == cfg.max_seq_len + 1


def _assemble_per_sample(samples, embeddings, params, config, surfaces):
    """Reference assembly that gathers each sample's history on its own and
    stores every id and relative time item by item."""
    d, cls_extra = config.d_model, 1 if config.use_cls else 0
    hists = [s.history[-config.max_seq_len:] for s in samples]
    lengths = np.array([len(h) + cls_extra for h in hists], dtype=np.int64)
    B, L = len(samples), int(lengths.max())
    emb, rel = np.zeros((B, L, d)), np.zeros((B, L))
    pos_ids = np.zeros((B, L), dtype=np.int64)
    act_ids = np.full((B, L), NULL_ACTION_ID, dtype=np.int64)
    surf_ids = np.full((B, L), config.n_surfaces, dtype=np.int64)
    is_real = np.zeros((B, L), dtype=bool)
    is_cls = np.zeros((B, L), dtype=bool)
    for b, (sample, hist) in enumerate(zip(samples, hists)):
        if hist:
            emb[b, cls_extra:cls_extra + len(hist)] = embeddings.gather(
                [h.post_id for h in hist])
        for t, h in enumerate(hist):
            col = t + cls_extra
            pos_ids[b, col], act_ids[b, col] = col, h.action
            surf_ids[b, col] = surfaces.get(h.surface, config.n_surfaces)
            is_real[b, col] = True
            if config.use_time:
                delta = sample.cutoff_time - h.ts
                if delta < 0:
                    raise ValueError(f"user {sample.user_id}: event after cutoff")
                rel[b, col] = math.log1p(float(delta))
        is_cls[b, 0] = config.use_cls
    tp_in = np.concatenate([emb, rel[:, :, None] / TIME_LOG_SCALE], axis=2)
    tokens = np.where(is_real[:, :, None],
                      tp_in @ params["time_w"] + params["time_b"]
                      + params["pos_table"][pos_ids] + params["action_table"][act_ids]
                      + params["surface_table"][surf_ids], 0.0)
    if config.use_cls:
        tokens[:, 0, :] = params["cls"] + params["pos_table"][0]
    return BatchAssembly(tokens=tokens, valid=is_real | is_cls, lengths=lengths,
                         is_real=is_real, is_cls=is_cls, pos_ids=pos_ids,
                         act_ids=act_ids, surf_ids=surf_ids, tp_in=tp_in)


class TestBatchedGather:
    """One gather for the whole batch gives the per-sample assembly's exact bytes."""

    @pytest.mark.parametrize("use_cls", [True, False])
    def test_equals_per_sample_assembly(self, setup, use_cls):
        cfg, embs, params, samples = setup
        long_hist = [HistoryItem(i, i % 9, ("search", "elsewhere", None)[i % 3], 100 + i)
                     for i in range(10)]
        batch = samples + [SequenceSample(2, long_hist, [20], 1000, [1001])]
        if use_cls:
            batch.append(SequenceSample(3, [], [7], 1000, [1001]))
        for use_time in (True, False):
            cfg = dataclasses.replace(cfg, use_cls=use_cls, use_time=use_time)
            got = assemble_batch_inputs(batch, embs, params, cfg, SURFACES)
            ref = _assemble_per_sample(batch, embs, params, cfg, SURFACES)
            assert got.tokens.shape[1] == cfg.max_seq_len + use_cls  # truncated history
            for field in dataclasses.fields(BatchAssembly):
                a, b = getattr(got, field.name), getattr(ref, field.name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                assert a.tobytes() == b.tobytes(), field.name

    def test_event_after_cutoff_names_the_first_user(self, setup):
        cfg, embs, params, samples = setup
        late = [SequenceSample(uid, [HistoryItem(1, 0, "feed", 50), HistoryItem(2, 0, "feed", 90)],
                               [7], 80, [81]) for uid in (41, 42)]
        batch = samples[:2] + late
        with pytest.raises(ValueError, match="user 41: event after cutoff"):
            _assemble_per_sample(batch, embs, params, cfg, SURFACES)
        with pytest.raises(ValueError, match="user 41: event after cutoff"):
            assemble_batch_inputs(batch, embs, params, cfg, SURFACES)
        no_time = dataclasses.replace(cfg, use_time=False)
        assert assemble_batch_inputs(batch, embs, params, no_time, SURFACES).tokens.shape[0] == 4

    def test_missing_post_named_in_a_batch(self, setup):
        cfg, embs, params, samples = setup
        s = SequenceSample(1, [HistoryItem(999, 0, "feed", 10)], [7], 1000, [1001])
        with pytest.raises(KeyError, match="999"):
            assemble_batch_inputs(samples + [s], embs, params, cfg, SURFACES)


def test_encode_user_vectors_keeps_one_chunk_alive(monkeypatch):
    """Encoding a second chunk must not hold the first chunk's forward cache.

    With blocks as large as a chunk, each chunk is one block on the calling
    thread, so the peak does not depend on whether two threads' blocks happen
    to peak together; TestRowBlocks covers the threaded path's bytes."""
    monkeypatch.setattr(encoder, "_BLOCK_ROWS", 64)
    cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=2, max_seq_len=16,
                        dropout=0.0, pooling="last", d_ff=32, n_surfaces=2)
    embs = random_embeddings(80, 16, seed=4)
    params = init_params(cfg, seed=3)
    samples = make_samples(128, (16,), 80, seed=6)

    def peak(n):
        tracemalloc.start()
        try:
            encode_user_vectors(samples[:n], embs, params, cfg, SURFACES, chunk=64)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, two = peak(64), peak(128)
    assert two < 1.5 * one, (one, two)


def test_cache_free_forward_peaks_lower():
    """One 64-row chunk: the forward that drops each cache and residual input
    once no later step reads it peaks well below the one that keeps every
    cache for backward (0.29 of it at this shape; 0.65 when whole layer
    caches lived until the layer ended)."""
    cfg = EncoderConfig(d_model=16, n_heads=2, n_layers=2, max_seq_len=16,
                        dropout=0.0, pooling="last", d_ff=32, n_surfaces=2)
    embs = random_embeddings(80, 16, seed=4)
    params = init_params(cfg, seed=3)
    samples = make_samples(64, (16,), 80, seed=6)

    def peak(cache):
        tracemalloc.start()
        try:
            asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
            result = encode_batch(asm, params, cfg, cache=cache)
            assert (result[2] is None) == (not cache)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cached, free = peak(True), peak(False)
    assert free < 0.4 * cached, (free, cached)


class TestCacheFreeForward:
    """encode_batch(cache=False) and its two callers return the cached
    forward's exact bytes."""

    @pytest.mark.parametrize("pooling", ["last", "mean", "sum", "attention"])
    def test_same_bytes_as_cached(self, setup, pooling):
        cfg, embs, _, samples = setup
        cfg = dataclasses.replace(cfg, pooling=pooling)
        params = init_params(cfg, seed=1)
        asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
        hidden, user_vec, cache = encode_batch(asm, params, cfg, train=False)
        hidden2, user_vec2, none = encode_batch(asm, params, cfg, cache=False)
        assert none is None and cache["user_vec"] is user_vec
        assert hidden2.tobytes() == hidden.tobytes()
        assert user_vec2.tobytes() == user_vec.tobytes()
        vecs = encode_user_vectors(samples, embs, params, cfg, SURFACES, chunk=len(samples))
        assert vecs.tobytes() == user_vec.tobytes()
        for s in samples:
            one = assemble_batch_inputs([s], embs, params, cfg, SURFACES)
            h_ref, u_ref, _ = encode_batch(one, params, cfg, train=False)
            h, u = encode_sequence(s, embs, params, cfg, SURFACES)
            assert h.tobytes() == h_ref[0, :int(one.lengths[0])].tobytes()
            assert u.tobytes() == u_ref[0].tobytes()


def _one_thread_encode_user_vectors(samples, embeddings, params, config, surfaces, chunk):
    """Reference: encode_user_vectors as one whole-chunk forward per chunk,
    on the calling thread."""
    out = np.zeros((len(samples), config.d_model))
    for lo in range(0, len(samples), chunk):
        part = samples[lo:lo + chunk]
        asm = assemble_batch_inputs(part, embeddings, params, config, surfaces)
        asm.tp_in = None
        out[lo:lo + len(part)] = encode_batch(asm, params, config, cache=False)[1]
    return out


class TestRowBlocks:
    """encode_user_vectors runs each chunk's forward in row blocks on the
    caller and one helper thread, with the whole-chunk forward's bytes."""

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("pooling", ["last", "mean", "sum", "attention"])
    def test_same_bytes_as_one_thread(self, monkeypatch, pooling, causal, n_heads):
        # 3-row blocks split each 10-row chunk 3+3 | 3+1 (a ragged last block);
        # 21 samples leave a 1-row last chunk, 23 a 3-row one
        monkeypatch.setattr(encoder, "_BLOCK_ROWS", 3)
        embs = random_embeddings(40, 8, seed=9)
        samples = make_samples(23, (7, 3, 1, 5, 2, 6), 40, seed=5)
        for use_cls in (True, False):
            for use_time in (True, False):
                cfg = EncoderConfig(d_model=8, n_heads=n_heads, n_layers=2, max_seq_len=6,
                                    dropout=0.0, pooling=pooling, d_ff=16, n_surfaces=2,
                                    use_cls=use_cls, causal=causal, use_time=use_time)
                params = init_params(cfg, seed=1)
                for n in (21, 23):
                    args = (samples[:n], embs, params, cfg, SURFACES)
                    got = encode_user_vectors(*args, chunk=10)
                    ref = _one_thread_encode_user_vectors(*args, chunk=10)
                    assert got.tobytes() == ref.tobytes(), (use_cls, use_time, n)

    def test_default_blocks_same_bytes(self, setup):
        """At the module's block size: a 64-row chunk splits 32 | 32 and a
        36-row one 32 | 4. A short switch interval interleaves the two
        threads' Python steps as finely as it can."""
        cfg, embs, params, _ = setup
        samples = make_samples(100, (6, 3, 1, 2, 5), 40, seed=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = encode_user_vectors(samples, embs, params, cfg, SURFACES, chunk=64)
        finally:
            sys.setswitchinterval(interval)
        ref = _one_thread_encode_user_vectors(samples, embs, params, cfg, SURFACES, chunk=64)
        assert got.tobytes() == ref.tobytes()

    def test_both_threads_work_and_none_outlives_the_call(self, setup, monkeypatch):
        cfg, embs, params, samples = setup
        monkeypatch.setattr(encoder, "_BLOCK_ROWS", 1)
        user_vectors = encoder._user_vectors
        ran_on = []

        def recording(asm, *args, **kwargs):
            ran_on.append((threading.get_ident(), len(asm.lengths)))
            return user_vectors(asm, *args, **kwargs)

        monkeypatch.setattr(encoder, "_user_vectors", recording)
        before = threading.active_count()
        encode_user_vectors(samples, embs, params, cfg, SURFACES)
        assert threading.active_count() == before
        assert sorted(n for _, n in ran_on) == [1] * len(samples)
        assert {ident for ident, _ in ran_on} - {threading.get_ident()}, ran_on

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_an_error_in_either_half_propagates(self, setup, monkeypatch, half):
        cfg, embs, params, samples = setup
        monkeypatch.setattr(encoder, "_BLOCK_ROWS", 2)
        user_vectors = encoder._user_vectors
        caller = threading.get_ident()

        def failing(asm, *args, **kwargs):
            if (threading.get_ident() == caller) == (half == "caller"):
                raise FloatingPointError(f"boom in the {half}'s block")
            return user_vectors(asm, *args, **kwargs)

        monkeypatch.setattr(encoder, "_user_vectors", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"boom in the {half}'s block"):
            encode_user_vectors(samples, embs, params, cfg, SURFACES)
        assert threading.active_count() == before


def _full_forward_user_vectors(asm, params, config):
    """Reference: encode_batch(cache=False)[1] with last-position pooling as
    it ran before the final layer kept only the pooled rows: every layer at
    every position, then the pooled rows of the hidden state, L2-normalized."""
    bias = attention_bias(asm.valid, config.causal)
    x = asm.tokens
    for i in range(config.n_layers):
        p = {name: params[encoder.layer_key(i, name)] for name in (
            "wq", "wk", "wv", "wo", "ln1_g", "ln1_b", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
            "ln2_g", "ln2_b")}
        attn_out, _ = mha_forward(x, p["wq"], p["wk"], p["wv"], p["wo"], config.n_heads,
                                  bias, False)
        attn_out += x
        h1, _ = layer_norm_forward(attn_out, p["ln1_g"], p["ln1_b"])
        ffn_out, _ = ffn_forward(h1, p["ffn_w1"], p["ffn_b1"], p["ffn_w2"], p["ffn_b2"])
        ffn_out += h1
        x, _ = layer_norm_forward(ffn_out, p["ln2_g"], p["ln2_b"])
    pooled = x[np.arange(x.shape[0]), asm.lengths - 1]
    return l2_normalize(pooled)[0]


class TestUserVectorForward:
    """_user_vectors, the forward behind encode_user_vectors' row blocks,
    computes the final layer only at the pooled positions with the
    all-position forward's bytes."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("causal", [True, False])
    def test_same_bytes_as_full_forward(self, causal, n_heads, n_layers):
        embs = random_embeddings(40, 8, seed=9)
        # ragged lengths, one history past max_seq_len and two empty ones
        ragged = make_samples(9, (7, 3, 0, 1, 5, 2, 6, 0, 4), 40, seed=5)
        for use_cls in (True, False):
            for use_time in (True, False):
                cfg = EncoderConfig(d_model=8, n_heads=n_heads, n_layers=n_layers,
                                    max_seq_len=6, dropout=0.0, pooling="last", d_ff=16,
                                    n_surfaces=2, use_cls=use_cls, causal=causal,
                                    use_time=use_time)
                params = init_params(cfg, seed=n_layers)
                # with CLS, the empty histories are CLS-only rows, and the
                # one-position block is all CLS
                blocks = {"ragged": [s for s in ragged if use_cls or s.history],
                          "one position": make_samples(3, (0,) if use_cls else (1,), 40,
                                                       seed=2)}
                for name, samples in blocks.items():
                    asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
                    ref = _full_forward_user_vectors(asm, params, cfg)
                    assert ref.tobytes() == encode_batch(asm, params, cfg, cache=False)[1].tobytes()
                    got = encoder._user_vectors(asm, params, cfg)
                    assert got.tobytes() == ref.tobytes(), (name, use_cls, use_time)


def _add_at_assembly_backward(asm, d_tokens, grads):
    """Reference: the table scatters as np.add.at calls, one element at a time."""
    d_real = np.where(asm.is_real[:, :, None], d_tokens, 0.0)
    flat_mask = asm.is_real.reshape(-1)
    d_flat = d_real.reshape(-1, d_real.shape[-1])[flat_mask]
    tp_flat = asm.tp_in.reshape(-1, asm.tp_in.shape[-1])[flat_mask]
    grads["time_w"] += tp_flat.T @ d_flat
    grads["time_b"] += d_flat.sum(axis=0)
    np.add.at(grads["pos_table"], asm.pos_ids.reshape(-1)[flat_mask], d_flat)
    np.add.at(grads["action_table"], asm.act_ids.reshape(-1)[flat_mask], d_flat)
    np.add.at(grads["surface_table"], asm.surf_ids.reshape(-1)[flat_mask], d_flat)
    if asm.is_cls.any():
        d_cls = d_tokens[asm.is_cls].sum(axis=0)
        grads["cls"] += d_cls
        grads["pos_table"][0] += d_cls


class TestAssemblyBackwardBitEquality:
    @pytest.mark.parametrize("use_cls", [True, False])
    def test_same_bytes_as_add_at(self, setup, use_cls):
        """Ragged rows with padding, repeated posts, actions and surfaces,
        and gradients of mixed scale with exact zeros and negative zeros."""
        cfg, embs, _, _ = setup
        cfg = dataclasses.replace(cfg, use_cls=use_cls)
        params = init_params(cfg, seed=2)
        samples = make_samples(24, (6, 1, 4, 2, 6, 3, 5), 12, seed=11,
                               surfaces=("feed", "search", "elsewhere"))
        asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
        rng = np.random.default_rng(3)
        shape = asm.tokens.shape
        d_tokens = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        d_tokens[rng.random(d_tokens.shape) < 0.05] = 0.0
        d_tokens[rng.random(d_tokens.shape) < 0.05] = -0.0
        got = {k: np.zeros_like(v) for k, v in params.items()}
        ref = {k: np.zeros_like(v) for k, v in params.items()}
        encoder.assembly_backward(asm, d_tokens, got)
        _add_at_assembly_backward(asm, d_tokens, ref)
        for k in ref:
            assert got[k].tobytes() == ref[k].tobytes(), k


class TestEncodeSequence:
    def test_empty_history_depends_only_on_cls(self, setup):
        cfg, embs, params, _ = setup
        s = SequenceSample(1, [], [7], 1000, [1001])
        _, uv1 = encode_sequence(s, embs, params, cfg, SURFACES)
        _, uv2 = encode_sequence(s, embs, params, cfg, SURFACES)
        np.testing.assert_array_equal(uv1, uv2)
        assert abs(np.linalg.norm(uv1) - 1.0) < 1e-12

    def test_user_vec_unit_norm(self, setup):
        cfg, embs, params, samples = setup
        for s in samples:
            _, uv = encode_sequence(s, embs, params, cfg, SURFACES)
            assert abs(np.linalg.norm(uv) - 1.0) < 1e-12

    def test_causality_exact_under_perturbation(self, setup):
        cfg, embs, params, samples = setup
        s = samples[0]  # history length 6
        asm = assemble_batch_inputs([s], embs, params, cfg, SURFACES)
        hidden, _, _ = encode_batch(asm, params, cfg, train=False)
        for j in range(2, 7):
            asm2 = assemble_batch_inputs([s], embs, params, cfg, SURFACES)
            asm2.tokens[0, j] += 0.37
            hidden2, _, _ = encode_batch(asm2, params, cfg, train=False)
            # positions strictly before j are bit-identical
            np.testing.assert_array_equal(hidden[0, :j], hidden2[0, :j])
            assert not np.array_equal(hidden[0, j], hidden2[0, j])

    def test_bidirectional_mode_breaks_causality(self, setup):
        cfg, embs, params, samples = setup
        import dataclasses
        bi = dataclasses.replace(cfg, causal=False)
        s = samples[0]
        asm = assemble_batch_inputs([s], embs, params, bi, SURFACES)
        hidden, _, _ = encode_batch(asm, params, bi, train=False)
        asm2 = assemble_batch_inputs([s], embs, params, bi, SURFACES)
        asm2.tokens[0, 5] += 0.37
        hidden2, _, _ = encode_batch(asm2, params, bi, train=False)
        assert not np.array_equal(hidden[0, 0], hidden2[0, 0])

    def test_mean_equals_sum_over_count(self, setup):
        import dataclasses
        cfg, embs, params, samples = setup
        mean_cfg = dataclasses.replace(cfg, pooling="mean")
        sum_cfg = dataclasses.replace(cfg, pooling="sum")
        asm = assemble_batch_inputs(samples, embs, params, mean_cfg, SURFACES)
        _, _, cache_m = encode_batch(asm, params, mean_cfg, train=False)
        _, _, cache_s = encode_batch(asm, params, sum_cfg, train=False)
        counts = asm.valid.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(cache_m["pooled"], cache_s["pooled"] / counts,
                                   atol=1e-6)

    def test_eval_deterministic_across_runs(self, setup):
        cfg, embs, params, samples = setup
        asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
        h1, u1, _ = encode_batch(asm, params, cfg, train=False)
        h2, u2, _ = encode_batch(asm, params, cfg, train=False)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(u1, u2)

    def test_dropout_changes_train_only(self, setup):
        import dataclasses
        cfg, embs, params, samples = setup
        dcfg = dataclasses.replace(cfg, dropout=0.5)
        asm = assemble_batch_inputs(samples, embs, params, dcfg, SURFACES)
        rng = np.random.Generator(np.random.PCG64(0))
        h_train, _, _ = encode_batch(asm, params, dcfg, train=True, rng=rng)
        h_eval, _, _ = encode_batch(asm, params, dcfg, train=False)
        assert not np.allclose(h_train, h_eval)

    def test_batch_padding_matches_single(self, setup):
        cfg, embs, params, samples = setup
        asm = assemble_batch_inputs(samples, embs, params, cfg, SURFACES)
        hidden, user_vec, _ = encode_batch(asm, params, cfg, train=False)
        for b, s in enumerate(samples):
            h_single, uv_single = encode_sequence(s, embs, params, cfg, SURFACES)
            L = h_single.shape[0]
            np.testing.assert_allclose(hidden[b, :L], h_single, atol=1e-12)
            np.testing.assert_allclose(user_vec[b], uv_single, atol=1e-12)


class TestMicroOracle:
    def test_straight_line_forward_oracle(self):
        """Independent scalar-loop re-implementation of a 1-layer, 1-head model."""
        cfg = EncoderConfig(d_model=2, n_heads=1, n_layers=1, max_seq_len=3,
                            dropout=0.0, pooling="last", d_ff=4, n_surfaces=1)
        embs = random_embeddings(6, 2, seed=2)
        params = init_params(cfg, seed=4)
        hist = [HistoryItem(0, 1, "feed", 100), HistoryItem(3, 2, "feed", 160)]
        s = SequenceSample(9, hist, [5], 300, [301])
        hidden, uv = encode_sequence(s, embs, params, cfg, {"feed": 0})

        import math
        def ln(v, g, b):
            mu = sum(v) / len(v)
            var = sum((x - mu) ** 2 for x in v) / len(v)
            inv = 1.0 / math.sqrt(var + 1e-5)
            return [g[i] * (v[i] - mu) * inv + b[i] for i in range(len(v))]

        # token assembly
        tokens = [[params["cls"][i] + params["pos_table"][0][i] for i in range(2)]]
        for t, h in enumerate(hist, start=1):
            e = embs.vector(h.post_id)
            rel = math.log1p(300 - h.ts)
            tin = [e[0], e[1], rel]
            tok = [sum(tin[k] * params["time_w"][k][i] for k in range(3)) + params["time_b"][i]
                   + params["pos_table"][t][i] + params["action_table"][h.action][i]
                   + params["surface_table"][0][i] for i in range(2)]
            tokens.append(tok)
        # attention (single head, d_k = 2)
        wq, wk, wv, wo = (params["layers.0." + n] for n in ("wq", "wk", "wv", "wo"))
        q = [[sum(tok[k] * wq[k][i] for k in range(2)) for i in range(2)] for tok in tokens]
        kk = [[sum(tok[k] * wk[k][i] for k in range(2)) for i in range(2)] for tok in tokens]
        v = [[sum(tok[k] * wv[k][i] for k in range(2)) for i in range(2)] for tok in tokens]
        ctx = []
        for t in range(3):
            scores = [sum(q[t][i] * kk[j][i] for i in range(2)) / math.sqrt(2)
                      for j in range(t + 1)]
            mx = max(scores)
            es = [math.exp(x - mx) for x in scores]
            z = sum(es)
            ctx.append([sum(es[j] / z * v[j][i] for j in range(t + 1)) for i in range(2)])
        att = [[sum(c[k] * wo[k][i] for k in range(2)) for i in range(2)] for c in ctx]
        h1 = [ln([tokens[t][i] + att[t][i] for i in range(2)],
                 params["layers.0.ln1_g"], params["layers.0.ln1_b"]) for t in range(3)]
        w1, b1 = params["layers.0.ffn_w1"], params["layers.0.ffn_b1"]
        w2, b2 = params["layers.0.ffn_w2"], params["layers.0.ffn_b2"]
        ffn = []
        for t in range(3):
            mid = [max(0.0, sum(h1[t][k] * w1[k][j] for k in range(2)) + b1[j])
                   for j in range(4)]
            ffn.append([sum(mid[j] * w2[j][i] for j in range(4)) + b2[i] for i in range(2)])
        h2 = [ln([h1[t][i] + ffn[t][i] for i in range(2)],
                 params["layers.0.ln2_g"], params["layers.0.ln2_b"]) for t in range(3)]
        assert np.max(np.abs(hidden - np.array(h2))) < 1e-5
        last = np.array(h2[2])
        np.testing.assert_allclose(uv, last / np.linalg.norm(last), atol=1e-5)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, setup):
        cfg, embs, params, samples = setup
        path = tmp_path / "model.ckpt"
        stored = save_checkpoint(path, params, cfg, extra={"note": "t"})
        loaded, cfg2, extra = load_checkpoint(path)
        assert extra["note"] == "t"
        assert cfg2 == cfg
        assert sorted(loaded) == sorted(stored)
        for k in stored:
            np.testing.assert_array_equal(stored[k], loaded[k])
        # a second save of the loaded params produces identical bytes
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, loaded, cfg2, extra={"note": "t"})
        assert path.read_bytes() == path2.read_bytes()

    def test_quantized_params_reproduce_outputs(self, tmp_path, setup):
        cfg, embs, params, samples = setup
        stored = save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        _, uv1 = encode_sequence(samples[0], embs, stored, cfg, SURFACES)
        _, uv2 = encode_sequence(samples[0], embs, loaded, cfg, SURFACES)
        np.testing.assert_array_equal(uv1, uv2)

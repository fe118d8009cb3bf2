"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names and units (a unit test keeps them in
step); a run that fails to produce one of them is an error. Per-layer times
are self times: a span's duration minus what its traced children cover.
Units ending in ``-computed`` are derived from tensor sizes, not measured.
"""
from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.samples_per_s": "samples/s",
    "train.step_p50_ms": "ms",
    "train.step_p75_ms": "ms",
    "train.hits10": "ratio",
    "serve.turnover_s": "s",
    "serve.low.retrieve_p50_ms": "ms",
    "serve.high.retrieve_p50_ms": "ms",
    "serve.max_rate_qps": "queries/s",
    "eval.rankings_per_s": "rankings/s",
}

_SETUP = {
    "setup.world.build_world_s": "s",
    "setup.world.events": "count",
    "setup.dataio.write_s": "s",
    "setup.dataio.read_s": "s",
    "setup.embeddings.save_load_s": "s",
    "setup.post_encoder.encode_all_s": "s",
    "setup.samples.filter_events_s": "s",
    "setup.samples.build_samples_s": "s",
    "setup.samples.train_samples": "count",
    "setup.samples.eval_samples": "count",
    "setup.encoder.init_params_s": "s",
}

# Per train step: the median over steps of each layer's summed self time.
_TRAIN = {
    "train.trainer.train_step_ms": "ms",
    "train.encoder.assemble_batch_inputs_ms": "ms",
    "train.encoder.encode_batch_ms": "ms",
    "train.blocks.attention_bias_ms": "ms",
    "train.blocks.mha_forward_ms": "ms",
    "train.blocks.ffn_forward_ms": "ms",
    "train.blocks.layer_norm_forward_ms": "ms",
    "train.blocks.dropout_forward_ms": "ms",
    "train.encoder.backward_batch_ms": "ms",
    "train.blocks.mha_backward_ms": "ms",
    "train.blocks.ffn_backward_ms": "ms",
    "train.blocks.layer_norm_backward_ms": "ms",
    "train.encoder.assembly_backward_ms": "ms",
    "train.optim.clip_by_global_norm_ms": "ms",
    "train.optim.adam_step_ms": "ms",
    "train.loss.short_term_loss_ms": "ms",
    "train.loss.long_term_loss_ms": "ms",
    "train.loss.build_pool_ms": "ms",
    "train.loss.short_anchors": "count",
    "train.loss.short_pool": "count",
    "train.loss.long_anchors": "count",
    "train.loss.long_pool": "count",
    "train.loss.short_logits_mb": "MB-computed",
    "train.blocks.attn_scores_mb": "MB-computed",
    "train.encoder.pad_share": "ratio",
    "train.optim.clip_rate": "ratio",
    "train.trainer.assemble_batch_s": "s",
    "train.trainer.samples_dropped": "count",
    "train.trainer.batch_hits_eval_s": "s",
    "train.trainer.steps": "count",
}

# Summed over the serving days, except the per-query medians and tails.
_SERVE = {
    "serve.serving.bootstrap_posts_s": "s",
    "serve.serving.posts_staged": "count",
    "serve.serving.refresh_users_s": "s",
    "serve.serving.users_refreshed": "count",
    "serve.encoder.encode_user_vectors_s": "s",
    "serve.serving.retrieve_service_ms": "ms",
    "serve.serving.retrieve_corpus": "count",
    "serve.serving.alive_share": "ratio",
    "serve.serving.walked_mb": "MB-computed",
    "serve.serving.low_retrieve_p90_ms": "ms",
    "serve.serving.high_retrieve_p90_ms": "ms",
    "serve.serving.queue_wait_p90_ms": "ms",
    "serve.serving.query_log_records": "count",
    "serve.serving.queries": "count",
}

# Per eval pass: the median over passes of each layer's summed self time.
_EVAL = {
    "eval.encoder.encode_user_vectors_s": "s",
    "eval.encoder.users_encoded": "count",
    "eval.trainer.batch_hits_eval_s": "s",
    "eval.metrics.knn_hits_at_k_s": "s",
    "eval.metrics.knn_queries": "count",
    "eval.metrics.corpus": "count",
    "eval.pipeline.alive_corpus_s": "s",
    "eval.experiments.staleness_experiment_s": "s",
    "eval.experiments.coldstart_eval_s": "s",
    "eval.coldstart.user_user_similarity_s": "s",
    "eval.coldstart.backfill_history_s": "s",
    "eval.rankings": "count",
}

_TRACE = {
    "trace.overhead_share.train": "ratio",
    "trace.overhead_share.serve": "ratio",
    "trace.overhead_share.eval": "ratio",
}

PER_LAYER = {**_SETUP, **_TRAIN, **_SERVE, **_EVAL, **_TRACE}

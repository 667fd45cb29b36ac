//! The metric contract: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root states the same contract for the
//! driver; `tests/contract.rs` fails if the two ever disagree.

/// One metric: `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics, each with the share of the parent's median by which
/// it may get worse before a change counts as a regression.  Times are at
/// the reference host speed (see [`crate::calib`]); what is left of the
/// shared host after that correction is a quartile spread over ten seeds of
/// 1–8 % on most (metric, workload) pairs and 10–17 % on the worst, in the
/// host's noisy hours.  Hence the widest bound the driver allows on all the
/// timing metrics.
pub const END_TO_END: [(Metric, f64); 5] = [
    (("ops_per_s", "1/s", "higher"), 0.25),
    (("op_p50_ms", "ms", "lower"), 0.25),
    (("op_p90_ms", "ms", "lower"), 0.25),
    (("peak_rss_mib", "MiB", "lower"), 0.15),
    (("setup_s", "s", "lower"), 0.25),
];

/// `failed_frac` is the sixth end-to-end metric of the full report.  It is
/// 0 on a correct run, so the driver's contract carries it as the
/// `failed`/`attempted` pair instead of a bounded metric; any increase is a
/// regression.
pub const FAILED_FRAC: Metric = ("failed_frac", "frac", "lower");

/// Per-layer metrics of the traced run, in report order.
pub const PER_LAYER: [Metric; 74] = [
    ("lossless.compress_mib_s", "MiB/s", "higher"),
    ("lossless.decompress_mib_s", "MiB/s", "higher"),
    ("codec.sz.compress_mib_s", "MiB/s", "higher"),
    ("codec.sz.decompress_mib_s", "MiB/s", "higher"),
    ("codec.zfp.compress_mib_s", "MiB/s", "higher"),
    ("codec.zfp.decompress_mib_s", "MiB/s", "higher"),
    ("codec.mgard.compress_mib_s", "MiB/s", "higher"),
    ("codec.mgard.decompress_mib_s", "MiB/s", "higher"),
    ("codec.szx.compress_mib_s", "MiB/s", "higher"),
    ("codec.szx.decompress_mib_s", "MiB/s", "higher"),
    ("metrics.quality_report_mib_s", "MiB/s", "higher"),
    ("pressio.evaluate_ratio_calls", "count", "lower"),
    ("pressio.evaluate_ratio_busy_s", "s", "lower"),
    ("pressio.evaluate_quality_calls", "count", "lower"),
    ("pressio.evaluate_quality_busy_s", "s", "lower"),
    ("pressio.compress_calls", "count", "lower"),
    ("pressio.compress_busy_s", "s", "lower"),
    ("pressio.decompress_calls", "count", "lower"),
    ("pressio.decompress_busy_s", "s", "lower"),
    ("pressio.bound_range_calls", "count", "lower"),
    ("pressio.bound_range_busy_s", "s", "lower"),
    ("pressio.failed_calls", "count", "lower"),
    ("pressio.busy_frac_of_wall", "frac", "higher"),
    ("search.ops", "count", "higher"),
    ("search.evals_per_op", "count", "lower"),
    ("search.evals_to_hit", "count", "lower"),
    ("search.evals_after_hit", "count", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.self_frac", "frac", "lower"),
    ("search.ratio_dev_mean", "frac", "lower"),
    ("search.infeasible_ops", "count", "lower"),
    ("quality.evals_per_op", "count", "lower"),
    ("quality.self_s", "s", "lower"),
    ("quality.ratio_gmean", "ratio", "higher"),
    ("orchestrator.steps", "count", "higher"),
    ("orchestrator.retrained_frac", "frac", "lower"),
    ("orchestrator.evals_per_step", "count", "lower"),
    ("orchestrator.self_s", "s", "lower"),
    ("hint.probe_hit_frac", "frac", "higher"),
    ("pool.task_overhead_us", "us", "lower"),
    ("pool.codec_util", "frac", "higher"),
    ("tune.fingerprint_mib_s", "MiB/s", "higher"),
    ("tune.lookup_us", "us", "lower"),
    ("tune.record_us", "us", "lower"),
    ("store.write_chunks", "count", "higher"),
    ("store.write_evals_per_chunk", "count", "lower"),
    ("store.write_self_s", "s", "lower"),
    ("store.backend_put_calls", "count", "lower"),
    ("store.backend_put_bytes", "B", "lower"),
    ("store.backend_put_s", "s", "lower"),
    ("store.bytes_per_user_byte", "ratio", "lower"),
    ("store.backend_get_calls", "count", "lower"),
    ("store.backend_get_bytes", "B", "lower"),
    ("store.backend_get_s", "s", "lower"),
    ("store.chunks_decoded_per_read", "count", "lower"),
    ("store.decoded_bytes_per_returned_byte", "ratio", "lower"),
    ("store.read_self_s", "s", "lower"),
    ("serve.jobs", "count", "higher"),
    ("serve.warm_job_p50_ms", "ms", "lower"),
    ("serve.cold_job_p50_ms", "ms", "lower"),
    ("serve.job_p99_ms", "ms", "lower"),
    ("serve.warm_overhead_p50_ms", "ms", "lower"),
    ("serve.warm_codec_frac", "frac", "higher"),
    ("serve.repeat_one_eval_frac", "frac", "higher"),
    ("serve.proto_encode_mib_s", "MiB/s", "higher"),
    ("serve.proto_decode_mib_s", "MiB/s", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline", "count", "lower"),
    ("serve.transport_errors", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.timed_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("host.slowness", "ratio", "lower"),
];

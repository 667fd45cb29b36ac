//! The layer probe: direct, timed calls into each layer below the search,
//! run after the workload in a traced run.
//!
//! The probe is the same on every workload — one smooth-plus-noise field
//! of this seed, each codec at the reference bound `1e-3 × range` — so a
//! layer's rate is measured the same way in every traced run and can be
//! compared across workloads and commits.  Each number is the median of
//! repeated calls.

use std::time::Instant;

use crate::adapter::{
    self, build_codec, dataset2d, dataset3d, fingerprint, Pool, QualityReport, Request, TuneCache,
    CODECS, TOLERANCE, WORKERS,
};
use crate::fields::{field2d, field3d, quantisation_codes, value_range, Kind};
use crate::stats::median;
use crate::workloads::{Cfg, Layers, TempDir};

const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds per call of `f`, over at least five calls and at least
/// `budget_s` seconds in total.
fn median_secs(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

pub fn run(cfg: &Cfg, out: &mut Layers) {
    let (edge, budget) = if cfg.quick { (12, 0.002) } else { (48, 0.06) };
    let values = field3d(Kind::SmoothNoise, [edge; 3], cfg.seed, 900, 0.0);
    let (lo, hi) = value_range(&values);
    let dataset = dataset3d("probe", 0, [edge; 3], values.clone());
    let mib = dataset.byte_size() as f64 / MIB;

    let codes = quantisation_codes(&values);
    let packed = adapter::lossless_compress(&codes);
    let codes_mib = codes.len() as f64 / MIB;
    out.set(
        "lossless.compress_mib_s",
        codes_mib
            / median_secs(budget, || {
                drop(std::hint::black_box(adapter::lossless_compress(&codes)))
            }),
    );
    out.set(
        "lossless.decompress_mib_s",
        codes_mib
            / median_secs(budget, || {
                drop(std::hint::black_box(adapter::lossless_decompress(&packed)))
            }),
    );

    let bound = 1e-3 * (hi - lo);
    for name in CODECS {
        let codec = build_codec(name);
        let blob = codec.compress(&dataset, bound).expect("probe compress");
        out.set(
            &format!("codec.{name}.compress_mib_s"),
            mib / median_secs(budget, || {
                drop(std::hint::black_box(codec.compress(&dataset, bound)))
            }),
        );
        out.set(
            &format!("codec.{name}.decompress_mib_s"),
            mib / median_secs(budget, || {
                drop(std::hint::black_box(codec.decompress(&blob)))
            }),
        );
        if name == "sz" {
            let restored = codec.decompress(&blob).expect("probe decompress");
            out.set(
                "metrics.quality_report_mib_s",
                mib / median_secs(budget, || {
                    std::hint::black_box(QualityReport::evaluate(&dataset, &restored, blob.len()));
                }),
            );
        }
    }

    out.set(
        "tune.fingerprint_mib_s",
        mib / median_secs(budget, || {
            std::hint::black_box(fingerprint(&dataset));
        }),
    );
    let dir = TempDir::new(cfg, "probe-tune");
    let cache = TuneCache::open(dir.path()).expect("probe tune cache");
    let keys: Vec<String> = (0..1000)
        .map(|i| format!("sz||ratio:{i}|{i:016x}"))
        .collect();
    let record = median_secs(budget, || {
        for key in &keys {
            cache.record(key.clone(), 1e-3);
        }
    });
    let lookup = median_secs(budget, || {
        for key in &keys {
            std::hint::black_box(cache.lookup(key));
        }
    });
    out.set("tune.record_us", record * 1e6 / keys.len() as f64);
    out.set("tune.lookup_us", lookup * 1e6 / keys.len() as f64);

    let job_edge = if cfg.quick { 24 } else { 48 };
    let request = Request::Compress {
        deadline_ms: 0,
        target_ratio: 8.0,
        tolerance: TOLERANCE,
        codec: "sz".into(),
        dataset: dataset2d("probe", job_edge, field2d(job_edge, cfg.seed, 901)),
    };
    let frame = request.encode();
    let frame_mib = frame.len() as f64 / MIB;
    out.set(
        "serve.proto_encode_mib_s",
        frame_mib / median_secs(budget, || drop(std::hint::black_box(request.encode()))),
    );
    out.set(
        "serve.proto_decode_mib_s",
        frame_mib
            / median_secs(budget, || {
                drop(std::hint::black_box(Request::decode(&frame)))
            }),
    );

    let pool = Pool::new(WORKERS);
    let tasks = if cfg.quick { 500 } else { 10_000 };
    let scope = median_secs(budget, || {
        pool.scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| {});
            }
        })
    });
    out.set("pool.task_overhead_us", scope * 1e6 / tasks as f64);
}

//! The service under hostile tune-cache hints.
//!
//! A tune cache is seeded, through `TuneCache::record` under
//! `CachePredictor::key`, with bounds nobody converged on: the smallest
//! positive and normal doubles, 1e300, and the cold answer six decades
//! either way.  A `Compress` or `TunePsnr` job on a one-worker server reading
//! that cache must answer with the cold server's feasibility, a bound
//! inside the codec's `bound_range`, and no more evaluations than a missed
//! probe allows ([`Job::most`]).  A converged PSNR hint below the answer
//! still verifies and is accepted as probed: a less compressive answer,
//! never an infeasible one.  A NaN bound written into the cache file loads
//! as a corrupt line, and its job runs exactly cold.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use fraz_core::quality::TOLERANCE;
use fraz_core::ratio::WALK_BUDGET;
use fraz_core::{
    Objective, QualityMetric, QualitySearchConfig, Search, SearchConfig, SearchOutcome,
};
use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_pool::Pool;
use fraz_pressio::registry;
use fraz_serve::proto::Response;
use fraz_serve::server::{start, ServeConfig};
use fraz_serve::Client;
use fraz_tune::{CachePredictor, TuneCache, CACHE_FILE};

const CODECS: [&str; 4] = ["sz", "zfp", "mgard", "szx"];
const TARGET_RATIO: f64 = 6.0;
const RATIO_TOLERANCE: f64 = 0.15;
const TARGET_PSNR: f64 = 60.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Job {
    Compress,
    TunePsnr,
}

impl Job {
    /// The most evaluations a job of this kind may spend on a hint that
    /// misses, over `range`.  A ratio job: its unhinted search plus the walk
    /// from the probe (`WALK_BUDGET` answers, the probe included).  A PSNR
    /// job: what bisection would be answered from the probe — the probe,
    /// both ends and `⌈log₂(decades / TOLERANCE)⌉` halvings.  Not the
    /// unhinted walk plus the probe: the wider budget lets a walk from a
    /// probe at the top of the range take another secant step than the walk
    /// that starts there (szx, 128², 60 dB: 8 evaluations against 6).
    fn most(self, unhinted: u32, (lower, upper): (f64, f64)) -> u32 {
        match self {
            Job::Compress => unhinted + WALK_BUDGET as u32,
            Job::TunePsnr => {
                let halvings = ((upper.log10() - lower.log10()) / TOLERANCE)
                    .max(1.0)
                    .log2();
                3 + halvings.ceil() as u32
            }
        }
    }
}

/// What the tests read off a reply.
#[derive(Debug, Clone, Copy)]
struct Answer {
    bound: f64,
    feasible: bool,
    evaluations: u32,
}

/// The bound a hostile entry proposes, from the cold answer.
type Hostile = fn(f64) -> f64;

const HOSTILE: [(&str, Hostile); 5] = [
    ("1e-300", |_| 1e-300),
    ("min-positive", |_| f64::MIN_POSITIVE),
    ("1e300", |_| 1e300),
    ("cold x 1e6", |cold| cold * 1e6),
    ("cold x 1e-6", |cold| cold * 1e-6),
];

/// One field per hostile entry and shape, so every entry has a key of its
/// own: under the sampling floor (the race behind the walk) and over it
/// (a sampled cold seed).
fn field(entry: usize, side: usize) -> Dataset {
    let dims = Dims::d2(side, side);
    synthetic::generate("smooth", &dims, DType::F32, 40 + entry as u64, 0).unwrap()
}

/// The cache key a job of `kind` on `codec` over `dataset` looks up, and
/// what the job's search costs without any hint — no cache entry, and for
/// PSNR not the analytic first guess either — on one worker.
fn unhinted(codec: &str, kind: Job, dataset: &Dataset, pool: &Arc<Pool>) -> (String, u32) {
    fn cost<O: Objective>(search: Search<O>, dataset: &Dataset) -> (String, u32) {
        let outcome: SearchOutcome = search.run_with_hint(dataset, None).into();
        let key = CachePredictor::key(&search.hint_query(dataset));
        (key, outcome.evaluations as u32)
    }
    let compressor = registry::build_default(codec).unwrap();
    match kind {
        // What the server runs: no final quality pass.
        Job::Compress => cost(
            Search::new(
                compressor,
                SearchConfig {
                    measure_final_quality: false,
                    ..SearchConfig::new(TARGET_RATIO, RATIO_TOLERANCE)
                },
            )
            .with_pool(Arc::clone(pool)),
            dataset,
        ),
        // On one worker too: a quality search hedges only on two or more.
        Job::TunePsnr => cost(
            Search::new(
                compressor,
                QualitySearchConfig::new(QualityMetric::PsnrAtLeast(TARGET_PSNR)),
            )
            .with_pool(Arc::clone(pool)),
            dataset,
        ),
    }
}

fn run(client: &mut Client, codec: &str, kind: Job, dataset: &Dataset) -> Answer {
    let reply = match kind {
        Job::Compress => client.compress(codec, dataset, TARGET_RATIO, RATIO_TOLERANCE, 0),
        Job::TunePsnr => client.tune_psnr(codec, dataset, TARGET_PSNR, 0),
    };
    match reply.expect("typed reply") {
        Response::Compressed {
            error_bound,
            feasible,
            evaluations,
            ..
        } => Answer {
            bound: error_bound,
            feasible,
            evaluations,
        },
        Response::Tuned {
            error_bound,
            satisfiable,
            evaluations,
            ..
        } => Answer {
            bound: error_bound,
            feasible: satisfiable,
            evaluations,
        },
        other => panic!("{codec} {kind:?} answered {:?}", other.kind()),
    }
}

/// Every (codec, job, field) answered by a one-worker server reading the
/// tune cache in `cache` (none: cold).
fn serve(cache: Option<&Path>, cases: &[(&str, Job, &Dataset)]) -> Vec<Answer> {
    let handle = start(ServeConfig {
        workers: 1,
        tune_cache_dir: cache.map(Path::to_path_buf),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&handle.local_addr().to_string()).expect("connect");
    client
        .set_reply_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let answers = cases
        .iter()
        .map(|&(codec, kind, dataset)| run(&mut client, codec, kind, dataset))
        .collect();
    handle.join();
    answers
}

#[test]
fn hostile_cache_entries_change_a_jobs_cost_never_its_answer() {
    let root = std::env::temp_dir().join(format!("fraz-serve-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fields: Vec<(usize, Dataset)> = (0..HOSTILE.len())
        .flat_map(|entry| [40, 128].map(|side| (entry, field(entry, side))))
        .collect();
    let mut cases: Vec<(&str, Job, usize, &Dataset)> = fields
        .iter()
        .flat_map(|(entry, dataset)| {
            CODECS.into_iter().flat_map(move |codec| {
                [Job::Compress, Job::TunePsnr].map(|kind| (codec, kind, *entry, dataset))
            })
        })
        .collect();
    // Past the hostile entries: the one whose cache line holds a NaN.
    let nan_field = field(HOSTILE.len(), 128);
    cases.push(("sz", Job::Compress, HOSTILE.len(), &nan_field));
    let jobs: Vec<_> = cases.iter().map(|&(c, k, _, d)| (c, k, d)).collect();
    let cold = serve(None, &jobs);

    let pool = Arc::new(Pool::new(1));
    let unhinted: Vec<(String, u32)> = cases
        .iter()
        .map(|&(codec, kind, _, dataset)| unhinted(codec, kind, dataset, &pool))
        .collect();

    let cache = TuneCache::open(&root).unwrap();
    let mut nan_line = String::new();
    for (&(_, _, entry, _), (answer, (key, _))) in cases.iter().zip(cold.iter().zip(&unhinted)) {
        let key = key.clone();
        match HOSTILE.get(entry) {
            Some((_, hostile)) => cache.record(key, hostile(answer.bound)),
            None => nan_line = format!("{{\"key\":{key:?},\"bound\":NaN}}\n"),
        }
    }
    cache.flush().unwrap();
    let seeded = cache.len();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(root.join(CACHE_FILE))
        .unwrap();
    file.write_all(nan_line.as_bytes()).unwrap();
    drop(file);
    let reopened = TuneCache::open(&root).unwrap();
    assert_eq!(reopened.len(), seeded, "every hostile entry loads");
    assert_eq!(reopened.stats().corrupt_lines, 1, "the NaN line");

    let hinted = serve(Some(&root), &jobs);
    let answers = cold.iter().zip(&hinted).zip(&unhinted);
    for (&(codec, kind, entry, dataset), ((cold, hinted), &(_, unhinted))) in
        cases.iter().zip(answers)
    {
        let name = HOSTILE.get(entry).map_or("NaN", |(name, _)| name);
        let what = format!("{codec} {kind:?} {:?} under a {name} entry", dataset.dims);
        if kind == Job::Compress {
            // The service's ratio job is the shell's unhinted search.
            assert_eq!(cold.evaluations, unhinted, "{what}");
        }
        assert_eq!(
            hinted.feasible, cold.feasible,
            "{what}: {cold:?} → {hinted:?}"
        );
        let (lower, upper) = registry::build_default(codec).unwrap().bound_range(dataset);
        assert!(
            (lower..=upper).contains(&hinted.bound),
            "{what}: bound {} outside [{lower}, {upper}]",
            hinted.bound
        );
        if entry < HOSTILE.len() {
            assert!(
                hinted.evaluations <= kind.most(unhinted, (lower, upper)),
                "{what}: {} evaluations, {unhinted} unhinted",
                hinted.evaluations,
            );
        } else {
            // The corrupt line proposes nothing: the job is the cold one.
            assert_eq!(
                (hinted.bound, hinted.evaluations),
                (cold.bound, cold.evaluations),
                "{what}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

//! Hints change a chunk search's speed, never its answer — on the store
//! writer's path, for every registered error-bounded codec.
//!
//! `fraz-core`'s shell contract pins this on a synthetic monotone codec; a
//! store write is where hostile hints actually arrive (a neighbouring
//! chunk's bound routinely lies outside the next chunk's valid range, a
//! tuning cache may hold anything).  Each case draws one hint per chunk —
//! NaN, ±∞, 0, negative, 1e300, stale bounds anywhere on the axis, inverted
//! and out-of-range brackets — writes through [`write_array_seeded`] under a
//! predictor that replays them, and compares chunk by chunk with the
//! unseeded write: same `feasible`, bound under the ceiling `U`, at most
//! the walk a missed probe starts (`WALK_BUDGET` evaluations, the probe
//! included) more than cold.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use fraz_core::ratio::WALK_BUDGET;
use fraz_core::{BoundPredictor, HintQuery, HintSource, SearchHint};
use fraz_data::{Dataset, Dims};
use fraz_pool::Pool;
use fraz_pressio::registry;
use fraz_store::{write_array_seeded, ChunkTarget, MemoryStore, StoreWriteConfig};

const DIMS: [usize; 3] = [16, 16, 16];
const CHUNK: [usize; 3] = [8, 8, 8];
const N_CHUNKS: usize = 8;

fn field(dims: [usize; 3]) -> Dataset {
    let [nz, ny, nx] = dims;
    let values = (0..nz * ny * nx)
        .map(|i| {
            let (z, y, x) = (i / (ny * nx), i / nx % ny, i % nx);
            ((x as f32 * 0.31).sin() + (y as f32 * 0.17).cos()) * 5.0
                + (z as f32 * 0.41).sin() * 2.0
        })
        .collect();
    Dataset::from_f32("hint", "smooth", 0, Dims::new(&dims), values)
}

/// Replays a drawn script, one hint per `predict` call, and learns nothing.
struct Hostile {
    script: Vec<SearchHint>,
    next: AtomicUsize,
}

impl BoundPredictor for Hostile {
    fn predict(&self, _query: &HintQuery<'_>) -> Option<SearchHint> {
        let call = self.next.fetch_add(1, Ordering::Relaxed);
        Some(self.script[call % self.script.len()].clone())
    }
}

fn hostile_hint() -> impl Strategy<Value = SearchHint> {
    // Anywhere on (and far off) the axis: the field's range is ~20.
    let stale = || (-12.0f64..4.0).prop_map(|e| 10f64.powf(e));
    let bare = |bound: f64| SearchHint::converged(bound, HintSource::External);
    // Built field by field: `with_bracket` would refuse these.
    let bracketed = |bound: f64, bracket: (f64, f64)| SearchHint {
        bracket: Some(bracket),
        ..SearchHint::seed(bound, HintSource::External)
    };
    prop_oneof![
        4 => stale().prop_map(bare),
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-1e-3),
            Just(1e300),
        ]
        .prop_map(bare),
        2 => (
            stale(),
            prop_oneof![
                Just((0.5, 1e-4)),
                Just((1e30, 1e31)),
                Just((1e-300, 1e-299)),
                Just((f64::NAN, f64::NAN)),
                Just((f64::NEG_INFINITY, f64::INFINITY)),
                Just((-1.0, 1e300)),
            ],
        )
            .prop_map(move |(bound, bracket)| bracketed(bound, bracket)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hostile_hints_change_cost_not_verdict(
        script in proptest::collection::vec(hostile_hint(), N_CHUNKS),
    ) {
        // One worker, so chunk searches run one after another (script order
        // is chunk order) and every count repeats.
        let pool = Arc::new(Pool::new(1));
        let dataset = field(DIMS);
        let write = |config: &StoreWriteConfig, script: Option<&[SearchHint]>| {
            let predictor = script.map(|script| {
                Arc::new(Hostile { script: script.to_vec(), next: AtomicUsize::new(0) })
                    as Arc<dyn BoundPredictor>
            });
            let store = MemoryStore::new();
            write_array_seeded(&store, "hint", &dataset, config, Some(pool.clone()), predictor)
                .unwrap()
        };
        // Chunk 0 of the field: what one chunk search sees.
        let chunk = field(CHUNK);
        let range = chunk.stats().value_range();
        for codec in registry::error_bounded_names() {
            let compressor = registry::build_default(&codec).unwrap();
            if !compressor.supports_dims(&chunk.dims) {
                continue;
            }
            // A ratio a chunk reaches well under a loose ceiling, and one no
            // bound under a tight ceiling can reach (on a budget that keeps
            // exhausting it cheap).
            let reachable = compressor
                .evaluate(&chunk, range * 1e-2, false)
                .unwrap()
                .compression_ratio;
            for (target_ratio, ceiling, regions, iterations) in
                [(reachable, range * 0.05, 4, 12), (1e6, range * 1e-5, 2, 4)]
            {
                let target = ChunkTarget::Ratio { target_ratio, tolerance: 0.15 };
                let config = StoreWriteConfig::new(CHUNK.to_vec(), &codec, target)
                    .with_warm_start(false)
                    .with_regions(regions)
                    .with_max_iterations(iterations)
                    .with_max_error_bound(ceiling);
                let cold = write(&config, None);
                let hinted = write(&config, Some(&script));
                prop_assert_eq!(cold.chunks.len(), N_CHUNKS);
                for (cold, hinted) in cold.chunks.iter().zip(&hinted.chunks) {
                    let at = format!(
                        "{codec} {target_ratio:.1}:1 chunk {} under {:?}: cold {cold:?}, hinted {hinted:?}",
                        cold.index, script[cold.index]
                    );
                    prop_assert_eq!(hinted.feasible, cold.feasible, "{}", at);
                    prop_assert!(hinted.error_bound <= ceiling, "{}", at);
                    prop_assert!(hinted.evaluations <= cold.evaluations + WALK_BUDGET, "{}", at);
                }
            }
        }
    }
}

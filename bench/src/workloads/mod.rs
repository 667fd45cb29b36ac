//! The seven workloads and what they share: the measurement contract
//! ([`Workload`]), the benchmark's own verification arithmetic, and the
//! span post-processing every workload's per-layer metrics start from.

mod search;
mod service;
mod store;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::adapter::{values_f32, Compressor, Dataset, TOLERANCE, WORKERS};
use crate::calib::{Reading, Reference, SHARE};
use crate::fields;
use crate::stats::{median, quantile};
use crate::trace::Span;

/// Workload names are permanent: results are compared across commits by
/// name.  `BENCHMARK.json` lists the same seven with the reason for each.
pub const NAMES: [&str; 7] = [
    "ratio_cold_1w",
    "ratio_cold_2w",
    "quality_psnr",
    "series_reuse",
    "store_write",
    "store_read",
    "service_mix",
];

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Shrink every size so a whole workload takes well under a second;
    /// the code paths are the same.
    pub quick: bool,
    /// The run will have a traced phase: set-up prepares what the traced
    /// codec names need as well.
    pub trace: bool,
    /// Scratch space inside the checkout (`bench/out`).
    pub out_dir: PathBuf,
}

impl Cfg {
    /// Edge length of the cubic search fields.
    pub fn field_edge(&self) -> usize {
        if self.quick {
            12
        } else {
            32
        }
    }
}

/// A duration as the clock read it, and how slow the host was around it:
/// the reference slices just before and just after (see [`crate::calib`]).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub clock: f64,
    pub slowness: f64,
}

impl Timed {
    pub fn new(clock: f64, around: Reading) -> Self {
        Timed {
            clock,
            slowness: around.slowness(),
        }
    }

    /// The duration at the reference speed, or as the clock read it.
    pub fn at(&self, reference: bool) -> f64 {
        if reference {
            self.clock / self.slowness
        } else {
            self.clock
        }
    }
}

/// One timed call of a round, over all the rounds of a phase.
#[derive(Debug)]
pub struct Unit {
    /// Operations the call completes.
    pub ops: usize,
    /// Its seconds, one entry per round.
    pub secs: Vec<Timed>,
}

/// One slice of a stream of operations: a group of reads, or the jobs of
/// one burst.
#[derive(Debug)]
pub struct Slice {
    /// Each operation's milliseconds, as the clock read them.
    pub ms: Vec<f64>,
    /// The slice's timed wall in seconds.
    pub wall: Timed,
    /// How slow the host's hand-offs were around the slice, where the
    /// median operation is made of hand-offs (see
    /// [`Reference::handoff_slice`]); the median is divided by this and
    /// not by the slowness of `wall`.
    pub handoff_slowness: Option<f64>,
}

/// Timed samples of one measurement phase.
///
/// A workload either repeats a fixed round of timed calls (`units`: the
/// searches, the series, the writes) or times a stream of operations in
/// slices (`slices`: the reads, the jobs).  Every time is divided by how
/// slow the host was around it, and every statistic is a median over the
/// repeats of the same thing: a call's time over the rounds, a slice
/// statistic over the slices.  The first takes out the host's drift, the
/// second its bursts.  The same statistics over the clock's own readings
/// (`reference = false`) are kept for the record.
#[derive(Debug, Default)]
pub struct Samples {
    pub units: Vec<Unit>,
    pub slices: Vec<Slice>,
    /// Total timed wall in seconds, as the clock read it.
    pub timed_s: f64,
}

impl Samples {
    fn record_unit(&mut self, index: usize, ops: usize, secs: Timed) {
        if index == self.units.len() {
            self.units.push(Unit {
                ops,
                secs: Vec::new(),
            });
        }
        self.units[index].secs.push(secs);
        self.timed_s += secs.clock;
    }

    pub fn record_slice(&mut self, ms: Vec<f64>, wall: Timed, handoff_slowness: Option<f64>) {
        self.timed_s += wall.clock;
        self.slices.push(Slice {
            ms,
            wall,
            handoff_slowness,
        });
    }

    fn over_slices(&self, stat: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(stat).collect::<Vec<_>>())
    }

    /// Each call's typical seconds: its median over the rounds.
    fn typical(&self, reference: bool) -> Vec<f64> {
        self.units
            .iter()
            .map(|u| median(&u.secs.iter().map(|t| t.at(reference)).collect::<Vec<_>>()))
            .collect()
    }

    /// Operations per second: a round's operations over the sum of its
    /// calls' typical times, or the median slice rate of a stream.
    pub fn ops_per_s(&self, reference: bool) -> f64 {
        if self.units.is_empty() {
            return self.over_slices(|s| s.ms.len() as f64 / s.wall.at(reference));
        }
        let ops: usize = self.units.iter().map(|u| u.ops).sum();
        ops as f64 / self.typical(reference).iter().sum::<f64>()
    }

    /// `(op_p50_ms, op_p90_ms)`.
    ///
    /// * A stream: the median over slices of each slice's median and 90th
    ///   percentile.
    /// * A round of one-operation calls: the median and 90th percentile
    ///   over the calls' typical times.
    /// * A round whose calls complete many operations each (a series, an
    ///   array write): the round's typical time per operation, for both.
    pub fn latency_ms(&self, reference: bool) -> (f64, f64) {
        if self.units.is_empty() {
            let scale = |s: &Slice| if reference { s.wall.slowness } else { 1.0 };
            let median_scale = |s: &Slice| match s.handoff_slowness {
                Some(slowness) if reference => slowness,
                _ => scale(s),
            };
            return (
                self.over_slices(|s| median(&s.ms) / median_scale(s)),
                self.over_slices(|s| quantile(&s.ms, 0.9) / scale(s)),
            );
        }
        if self.units.iter().any(|u| u.ops > 1) {
            let per_op = 1e3 / self.ops_per_s(reference);
            return (per_op, per_op);
        }
        let typical: Vec<f64> = self.typical(reference).iter().map(|s| s * 1e3).collect();
        (median(&typical), quantile(&typical, 0.9))
    }
}

/// The reference slice that opens a phase, in seconds: the first timed
/// call needs a reading before it as well as after it.
pub const OPENING_SLICE_S: f64 = 0.02;

/// Repeat a round of `units` timed calls until `deadline` has passed; the
/// first round is always whole, the last may stop short.  `call(i)` runs the
/// round's `i`-th call and returns `(seconds, operations completed)`; the
/// reference runs after each call for [`SHARE`] of its time.
pub fn run_rounds(
    deadline: Instant,
    host: &mut Reference,
    samples: &mut Samples,
    units: usize,
    mut call: impl FnMut(usize) -> (f64, usize),
) {
    let mut before = host.slice(OPENING_SLICE_S);
    for round in 0.. {
        for index in 0..units {
            if round > 0 && Instant::now() >= deadline {
                return;
            }
            let (secs, ops) = call(index);
            let after = host.slice(secs * SHARE);
            samples.record_unit(index, ops, Timed::new(secs, before.plus(after)));
            before = after;
        }
    }
}

/// Per-layer metrics by name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    }
}

pub trait Workload {
    /// One untimed operation, so lazy initialisation is not measured.
    fn warm_up(&mut self, traced: bool);

    /// Run timed operations, and the reference between them, until
    /// `deadline` has passed (always at least one round).  Answers are kept
    /// for [`verify`].
    ///
    /// [`verify`]: Workload::verify
    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    );

    /// Check every answer given during `measure`, outside any timed
    /// section and with the benchmark's own arithmetic.  Returns
    /// `(attempted, failed)`.
    fn verify(&mut self) -> (u64, u64);

    /// Per-layer metrics of the traced phase.  Returns false when the
    /// product's own counters disagree with the wrapper's.
    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool;
}

/// Threads the product keeps busy in `name`; the reference runs on as many.
pub fn threads(name: &str) -> usize {
    if name == "ratio_cold_1w" {
        1
    } else {
        WORKERS
    }
}

/// Build a workload's inputs and state.  Everything here is `setup_s`.
pub fn setup(name: &str, cfg: &Cfg) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ratio_cold_1w" => Box::new(search::RatioCold::setup(cfg, 1)),
        "ratio_cold_2w" => Box::new(search::RatioCold::setup(cfg, 2)),
        "quality_psnr" => Box::new(search::QualityPsnr::setup(cfg)),
        "series_reuse" => Box::new(search::SeriesReuse::setup(cfg)),
        "store_write" => Box::new(store::StoreWrite::setup(cfg)),
        "store_read" => Box::new(store::StoreRead::setup(cfg)),
        "service_mix" => Box::new(service::ServiceMix::setup(cfg)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------------

/// A directory under `out_dir/tmp`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(cfg: &Cfg, what: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = cfg.out_dir.join("tmp").join(format!(
            "{what}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// The benchmark's own arithmetic
// ---------------------------------------------------------------------------

pub fn max_abs_err(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64 - *y as f64).abs())
        .fold(0.0, f64::max)
}

/// PSNR in dB against the original's value range.
pub fn psnr_db(original: &[f32], restored: &[f32]) -> f64 {
    if original.len() != restored.len() || original.is_empty() {
        return f64::NEG_INFINITY;
    }
    let (lo, hi) = fields::value_range(original);
    let mse = original
        .iter()
        .zip(restored)
        .map(|(x, y)| (*x as f64 - *y as f64).powi(2))
        .sum::<f64>()
        / original.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (hi - lo).log10() - 10.0 * mse.log10()
    }
}

pub fn in_band(ratio: f64, target: f64) -> bool {
    (ratio - target).abs() <= target * TOLERANCE * (1.0 + 1e-9)
}

/// The reference compression that makes ratio targets feasible by
/// construction: compress once at `e0 = 1e-3 × value range` and use the
/// achieved ratio as the target.
pub fn reference_ratio(codec: &dyn Compressor, dataset: &Dataset) -> f64 {
    let (lo, hi) = fields::value_range(&values_f32(dataset));
    let e0 = 1e-3 * (hi - lo);
    let blob = codec
        .compress(dataset, e0)
        .unwrap_or_else(|e| panic!("reference compression with {}: {e}", codec.name()));
    dataset.byte_size() as f64 / blob.len() as f64
}

/// Recompress at `bound`, decode, and report `(ratio, max error, psnr)`.
pub fn recheck(codec: &dyn Compressor, dataset: &Dataset, bound: f64) -> Option<(f64, f64, f64)> {
    let blob = codec.compress(dataset, bound).ok()?;
    let restored = codec.decompress(&blob).ok()?;
    let (a, b) = (values_f32(dataset), values_f32(&restored));
    Some((
        dataset.byte_size() as f64 / blob.len() as f64,
        max_abs_err(&a, &b),
        psnr_db(&a, &b),
    ))
}

/// A ratio answer is right when the recompressed ratio is within ε of the
/// target and the decode honours the returned bound.
pub fn ratio_answer_ok(codec: &dyn Compressor, dataset: &Dataset, bound: f64, target: f64) -> bool {
    recheck(codec, dataset, bound)
        .is_some_and(|(ratio, err, _)| in_band(ratio, target) && err <= bound * (1.0 + 1e-9))
}

/// A PSNR answer is right when the recomputed PSNR meets the target.
pub fn psnr_answer_ok(
    codec: &dyn Compressor,
    dataset: &Dataset,
    bound: f64,
    target_db: f64,
) -> bool {
    recheck(codec, dataset, bound).is_some_and(|(_, _, psnr)| psnr >= target_db - 1e-9)
}

/// Verification results memoised by `(operation, returned bound)`: a
/// deterministic search gives the same answer every round, and checking
/// it once is enough.
#[derive(Default)]
pub struct Verdicts(HashMap<(usize, u64), bool>);

impl Verdicts {
    pub fn check(&mut self, op: usize, bound: f64, verify: impl FnOnce() -> bool) -> bool {
        *self.0.entry((op, bound.to_bits())).or_insert_with(verify)
    }
}

// ---------------------------------------------------------------------------
// Span post-processing
// ---------------------------------------------------------------------------

/// Wrapper span names that are codec time.
const CODEC_SPANS: [&str; 5] = [
    "evaluate_ratio",
    "evaluate_quality",
    "compress",
    "decompress",
    "bound_range",
];

/// `pressio.*` counters and `pool.codec_util`, common to every workload.
pub fn pressio_layers(spans: &[Span], samples: &Samples, out: &mut Layers) {
    let mut codec_busy = 0.0;
    let mut failed = 0usize;
    for name in CODEC_SPANS {
        let (mut calls, mut busy) = (0usize, 0.0);
        for s in spans.iter().filter(|s| s.name == name) {
            calls += 1;
            busy += s.secs();
            failed += s.failed as usize;
        }
        out.set(&format!("pressio.{name}_calls"), calls as f64);
        out.set(&format!("pressio.{name}_busy_s"), busy);
        codec_busy += busy;
    }
    out.set("pressio.failed_calls", failed as f64);
    out.set("pressio.busy_frac_of_wall", codec_busy / samples.timed_s);
    out.set(
        "pool.codec_util",
        codec_busy / (samples.timed_s * WORKERS as f64),
    );
}

/// Self time of the top-level spans called `top`: each span minus its
/// children's busy time divided by `workers`.  Exact at one worker; with
/// more it is an upper bound, because children that overlap less than
/// perfectly cover more of the span than busy ÷ workers.
/// Returns `(self seconds, total seconds, span count)`.
pub fn self_time(spans: &[Span], top: &str, workers: usize) -> (f64, f64, usize) {
    let mut child_busy: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_busy.entry(s.parent).or_default() += s.secs();
    }
    let (mut own, mut total, mut count) = (0.0, 0.0, 0);
    for s in spans.iter().filter(|s| s.parent == 0 && s.name == top) {
        let busy = child_busy.get(&s.id).copied().unwrap_or(0.0);
        own += (s.secs() - busy / workers as f64).max(0.0);
        total += s.secs();
        count += 1;
    }
    (own, total, count)
}

/// Wrapper spans grouped by the top-level span that caused them.
pub fn children_of(spans: &[Span]) -> HashMap<u64, Vec<&Span>> {
    let mut by_parent: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        by_parent.entry(s.parent).or_default().push(s);
    }
    by_parent
}

//! The three search workloads: cold fixed-ratio searches at one and two
//! workers, Fixed-PSNR searches, and the time-series orchestrator.

use std::sync::Arc;
use std::time::Instant;

use super::{
    children_of, in_band, pressio_layers, psnr_answer_ok, ratio_answer_ok, reference_ratio,
    run_rounds, self_time, Cfg, Layers, Samples, Verdicts, Workload,
};
use crate::adapter::{
    self, build_codec, codec_name, dataset3d, Compressor, Dataset, FieldTask, Orchestrator, Pool,
    CODECS, WORKERS,
};
use crate::calib::Reference;
use crate::fields::{field3d, Kind};
use crate::stats::{gmean, mean};
use crate::trace::{self, Span};

/// The real codecs, and their traced wrappers when the run has a traced
/// phase (same order as [`CODECS`]).
struct CodecSet {
    plain: Vec<Arc<dyn Compressor>>,
    traced: Vec<Arc<dyn Compressor>>,
}

impl CodecSet {
    fn new(cfg: &Cfg, names: &[&str]) -> Self {
        let plain = names.iter().map(|c| build_codec(c)).collect();
        let traced = if cfg.trace {
            names
                .iter()
                .map(|c| {
                    adapter::register_traced(c);
                    build_codec(&codec_name(c, true))
                })
                .collect()
        } else {
            Vec::new()
        };
        Self { plain, traced }
    }

    fn get(&self, idx: usize, traced: bool) -> Arc<dyn Compressor> {
        Arc::clone(if traced {
            &self.traced[idx]
        } else {
            &self.plain[idx]
        })
    }
}

/// The four search fields of this seed at edge `n`, one per [`Kind`].
fn search_fields(cfg: &Cfg, n: usize) -> Vec<(Kind, Vec<f32>)> {
    Kind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| (kind, field3d(kind, [n; 3], cfg.seed, i as u64, 0.0)))
        .collect()
}

/// Field edge per codec (same order as [`CODECS`]) for the cold ratio
/// searches.  The codecs differ 20-fold in speed; at one size the sixteen
/// latencies would form four separate clusters with the median in the gap
/// between two of them, where it jumps from seed to seed.  Sizing each
/// codec's fields so that a search costs about the same gives every codec
/// the same weight in `ops_per_s` and puts `op_p50_ms` inside the bulk.
fn ratio_edges(cfg: &Cfg) -> [usize; 4] {
    if cfg.quick {
        [12; 4]
    } else {
        [32, 40, 28, 80]
    }
}

// ---------------------------------------------------------------------------
// ratio_cold_1w / ratio_cold_2w
// ---------------------------------------------------------------------------

struct RatioOp {
    codec: usize,
    /// Its `field` label is the operation id the trace attributes by.
    dataset: Dataset,
    target: f64,
}

struct RatioAnswer {
    op: usize,
    bound: f64,
    ratio: f64,
    feasible: bool,
    evaluations: usize,
    /// Id of the operation's top-level span (0 when untraced).
    top: u64,
}

pub struct RatioCold {
    threads: usize,
    pool: Arc<Pool>,
    codecs: CodecSet,
    ops: Vec<RatioOp>,
    answers: Vec<RatioAnswer>,
}

impl RatioCold {
    pub fn setup(cfg: &Cfg, threads: usize) -> Self {
        let codecs = CodecSet::new(cfg, &CODECS);
        let mut ops = Vec::new();
        for (c, (codec, n)) in CODECS.iter().zip(ratio_edges(cfg)).enumerate() {
            for (kind, values) in search_fields(cfg, n) {
                let label = format!("{codec}-{}", kind.name());
                let dataset = dataset3d(&label, 0, [n; 3], values);
                let target = reference_ratio(codecs.plain[c].as_ref(), &dataset);
                ops.push(RatioOp {
                    codec: c,
                    dataset,
                    target,
                });
            }
        }
        Self {
            threads,
            pool: Arc::new(Pool::new(WORKERS)),
            codecs,
            ops,
            answers: Vec::new(),
        }
    }

    /// One cold search; returns its latency in seconds.
    fn run_op(&mut self, idx: usize, traced: bool, keep: bool) -> f64 {
        let op = &self.ops[idx];
        let search = adapter::ratio_search(
            self.codecs.get(op.codec, traced),
            op.target,
            self.threads,
            &self.pool,
        );
        let top = trace::open_top("search", &op.dataset.field);
        let outcome = search.run(&op.dataset);
        let id = top.id();
        let ns = trace::close_top(top, outcome.evaluations as f64);
        if keep {
            self.answers.push(RatioAnswer {
                op: idx,
                bound: outcome.error_bound,
                ratio: outcome.best.compression_ratio,
                feasible: outcome.feasible,
                evaluations: outcome.evaluations,
                top: id,
            });
        }
        ns as f64 * 1e-9
    }
}

impl Workload for RatioCold {
    fn warm_up(&mut self, traced: bool) {
        self.run_op(0, traced, false);
    }

    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    ) {
        run_rounds(deadline, host, samples, self.ops.len(), |idx| {
            (self.run_op(idx, traced, true), 1)
        });
    }

    fn verify(&mut self) -> (u64, u64) {
        let mut verdicts = Verdicts::default();
        let mut failed = 0;
        for a in &self.answers {
            let op = &self.ops[a.op];
            let codec = self.codecs.plain[op.codec].as_ref();
            let ok = a.feasible
                && verdicts.check(a.op, a.bound, || {
                    ratio_answer_ok(codec, &op.dataset, a.bound, op.target)
                });
            failed += !ok as u64;
        }
        (self.answers.len() as u64, failed)
    }

    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool {
        pressio_layers(spans, samples, out);
        let children = children_of(spans);
        let traced: Vec<&RatioAnswer> = self.answers.iter().filter(|a| a.top != 0).collect();
        let mut consistent = true;
        let (mut to_hit, mut after_hit, mut dev) = (Vec::new(), Vec::new(), Vec::new());
        for a in &traced {
            let target = self.ops[a.op].target;
            let mut evals: Vec<&Span> = children
                .get(&a.top)
                .map(|c| {
                    c.iter()
                        .copied()
                        .filter(|s| s.name == "evaluate_ratio")
                        .collect()
                })
                .unwrap_or_default();
            consistent &= evals.len() == a.evaluations;
            evals.sort_by_key(|s| s.end_ns);
            if let Some(hit) = evals.iter().find(|s| in_band(s.v, target)) {
                to_hit.push(evals.iter().filter(|s| s.end_ns <= hit.end_ns).count() as f64);
                after_hit.push(evals.iter().filter(|s| s.start_ns >= hit.end_ns).count() as f64);
            }
            dev.push((a.ratio - target).abs() / target);
        }
        let (own, total, count) = self_time(spans, "search", self.threads);
        out.set("search.ops", count as f64);
        out.set(
            "search.evals_per_op",
            mean(
                &traced
                    .iter()
                    .map(|a| a.evaluations as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set("search.evals_to_hit", mean(&to_hit));
        out.set("search.evals_after_hit", mean(&after_hit));
        out.set("search.self_s", own);
        out.set("search.self_frac", own / total);
        out.set("search.ratio_dev_mean", mean(&dev));
        out.set(
            "search.infeasible_ops",
            traced.iter().filter(|a| !a.feasible).count() as f64,
        );
        consistent
    }
}

// ---------------------------------------------------------------------------
// quality_psnr
// ---------------------------------------------------------------------------

const PSNR_TARGETS: [f64; 3] = [50.0, 65.0, 80.0];

struct PsnrOp {
    codec: usize,
    dataset: Dataset,
    target_db: f64,
}

struct PsnrAnswer {
    op: usize,
    bound: f64,
    ratio: f64,
    satisfiable: bool,
    evaluations: usize,
    top: u64,
}

pub struct QualityPsnr {
    pool: Arc<Pool>,
    codecs: CodecSet,
    ops: Vec<PsnrOp>,
    answers: Vec<PsnrAnswer>,
}

impl QualityPsnr {
    pub fn setup(cfg: &Cfg) -> Self {
        let n = cfg.field_edge();
        let mut ops = Vec::new();
        for (kind, values) in search_fields(cfg, n) {
            for (c, codec) in CODECS.iter().enumerate() {
                for target_db in PSNR_TARGETS {
                    let label = format!("{codec}-{}-{target_db}", kind.name());
                    ops.push(PsnrOp {
                        dataset: dataset3d(&label, 0, [n; 3], values.clone()),
                        codec: c,
                        target_db,
                    });
                }
            }
        }
        Self {
            pool: Arc::new(Pool::new(WORKERS)),
            codecs: CodecSet::new(cfg, &CODECS),
            ops,
            answers: Vec::new(),
        }
    }

    fn run_op(&mut self, idx: usize, traced: bool, keep: bool) -> f64 {
        let op = &self.ops[idx];
        let search =
            adapter::psnr_search(self.codecs.get(op.codec, traced), op.target_db, &self.pool);
        let top = trace::open_top("quality_search", &op.dataset.field);
        let outcome = search.run(&op.dataset);
        let id = top.id();
        let ns = trace::close_top(top, outcome.evaluations as f64);
        if keep {
            self.answers.push(PsnrAnswer {
                op: idx,
                bound: outcome.error_bound,
                ratio: outcome.best.compression_ratio,
                satisfiable: outcome.satisfiable,
                evaluations: outcome.evaluations,
                top: id,
            });
        }
        ns as f64 * 1e-9
    }
}

impl Workload for QualityPsnr {
    fn warm_up(&mut self, traced: bool) {
        self.run_op(0, traced, false);
    }

    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    ) {
        run_rounds(deadline, host, samples, self.ops.len(), |idx| {
            (self.run_op(idx, traced, true), 1)
        });
    }

    fn verify(&mut self) -> (u64, u64) {
        let mut verdicts = Verdicts::default();
        let mut failed = 0;
        for a in &self.answers {
            let op = &self.ops[a.op];
            let codec = self.codecs.plain[op.codec].as_ref();
            let ok = a.satisfiable
                && verdicts.check(a.op, a.bound, || {
                    psnr_answer_ok(codec, &op.dataset, a.bound, op.target_db)
                });
            failed += !ok as u64;
        }
        (self.answers.len() as u64, failed)
    }

    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool {
        pressio_layers(spans, samples, out);
        let children = children_of(spans);
        let traced: Vec<&PsnrAnswer> = self.answers.iter().filter(|a| a.top != 0).collect();
        let consistent = traced.iter().all(|a| {
            let evals = children.get(&a.top).map_or(0, |c| {
                c.iter().filter(|s| s.name == "evaluate_quality").count()
            });
            evals == a.evaluations
        });
        // The cold sweep of codecs without a PSNR model runs on the pool,
        // so the self time is the two-worker upper bound.
        let (own, _, _) = self_time(spans, "quality_search", WORKERS);
        out.set(
            "quality.evals_per_op",
            mean(
                &traced
                    .iter()
                    .map(|a| a.evaluations as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set("quality.self_s", own);
        out.set(
            "quality.ratio_gmean",
            gmean(&traced.iter().map(|a| a.ratio).collect::<Vec<_>>()),
        );
        consistent
    }
}

// ---------------------------------------------------------------------------
// series_reuse
// ---------------------------------------------------------------------------

/// Phase advance per time-step, radians: small enough that the previous
/// step's bound usually still lands in tolerance.
const STEP_DRIFT: f64 = 0.01;

struct StepAnswer {
    field: usize,
    step: usize,
    bound: f64,
    feasible: bool,
    retrained: bool,
    evaluations: usize,
    /// `Some(hit)` when the step was seeded by a hint.
    hint: Option<(bool, usize)>,
    traced: bool,
}

pub struct SeriesReuse {
    tasks: Vec<FieldTask>,
    targets: Vec<f64>,
    codec: Arc<dyn Compressor>,
    plain: Orchestrator,
    traced: Option<Orchestrator>,
    steps: usize,
    answers: Vec<StepAnswer>,
}

impl SeriesReuse {
    pub fn setup(cfg: &Cfg) -> Self {
        let n = cfg.field_edge();
        let steps = if cfg.quick { 4 } else { 12 };
        let pool = Arc::new(Pool::new(WORKERS));
        let codecs = CodecSet::new(cfg, &["sz"]);
        let mut tasks = Vec::new();
        let mut targets = Vec::new();
        for (f, &kind) in Kind::ALL.iter().enumerate() {
            let series: Vec<Dataset> = (0..steps)
                .map(|t| {
                    let values = field3d(kind, [n; 3], cfg.seed, f as u64, STEP_DRIFT * t as f64);
                    dataset3d(&format!("f{f}-t{t}"), t, [n; 3], values)
                })
                .collect();
            let target = reference_ratio(codecs.plain[0].as_ref(), &series[0]);
            targets.push(target);
            tasks.push(adapter::field_task(kind.name(), series, target));
        }
        Self {
            tasks,
            targets,
            codec: codecs.get(0, false),
            plain: adapter::orchestrator(codecs.get(0, false), &pool),
            traced: cfg
                .trace
                .then(|| adapter::orchestrator(codecs.get(0, true), &pool)),
            steps,
            answers: Vec::new(),
        }
    }

    /// One `run_tasks` over every field's whole series; returns seconds.
    fn run_call(&mut self, traced: bool, keep: bool) -> f64 {
        let orchestrator = if traced {
            self.traced.as_ref().expect("traced phase was set up")
        } else {
            &self.plain
        };
        let top = trace::open_top("series", "series");
        let outcome = orchestrator.run_tasks(&self.tasks);
        let ns = trace::close_top(top, 0.0);
        if keep {
            for (f, series) in outcome.fields.iter().enumerate() {
                for (t, step) in series.steps.iter().enumerate() {
                    self.answers.push(StepAnswer {
                        field: f,
                        step: t,
                        bound: step.error_bound,
                        feasible: step.feasible,
                        retrained: step.retrained,
                        evaluations: step.evaluations,
                        hint: step.hint.as_ref().map(|h| (h.hit, h.probes)),
                        traced,
                    });
                }
            }
        }
        ns as f64 * 1e-9
    }
}

impl Workload for SeriesReuse {
    fn warm_up(&mut self, traced: bool) {
        self.run_call(traced, false);
    }

    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    ) {
        let ops = self.tasks.len() * self.steps;
        run_rounds(deadline, host, samples, 1, |_| {
            (self.run_call(traced, true), ops)
        });
    }

    fn verify(&mut self) -> (u64, u64) {
        let mut verdicts = Verdicts::default();
        let mut failed = 0;
        for a in &self.answers {
            let dataset = &self.tasks[a.field].series[a.step];
            let target = self.targets[a.field];
            let ok = a.feasible
                && verdicts.check(a.field * self.steps + a.step, a.bound, || {
                    ratio_answer_ok(self.codec.as_ref(), dataset, a.bound, target)
                });
            failed += !ok as u64;
        }
        (self.answers.len() as u64, failed)
    }

    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool {
        pressio_layers(spans, samples, out);
        let traced: Vec<&StepAnswer> = self.answers.iter().filter(|a| a.traced).collect();
        let steps = traced.len() as f64;
        let evaluations: usize = traced.iter().map(|a| a.evaluations).sum();
        let probes: usize = traced.iter().filter_map(|a| a.hint).map(|(_, p)| p).sum();
        let hinted = traced.iter().filter(|a| a.hint.is_some()).count() as f64;
        let hits = traced
            .iter()
            .filter(|a| matches!(a.hint, Some((true, _))))
            .count() as f64;
        let ratio_evals = spans.iter().filter(|s| s.name == "evaluate_ratio").count();
        let (own, _, _) = self_time(spans, "series", WORKERS);
        out.set("orchestrator.steps", steps);
        out.set(
            "orchestrator.retrained_frac",
            traced.iter().filter(|a| a.retrained).count() as f64 / steps,
        );
        out.set("orchestrator.evals_per_step", evaluations as f64 / steps);
        out.set("orchestrator.self_s", own);
        out.set("hint.probe_hit_frac", hits / hinted);
        // A hint probe is measured with quality, so it is the one search
        // evaluation that is not an `evaluate_ratio` span.
        evaluations == ratio_evals + probes
    }
}

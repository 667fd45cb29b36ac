//! `service_mix`: the in-process compression service under two closed-loop
//! clients.  Closed loop because each caller waits for its blob before it
//! sends the next field.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    children_of, in_band, max_abs_err, pressio_layers, psnr_answer_ok, reference_ratio, Cfg,
    Layers, Samples, TempDir, Timed, Verdicts, Workload, OPENING_SLICE_S,
};
use crate::adapter::{
    self, build_codec, codec_name, dataset2d, values_f32, Client, Compressor, Response,
    ServerHandle, TOLERANCE,
};
use crate::calib::{Reference, NOMINAL_HANDOFF_RATE, SHARE};
use crate::fields::field2d;
use crate::stats::{median, quantile};
use crate::trace::{self, Span};

const CLIENTS: usize = 2;
const PSNR_DB: f64 = 60.0;
/// Fields warmed into the tune cache before timing; three jobs in four
/// repeat one of them.
const WARM_FIELDS: usize = 16;
/// Seconds per burst of jobs: long enough for a 90th percentile of its
/// own (a hundred jobs and more), short enough that the reference slices
/// on either side see the host the burst saw.
const BURST_S: f64 = 0.25;
const QUICK_BURST_S: f64 = 0.02;
/// Share of the reference time between bursts that goes to the hand-off
/// reference.
const HANDOFF_SHARE: f64 = 0.4;

enum Reply {
    Compressed {
        bound: f64,
        feasible: bool,
        evaluations: u32,
        blob: Vec<u8>,
    },
    Tuned {
        bound: f64,
        satisfiable: bool,
        evaluations: u32,
    },
    /// Any other typed reply, or a transport error: a failed job.
    Other(&'static str),
}

struct JobResult {
    /// Index into `warm` (repeat job) or `fresh` (first-seen job).
    field: usize,
    fresh: bool,
    ms: f64,
    reply: Reply,
    /// Id of the job's top-level span (0 when untraced).
    top: u64,
}

pub struct ServiceMix {
    edge: usize,
    burst_s: f64,
    warm: Vec<Vec<f32>>,
    fresh: Vec<Vec<f32>>,
    next_fresh: AtomicUsize,
    target_ratio: f64,
    codec: Arc<dyn Compressor>,
    results: Vec<JobResult>,
    server: Option<ServerHandle>,
    _tune_dir: TempDir,
}

impl ServiceMix {
    pub fn setup(cfg: &Cfg) -> Self {
        let (edge, fresh_fields) = if cfg.quick { (24, 256) } else { (48, 4096) };
        let warm: Vec<Vec<f32>> = (0..WARM_FIELDS)
            .map(|i| field2d(edge, cfg.seed, 300 + i as u64))
            .collect();
        let fresh = (0..fresh_fields)
            .map(|i| field2d(edge, cfg.seed, 1000 + i as u64))
            .collect();
        let codec = build_codec("sz");
        if cfg.trace {
            adapter::register_traced("sz");
        }
        // Every field of the family reaches this ratio somewhere on its
        // curve, so one target serves warm and first-seen fields alike.
        let target_ratio =
            reference_ratio(codec.as_ref(), &dataset2d("ref", edge, warm[0].clone()));
        let tune_dir = TempDir::new(cfg, "tune");
        let server = adapter::start_server(tune_dir.path());
        let this = Self {
            edge,
            burst_s: if cfg.quick { QUICK_BURST_S } else { BURST_S },
            warm,
            fresh,
            next_fresh: AtomicUsize::new(0),
            target_ratio,
            codec,
            results: Vec::new(),
            server: Some(server),
            _tune_dir: tune_dir,
        };
        // Cache warm-up: both job kinds once for every repeat field.
        let mut client = adapter::connect(this.server());
        for field in 0..WARM_FIELDS {
            for tune in [false, true] {
                let dataset = dataset2d("warm", this.edge, this.warm[field].clone());
                this.request(&mut client, "sz", &dataset, tune);
            }
        }
        this
    }

    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server runs until drop")
    }

    fn request(
        &self,
        client: &mut Client,
        codec: &str,
        dataset: &adapter::Dataset,
        tune: bool,
    ) -> Reply {
        let response = if tune {
            client.tune_psnr(codec, dataset, PSNR_DB, 0)
        } else {
            client.compress(codec, dataset, self.target_ratio, TOLERANCE, 0)
        };
        match response {
            Ok(Response::Compressed {
                error_bound,
                feasible,
                evaluations,
                blob,
                ..
            }) => Reply::Compressed {
                bound: error_bound,
                feasible,
                evaluations,
                blob,
            },
            Ok(Response::Tuned {
                error_bound,
                satisfiable,
                evaluations,
                ..
            }) => Reply::Tuned {
                bound: error_bound,
                satisfiable,
                evaluations,
            },
            Ok(Response::Overloaded { .. }) => Reply::Other("shed"),
            Ok(Response::DeadlineExceeded { .. }) => Reply::Other("deadline"),
            Ok(_) => Reply::Other("other"),
            Err(_) => Reply::Other("transport"),
        }
    }

    /// One client's closed loop: job `i` is a first-seen field when
    /// `i % 4 == 3`, and a `TunePsnr` when `i % 4 == (i / 4) % 4` — so a
    /// quarter of each kind, and one first-seen job in four is a tune.
    fn client_loop(
        &self,
        c: usize,
        client: &mut Client,
        first_job: usize,
        traced: bool,
        deadline: Instant,
        max_jobs: usize,
    ) -> Vec<JobResult> {
        let codec = codec_name("sz", traced);
        let mut results = Vec::new();
        for i in first_job..first_job.saturating_add(max_jobs) {
            let fresh = i % 4 == 3;
            let field = if fresh {
                let next = self.next_fresh.fetch_add(1, Ordering::Relaxed);
                if next >= self.fresh.len() {
                    break;
                }
                next
            } else {
                (c * 7 + i) % WARM_FIELDS
            };
            let values = if fresh {
                &self.fresh[field]
            } else {
                &self.warm[field]
            };
            let label = format!("j{c}-{i}");
            let dataset = dataset2d(&label, self.edge, values.clone());
            let top = trace::open_top("job", &label);
            let reply = self.request(client, &codec, &dataset, i % 4 == (i / 4) % 4);
            let id = top.id();
            let ns = trace::close_top(top, 0.0);
            results.push(JobResult {
                field,
                fresh,
                ms: ns as f64 * 1e-6,
                reply,
                top: id,
            });
            if Instant::now() >= deadline {
                break;
            }
        }
        results
    }

    /// One burst: every client sends jobs over its connection, starting at
    /// its `first_job`, until `deadline` or `max_jobs`.  Returns each
    /// client's results.
    fn run_clients(
        &self,
        clients: &mut [Client],
        first_job: &[usize],
        traced: bool,
        deadline: Instant,
        max_jobs: usize,
    ) -> Vec<Vec<JobResult>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let first = first_job[c];
                    scope.spawn(move || {
                        self.client_loop(c, client, first, traced, deadline, max_jobs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    fn connect_clients(&self) -> Vec<Client> {
        (0..CLIENTS)
            .map(|_| adapter::connect(self.server()))
            .collect()
    }
}

impl Drop for ServiceMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

impl Workload for ServiceMix {
    fn warm_up(&mut self, traced: bool) {
        let mut clients = self.connect_clients();
        self.run_clients(&mut clients, &[0; CLIENTS], traced, Instant::now(), 1);
    }

    /// The clients send jobs in bursts of [`BURST_S`]; the reference runs
    /// between bursts, while the server is idle.  A burst is a slice of the
    /// stream; the connections and each client's place in its job sequence
    /// carry over from burst to burst.
    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    ) {
        let mut clients = self.connect_clients();
        let mut next_job = [0usize; CLIENTS];
        let mut before = host.slice(OPENING_SLICE_S);
        let mut handoffs_before = host.handoff_slice(OPENING_SLICE_S);
        loop {
            let start = Instant::now();
            let burst = self.run_clients(
                &mut clients,
                &next_job,
                traced,
                start + Duration::from_secs_f64(self.burst_s),
                usize::MAX,
            );
            let burst_s = start.elapsed().as_secs_f64();
            // The median job is a repeat job: half a millisecond of codec
            // and four hand-offs between threads.  The rest of the burst's
            // time is first-seen jobs, which compute.
            let after = host.slice(burst_s * SHARE * (1.0 - HANDOFF_SHARE));
            let handoffs_after = host.handoff_slice(burst_s * SHARE * HANDOFF_SHARE);
            for (c, results) in burst.iter().enumerate() {
                next_job[c] += results.len();
            }
            let results: Vec<JobResult> = burst.into_iter().flatten().collect();
            samples.record_slice(
                results.iter().map(|r| r.ms).collect(),
                Timed::new(burst_s, before.plus(after)),
                Some(
                    handoffs_before
                        .plus(handoffs_after)
                        .slowness_at(NOMINAL_HANDOFF_RATE),
                ),
            );
            self.results.extend(results);
            before = after;
            handoffs_before = handoffs_after;
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Every reply must be `Compressed{feasible}` with the blob's ratio in
    /// tolerance and a decode that honours the bound, or `Tuned` with the
    /// PSNR floor met when recomputed.  Shed, deadline, transport errors
    /// and any other reply count as failed.
    fn verify(&mut self) -> (u64, u64) {
        let mut verdicts = Verdicts::default();
        let mut failed = 0;
        for r in &self.results {
            let values = if r.fresh {
                &self.fresh[r.field]
            } else {
                &self.warm[r.field]
            };
            let codec = self.codec.as_ref();
            // A field gives the same blob at the same bound every time, so
            // one check per (field, job kind, bound) is enough.
            let key = |tune: bool| r.field * 4 + r.fresh as usize * 2 + tune as usize;
            let ok = match &r.reply {
                Reply::Compressed {
                    bound,
                    feasible: true,
                    blob,
                    ..
                } => verdicts.check(key(false), *bound, || {
                    in_band(
                        (values.len() * 4) as f64 / blob.len() as f64,
                        self.target_ratio,
                    ) && codec
                        .decompress(blob)
                        .is_ok_and(|d| max_abs_err(values, &values_f32(&d)) <= bound * (1.0 + 1e-9))
                }),
                Reply::Tuned {
                    bound,
                    satisfiable: true,
                    ..
                } => verdicts.check(key(true), *bound, || {
                    let dataset = dataset2d("verify", self.edge, values.clone());
                    psnr_answer_ok(codec, &dataset, *bound, PSNR_DB)
                }),
                _ => false,
            };
            failed += !ok as u64;
        }
        (self.results.len() as u64, failed)
    }

    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool {
        pressio_layers(spans, samples, out);
        let children = children_of(spans);
        let traced: Vec<&JobResult> = self.results.iter().filter(|r| r.top != 0).collect();
        let ms = |fresh: bool| -> Vec<f64> {
            traced
                .iter()
                .filter(|r| r.fresh == fresh)
                .map(|r| r.ms)
                .collect()
        };
        let codec_ms = |r: &JobResult| -> f64 {
            children
                .get(&r.top)
                .map_or(0.0, |c| c.iter().map(|s| s.secs() * 1e3).sum())
        };
        let repeats: Vec<&&JobResult> = traced.iter().filter(|r| !r.fresh).collect();
        let one_eval = repeats
            .iter()
            .filter(|r| {
                matches!(
                    r.reply,
                    Reply::Compressed { evaluations: 1, .. } | Reply::Tuned { evaluations: 1, .. }
                )
            })
            .count();
        let count = |what: &str| {
            traced
                .iter()
                .filter(|r| matches!(r.reply, Reply::Other(k) if k == what))
                .count() as f64
        };
        out.set("serve.jobs", traced.len() as f64);
        out.set("serve.warm_job_p50_ms", median(&ms(false)));
        out.set("serve.cold_job_p50_ms", median(&ms(true)));
        out.set(
            "serve.job_p99_ms",
            quantile(&traced.iter().map(|r| r.ms).collect::<Vec<_>>(), 0.99),
        );
        out.set(
            "serve.warm_overhead_p50_ms",
            median(
                &repeats
                    .iter()
                    .map(|r| r.ms - codec_ms(r))
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "serve.warm_codec_frac",
            median(
                &repeats
                    .iter()
                    .map(|r| codec_ms(r) / r.ms)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "serve.repeat_one_eval_frac",
            one_eval as f64 / repeats.len() as f64,
        );
        out.set("serve.shed", count("shed"));
        out.set("serve.deadline", count("deadline"));
        out.set("serve.transport_errors", count("transport"));
        true
    }
}

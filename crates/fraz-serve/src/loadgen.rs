//! Open-loop load generation against a running service.
//!
//! Each client thread draws exponential inter-arrival times from a
//! seeded rng (so a run is reproducible) and issues a mixed stream of
//! fixed-ratio and fixed-PSNR jobs over `fraz-scenarios` synthetic
//! fields.  Arrivals are *scheduled*, not paced by replies: when the
//! server slows down, requests queue behind the schedule exactly the way
//! an external workload would, which is what makes saturation and shed
//! behaviour measurable.
//!
//! The report aggregates exactly-one-outcome tallies (every issued job
//! lands in precisely one bucket), latency percentiles over serviced
//! jobs, completed-job throughput, and the shed rate — and renders them
//! as one `{"group":"service",...}` JSONL row.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_scenarios::Regime;

use crate::client::Client;
use crate::proto::Response;

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total arrival rate across all clients, jobs/second (`0` =
    /// closed-loop: each client issues as fast as replies return).
    pub rate_hz: f64,
    /// How long to keep issuing jobs.
    pub duration: Duration,
    /// Fraction of jobs that are fixed-PSNR tunes (the rest are
    /// fixed-ratio compressions).
    pub psnr_fraction: f64,
    /// Target for fixed-ratio jobs.
    pub target_ratio: f64,
    /// Tolerance for fixed-ratio jobs.
    pub tolerance: f64,
    /// Target for fixed-PSNR jobs.
    pub target_psnr: f64,
    /// Per-job deadline in milliseconds (`0` = none).
    pub deadline_ms: u32,
    /// Square field edge length (elements).
    pub side: usize,
    /// Codec to search.
    pub codec: String,
    /// Seed of arrivals and job mix.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            clients: 4,
            rate_hz: 0.0,
            duration: Duration::from_secs(3),
            psnr_fraction: 0.25,
            target_ratio: 8.0,
            tolerance: 0.3,
            target_psnr: 50.0,
            deadline_ms: 0,
            side: 64,
            codec: "sz".into(),
            seed: 20200118,
        }
    }
}

/// Aggregated outcome of a run.  Every issued job lands in exactly one of
/// `ok`/`shed`/`deadline`/`draining`/`failed`/`transport_errors`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadgenReport {
    /// Jobs issued.
    pub jobs: u64,
    /// Jobs answered with a success reply.
    pub ok: u64,
    /// Jobs shed with `Overloaded`.
    pub shed: u64,
    /// Jobs answered `DeadlineExceeded`.
    pub deadline: u64,
    /// Jobs answered `Draining`.
    pub draining: u64,
    /// Jobs answered with a typed failure (`BadRequest`/`IoFailed`/
    /// `Internal`).
    pub failed: u64,
    /// Jobs whose connection broke before a reply (the one untyped
    /// outcome a client can observe).
    pub transport_errors: u64,
    /// Wall-clock span of the run in seconds.
    pub elapsed_s: f64,
    /// Completed (ok) jobs per second.
    pub jobs_per_s: f64,
    /// Median reply latency over serviced (ok + deadline) jobs, ms.
    pub p50_ms: f64,
    /// 99th-percentile reply latency over serviced jobs, ms.
    pub p99_ms: f64,
    /// Worst reply latency, ms.
    pub max_ms: f64,
    /// `shed / jobs`.
    pub shed_rate: f64,
}

impl LoadgenReport {
    /// The committed-baseline JSONL row.
    pub fn jsonl_row(&self, id: &str, config: &LoadgenConfig) -> String {
        format!(
            concat!(
                "{{\"group\":\"service\",\"id\":\"{}\",",
                "\"jobs_per_s\":{:.3},\"p50_ms\":{:.3},\"p99_ms\":{:.3},",
                "\"shed_rate\":{:.4},\"jobs\":{},\"ok\":{},\"shed\":{},",
                "\"deadline\":{},\"failed\":{},\"transport_errors\":{},",
                "\"clients\":{},\"rate_hz\":{:.1},\"side\":{},\"codec\":\"{}\"}}"
            ),
            id,
            self.jobs_per_s,
            self.p50_ms,
            self.p99_ms,
            self.shed_rate,
            self.jobs,
            self.ok,
            self.shed,
            self.deadline,
            self.failed,
            self.transport_errors,
            config.clients,
            config.rate_hz,
            config.side,
            config.codec,
        )
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        format!(
            "jobs {} · ok {} · shed {} · deadline {} · draining {} · failed {} · transport {}\n\
             throughput {:.1} jobs/s · latency p50 {:.1} ms · p99 {:.1} ms · max {:.1} ms · \
             shed rate {:.1}%",
            self.jobs,
            self.ok,
            self.shed,
            self.deadline,
            self.draining,
            self.failed,
            self.transport_errors,
            self.jobs_per_s,
            self.p50_ms,
            self.p99_ms,
            self.max_ms,
            self.shed_rate * 100.0,
        )
    }
}

/// The scenario fields one client cycles through: a smooth (highly
/// compressible) and a turbulent (hard) regime, so the job mix spans the
/// search-difficulty range.
pub fn workload_fields(side: usize, seed: u64) -> Vec<Dataset> {
    [Regime::Smooth, Regime::Turbulence]
        .into_iter()
        .enumerate()
        .map(|(i, regime)| {
            let dims = Dims::d2(side, side);
            synthetic::generate(regime.name(), &dims, DType::F32, seed + i as u64, 0)
                .expect("a regime is a generator name")
        })
        .collect()
}

struct Tally {
    report: LoadgenReport,
    latencies_ms: Vec<f64>,
}

fn classify(tally: &mut Tally, response: &Response, latency: Duration) {
    let serviced = matches!(
        response,
        Response::Compressed { .. } | Response::Tuned { .. } | Response::DeadlineExceeded { .. }
    );
    if serviced {
        tally.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }
    match response {
        Response::Compressed { .. } | Response::Tuned { .. } => tally.report.ok += 1,
        Response::Overloaded { .. } => tally.report.shed += 1,
        Response::DeadlineExceeded { .. } => tally.report.deadline += 1,
        Response::Draining => tally.report.draining += 1,
        _ => tally.report.failed += 1,
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Run one load generation pass.  Connection failures at startup are
/// errors; mid-run transport failures are tallied and the client
/// reconnects.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let shared = Mutex::new(Tally {
        report: LoadgenReport::default(),
        latencies_ms: Vec::new(),
    });
    let start = Instant::now();
    let per_client_rate = if config.rate_hz > 0.0 {
        config.rate_hz / config.clients.max(1) as f64
    } else {
        0.0
    };

    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut joins = Vec::new();
        for client_index in 0..config.clients {
            let shared = &shared;
            let fields = workload_fields(config.side, config.seed + 100 + client_index as u64);
            joins.push(scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed + client_index as u64);
                let mut client = match Client::connect(&config.addr) {
                    Ok(client) => client,
                    Err(_) => return,
                };
                let mut tally = Tally {
                    report: LoadgenReport::default(),
                    latencies_ms: Vec::new(),
                };
                let mut next_arrival = Instant::now();
                while start.elapsed() < config.duration {
                    if per_client_rate > 0.0 {
                        // Exponential inter-arrival: the open-loop
                        // schedule advances regardless of reply pacing.
                        let u: f64 = rng.gen_range(0.0..1.0);
                        let dt = -(1.0 - u).ln() / per_client_rate;
                        next_arrival += Duration::from_secs_f64(dt);
                        let now = Instant::now();
                        if next_arrival > now {
                            std::thread::sleep(next_arrival - now);
                        }
                    }
                    if start.elapsed() >= config.duration {
                        break;
                    }
                    let dataset = &fields[tally.report.jobs as usize % fields.len()];
                    let is_psnr = rng.gen_bool(config.psnr_fraction.clamp(0.0, 1.0));
                    tally.report.jobs += 1;
                    let sent = Instant::now();
                    let result = if is_psnr {
                        client.tune_psnr(
                            &config.codec,
                            dataset,
                            config.target_psnr,
                            config.deadline_ms,
                        )
                    } else {
                        client.compress(
                            &config.codec,
                            dataset,
                            config.target_ratio,
                            config.tolerance,
                            config.deadline_ms,
                        )
                    };
                    match result {
                        Ok(response) => classify(&mut tally, &response, sent.elapsed()),
                        Err(_) => {
                            tally.report.transport_errors += 1;
                            // One reconnect attempt keeps the thread
                            // useful after an injected disconnect.
                            match Client::connect(&config.addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                }
                let mut shared = shared.lock().unwrap_or_else(|p| p.into_inner());
                shared.report.jobs += tally.report.jobs;
                shared.report.ok += tally.report.ok;
                shared.report.shed += tally.report.shed;
                shared.report.deadline += tally.report.deadline;
                shared.report.draining += tally.report.draining;
                shared.report.failed += tally.report.failed;
                shared.report.transport_errors += tally.report.transport_errors;
                shared.latencies_ms.extend(tally.latencies_ms);
            }));
        }
        for join in joins {
            let _ = join.join();
        }
        Ok(())
    })?;

    let elapsed = start.elapsed();
    let mut tally = shared.into_inner().unwrap_or_else(|p| p.into_inner());
    tally
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut report = tally.report;
    report.elapsed_s = elapsed.as_secs_f64();
    report.jobs_per_s = report.ok as f64 / elapsed.as_secs_f64().max(1e-9);
    report.p50_ms = percentile(&tally.latencies_ms, 0.50);
    report.p99_ms = percentile(&tally.latencies_ms, 0.99);
    report.max_ms = tally.latencies_ms.last().copied().unwrap_or(0.0);
    report.shed_rate = if report.jobs > 0 {
        report.shed as f64 / report.jobs as f64
    } else {
        0.0
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sane_ranks() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.5), 51.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn jsonl_row_parses_as_json() {
        let report = LoadgenReport {
            jobs: 10,
            ok: 8,
            shed: 2,
            jobs_per_s: 3.5,
            p50_ms: 12.0,
            p99_ms: 40.0,
            shed_rate: 0.2,
            ..LoadgenReport::default()
        };
        let row = report.jsonl_row("loadgen", &LoadgenConfig::default());
        let value: serde_json::Value = serde_json::from_str(&row).unwrap();
        assert_eq!(value.get("group").and_then(|v| v.as_str()), Some("service"));
        assert_eq!(value.get("ok").and_then(|v| v.as_f64()), Some(8.0));
        assert!(value.get("jobs_per_s").and_then(|v| v.as_f64()).unwrap() > 3.0);
    }

    #[test]
    fn workload_fields_are_deterministic_and_sized() {
        let a = workload_fields(32, 7);
        let b = workload_fields(32, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|d| d.len() == 32 * 32));
    }
}

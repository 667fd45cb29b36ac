//! `fraz-loadgen` — drive a fraz-serve instance with open-loop load.
//!
//! Without `--addr` it self-hosts a server on a loopback port (the CI
//! smoke path: one command, no orchestration), optionally with `--chaos`
//! store-fault injection; with `--addr` it targets an external server.
//! The aggregated report prints human-readably on stdout and, with
//! `--out`, appends a `{"group":"service",...}` JSONL row.  Nothing gates
//! on that row: service throughput and latency are measured by the
//! `service_mix` workload of the benchmark in `bench/`.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use fraz_serve::loadgen::{self, LoadgenConfig};
use fraz_serve::server::{self, ServeConfig};
use fraz_store::FaultConfig;

const USAGE: &str = "fraz-loadgen — open-loop load generation for fraz-serve

USAGE:
    fraz-loadgen [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>    target an external server (default: self-host one)
    --clients <N>         concurrent connections (default 4)
    --rate <HZ>           total arrival rate, jobs/s (default 0 = closed loop)
    --duration-ms <MS>    issuing window (default 3000)
    --psnr-frac <F>       fraction of jobs that are PSNR tunes (default 0.25)
    --target-ratio <R>    fixed-ratio target (default 8.0)
    --target-psnr <DB>    fixed-PSNR target (default 50.0)
    --deadline-ms <MS>    per-job deadline, 0 = none (default 0)
    --side <N>            square field edge length (default 64)
    --codec <NAME>        registry backend (default sz)
    --seed <N>            arrival/mix seed (default 20200118)
    --id <NAME>           JSONL row id (default loadgen)
    --out <PATH>          append the JSONL row to this file
    --chaos <RATE>        self-hosted only: inject transient store faults
    --max-inflight <N>    self-hosted only: admission job budget
    --workers <N>         self-hosted only: search pool threads";

fn parse() -> Result<
    (
        LoadgenConfig,
        Option<String>,
        Option<String>,
        String,
        f64,
        usize,
        usize,
    ),
    String,
> {
    let mut config = LoadgenConfig::default();
    let mut addr = None;
    let mut out = None;
    let mut id = "loadgen".to_string();
    let mut chaos = 0.0;
    let mut max_inflight = 0usize;
    let mut workers = 0usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--clients" => config.clients = parse_num(&value("--clients")?, "--clients")?,
            "--rate" => config.rate_hz = parse_num(&value("--rate")?, "--rate")?,
            "--duration-ms" => {
                let ms: u64 = parse_num(&value("--duration-ms")?, "--duration-ms")?;
                config.duration = Duration::from_millis(ms);
            }
            "--psnr-frac" => {
                config.psnr_fraction = parse_num(&value("--psnr-frac")?, "--psnr-frac")?
            }
            "--target-ratio" => {
                config.target_ratio = parse_num(&value("--target-ratio")?, "--target-ratio")?
            }
            "--target-psnr" => {
                config.target_psnr = parse_num(&value("--target-psnr")?, "--target-psnr")?
            }
            "--deadline-ms" => {
                config.deadline_ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")?
            }
            "--side" => config.side = parse_num(&value("--side")?, "--side")?,
            "--codec" => config.codec = value("--codec")?,
            "--seed" => config.seed = parse_num(&value("--seed")?, "--seed")?,
            "--id" => id = value("--id")?,
            "--out" => out = Some(value("--out")?),
            "--chaos" => chaos = parse_num(&value("--chaos")?, "--chaos")?,
            "--max-inflight" => {
                max_inflight = parse_num(&value("--max-inflight")?, "--max-inflight")?
            }
            "--workers" => workers = parse_num(&value("--workers")?, "--workers")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((config, addr, out, id, chaos, max_inflight, workers))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn main() -> ExitCode {
    let (mut config, addr, out, id, chaos, max_inflight, workers) = match parse() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("fraz-loadgen: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Self-host unless an external target was named.
    let server = if let Some(addr) = addr {
        config.addr = addr;
        None
    } else {
        let mut serve = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        if chaos > 0.0 {
            serve.store_faults = Some(FaultConfig::transient(chaos, config.seed));
        }
        if max_inflight > 0 {
            serve.admission.max_jobs = max_inflight;
        }
        let handle = match server::start(serve) {
            Ok(handle) => handle,
            Err(e) => {
                eprintln!("fraz-loadgen: cannot start a server: {e}");
                return ExitCode::from(1);
            }
        };
        config.addr = handle.local_addr().to_string();
        eprintln!("fraz-loadgen: self-hosted server on {}", config.addr);
        Some(handle)
    };

    let report = match loadgen::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fraz-loadgen: {e}");
            return ExitCode::from(1);
        }
    };

    if let Some(handle) = server {
        let drain = handle.join();
        eprintln!(
            "fraz-loadgen: server drained in {:.0} ms ({} cancelled)",
            drain.drain_elapsed.as_secs_f64() * 1e3,
            drain.cancelled_jobs
        );
    }

    println!("{}", report.render());
    let row = report.jsonl_row(&id, &config);
    println!("{row}");
    if let Some(out) = out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .and_then(|mut f| writeln!(f, "{row}"));
        if let Err(e) = appended {
            eprintln!("fraz-loadgen: cannot write `{out}`: {e}");
            return ExitCode::from(1);
        }
    }

    if report.ok == 0 {
        eprintln!("fraz-loadgen: no job completed successfully");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

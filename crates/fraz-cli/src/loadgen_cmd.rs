//! The `fraz loadgen` subcommand: drive a `fraz serve` instance with
//! open-loop load.
//!
//! Without `--addr` it self-hosts a server on a loopback port (the CI smoke
//! path: one command, no orchestration), configured by the same
//! `--workers/--max-inflight/--chaos` flags as `fraz serve`, with `--chaos`
//! store faults seeded from `--seed`; with `--addr` it targets an external
//! server.  The aggregated report prints human-readably on stdout,
//! followed by its `{"group":"service",...}` JSONL row, which `--out` also
//! appends to a file.  Nothing gates on that row: service throughput and
//! latency are measured by the `service_mix` workload of the benchmark in
//! `bench/`.

use std::time::Duration;

use fraz_serve::loadgen::{self, LoadgenConfig};
use fraz_serve::server;

use crate::args::{Command, Failure};
use crate::report::append_jsonl;
use crate::serve_cmd::serve_config;

const USAGE: &str = "fraz loadgen — open-loop load generation for fraz serve

USAGE:
    fraz loadgen [OPTIONS]

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

static LOADGEN: Command = Command {
    name: "fraz loadgen",
    usage: USAGE,
    flags: &[
        ("--addr", None, true),
        ("--clients", None, true),
        ("--rate", None, true),
        ("--duration-ms", None, true),
        ("--psnr-frac", None, true),
        ("--target-ratio", None, true),
        ("--target-psnr", None, true),
        ("--deadline-ms", None, true),
        ("--side", None, true),
        ("--codec", None, true),
        ("--seed", None, true),
        ("--id", None, true),
        ("--out", None, true),
        ("--chaos", None, true),
        ("--max-inflight", None, true),
        ("--workers", None, true),
    ],
};

/// Entry point for `fraz loadgen`.
pub(crate) fn loadgen(args: &[String]) -> Result<u8, Failure> {
    let args = LOADGEN.parse(args)?;
    let mut config = LoadgenConfig::default();
    args.set("--clients", &mut config.clients)?;
    args.set("--rate", &mut config.rate_hz)?;
    if let Some(ms) = args.num("--duration-ms")? {
        config.duration = Duration::from_millis(ms);
    }
    args.set("--psnr-frac", &mut config.psnr_fraction)?;
    args.set("--target-ratio", &mut config.target_ratio)?;
    args.set("--target-psnr", &mut config.target_psnr)?;
    args.set("--deadline-ms", &mut config.deadline_ms)?;
    args.set("--side", &mut config.side)?;
    args.set("--codec", &mut config.codec)?;
    args.set("--seed", &mut config.seed)?;
    let serve = serve_config(&args, config.seed)?;

    // Self-host unless an external target was named.
    let server = match args.value("--addr") {
        Some(addr) => {
            config.addr = addr.to_string();
            None
        }
        None => {
            let handle = server::start(serve).map_err(|e| format!("cannot start a server: {e}"))?;
            config.addr = handle.local_addr().to_string();
            eprintln!("fraz loadgen: self-hosted server on {}", config.addr);
            Some(handle)
        }
    };

    let report = loadgen::run(&config)?;
    if let Some(handle) = server {
        let drain = handle.join();
        eprintln!(
            "fraz loadgen: server drained in {:.0} ms ({} cancelled)",
            drain.drain_elapsed.as_secs_f64() * 1e3,
            drain.cancelled_jobs
        );
    }

    println!("{}", report.render());
    let row = report.jsonl_row(args.value("--id").unwrap_or("loadgen"), &config);
    println!("{row}");
    if let Some(out) = args.path("--out") {
        append_jsonl(&out, &[row])?;
    }
    if report.ok == 0 {
        return Err(Failure::Run("no job completed successfully".into()));
    }
    Ok(0)
}

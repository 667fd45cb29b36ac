//! The `fraz serve` subcommand: run the compression service until a
//! termination signal, then drain gracefully.
//!
//! The process prints one `listening on <addr>` line (so wrappers and the
//! drain integration test can discover the bound port), serves until
//! SIGTERM/SIGINT, and then runs the full drain sequence — stop admitting,
//! finish in-flight jobs under the drain deadline, cancel stragglers,
//! flush the tune cache — before exiting.  Exit code `0` means the drain
//! completed inside its deadline with a clean cache flush; `1` means the
//! service had to cancel work or could not flush.

use std::io::Write;
use std::time::Duration;

use fraz_serve::server::{start, ServeConfig};
use fraz_store::FaultConfig;

use crate::args::{Args, Command, Failure};

const USAGE: &str = "fraz serve — run the compression service until SIGTERM, then drain

USAGE:
    fraz serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>         bind address (default 127.0.0.1:0 = free port)
    --workers <N>              search pool threads (default: cores, capped at 8)
    --store-dir <DIR>          durable object store root (default: in-memory)
    --tune-cache <DIR>         persistent tuning cache (default: cold searches)
    --max-inflight <N>         admission job budget (default 64)
    --deadline-ms <MS>         default per-job deadline, 0 = none (default 0)
    --drain-deadline-ms <MS>   drain window before cancelling jobs (default 5000)
    --chaos <RATE>             inject transient store faults (testing)

On SIGTERM or SIGINT the service stops accepting, drains in-flight jobs,
flushes the tune cache, prints a drain report, and exits.";

/// Signal plumbing without a libc dependency: the C `signal` entry point
/// is declared by hand and the handler just flips an atomic the main loop
/// polls.  Anything fancier (channels, allocation) is not async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal(2)` gets valid signal numbers and a handler that
        // lives for the whole program and only performs an atomic store,
        // which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn requested() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false // no signals: serve until the process is killed
    }
}

static SERVE: Command = Command {
    name: "fraz serve",
    usage: USAGE,
    flags: &[
        ("--addr", None, true),
        ("--workers", None, true),
        ("--store-dir", None, true),
        ("--tune-cache", None, true),
        ("--max-inflight", None, true),
        ("--deadline-ms", None, true),
        ("--drain-deadline-ms", None, true),
        ("--chaos", None, true),
    ],
};

/// The self-hosted server's `--workers`, `--max-inflight` and `--chaos`,
/// read the same way by `fraz serve` and `fraz loadgen`; `--chaos` store
/// faults draw from `chaos_seed`.
pub(crate) fn serve_config(args: &Args, chaos_seed: u64) -> Result<ServeConfig, Failure> {
    let mut config = ServeConfig::default();
    args.set("--workers", &mut config.workers)?;
    if let Some(max_jobs) = args.num("--max-inflight")? {
        // A zero budget would shed every job.
        if max_jobs == 0 {
            return Err(args.usage("--max-inflight must be at least 1"));
        }
        config.admission.max_jobs = max_jobs;
    }
    config.store_faults = args
        .num("--chaos")?
        .map(|rate| FaultConfig::transient(rate, chaos_seed));
    Ok(config)
}

/// Entry point for `fraz serve`.
pub(crate) fn serve(args: &[String]) -> Result<u8, Failure> {
    let args = SERVE.parse(args)?;
    let mut config = serve_config(&args, 20200118)?;
    args.set("--addr", &mut config.addr)?;
    config.store_dir = args.path("--store-dir");
    config.tune_cache_dir = args.path("--tune-cache");
    args.set("--deadline-ms", &mut config.default_deadline_ms)?;
    if let Some(ms) = args.num("--drain-deadline-ms")? {
        config.drain_deadline = Duration::from_millis(ms);
    }

    sig::install();
    let handle = start(config).map_err(|e| format!("cannot start: {e}"))?;
    // The discovery line wrappers parse; flushed so a piped reader sees it
    // before the first job arrives.
    println!("fraz serve: listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();

    while !sig::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("fraz serve: signal received, draining");
    let report = handle.join();
    println!(
        "fraz serve: drained in {:.0} ms ({}, {} cancelled, tune cache {})",
        report.drain_elapsed.as_secs_f64() * 1e3,
        if report.drained_within_deadline {
            "within deadline"
        } else {
            "deadline overrun"
        },
        report.cancelled_jobs,
        if report.tune_cache_flushed {
            "flushed"
        } else {
            "flush FAILED"
        },
    );
    println!(
        "fraz serve: jobs ok {} · shed {} · deadline {} · rejected {} · failed {}",
        report.status.jobs_ok,
        report.status.jobs_shed,
        report.status.jobs_deadline,
        report.status.jobs_rejected,
        report.status.jobs_failed,
    );
    let clean = report.drained_within_deadline && report.tune_cache_flushed;
    Ok(u8::from(!clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_config_of(list: &[&str]) -> Result<ServeConfig, Failure> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        serve_config(&SERVE.parse(&args)?, 7)
    }

    #[test]
    fn a_zero_job_budget_is_a_usage_error() {
        let refused = serve_config_of(&["--max-inflight", "0"]).unwrap_err();
        assert!(
            matches!(&refused, Failure::Usage(_, msg) if msg.contains("--max-inflight")),
            "{refused:?}"
        );
        let config = serve_config_of(&["--max-inflight", "3", "--workers", "2"]).unwrap();
        assert_eq!((config.admission.max_jobs, config.workers), (3, 2));
        assert!(config.store_faults.is_none());
        let chaos = serve_config_of(&["--chaos", "0.2"]).unwrap().store_faults;
        assert_eq!(chaos, Some(FaultConfig::transient(0.2, 7)));
    }
}

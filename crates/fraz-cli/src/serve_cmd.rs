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
use std::path::PathBuf;
use std::time::Duration;

use fraz_serve::server::{start, ServeConfig};
use fraz_store::FaultConfig;

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

struct ServeArgs {
    config: ServeConfig,
}

fn parse(args: &[String]) -> Result<ServeArgs, String> {
    let mut config = ServeConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value_of("--addr")?,
            "--workers" => config.workers = parse_num(&value_of("--workers")?, "--workers")?,
            "--store-dir" => {
                config.store_dir = Some(PathBuf::from(value_of("--store-dir")?));
            }
            "--tune-cache" => {
                config.tune_cache_dir = Some(PathBuf::from(value_of("--tune-cache")?));
            }
            "--max-inflight" => {
                config.admission.max_jobs =
                    parse_num(&value_of("--max-inflight")?, "--max-inflight")?;
            }
            "--deadline-ms" => {
                config.default_deadline_ms =
                    parse_num(&value_of("--deadline-ms")?, "--deadline-ms")?;
            }
            "--drain-deadline-ms" => {
                let ms: u64 = parse_num(&value_of("--drain-deadline-ms")?, "--drain-deadline-ms")?;
                config.drain_deadline = Duration::from_millis(ms);
            }
            "--chaos" => {
                let rate: f64 = parse_num(&value_of("--chaos")?, "--chaos")?;
                config.store_faults = Some(FaultConfig::transient(rate, 20200118));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(String::new()); // handled: caller exits 0 via code below
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(ServeArgs { config })
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// Entry point for `fraz serve`; returns the process exit code.
pub fn run_serve(args: &[String]) -> u8 {
    let parsed = match parse(args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => return 0, // --help
        Err(msg) => {
            eprintln!("fraz serve: {msg}\n\n{USAGE}");
            return 2;
        }
    };

    sig::install();
    let handle = match start(parsed.config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("fraz serve: cannot start: {e}");
            return 1;
        }
    };
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
    if report.drained_within_deadline && report.tune_cache_flushed {
        0
    } else {
        1
    }
}

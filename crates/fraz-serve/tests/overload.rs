//! Overload suite: admission control under 2× saturation.
//!
//! A server with a deliberately tiny job budget is hammered by several
//! times that many concurrent clients.  The contract under overload:
//!
//! * excess jobs are shed with a typed `Overloaded{retry_after}` — never
//!   queued without bound, never silently dropped,
//! * the in-flight high-water mark never exceeds the configured budget
//!   (this *is* the bounded-queue-memory assertion: queued payload is
//!   capped by `max_jobs × frame size`),
//! * clients that honour the retry hint eventually get served,
//! * the server stays responsive — status during the storm, clean jobs
//!   after it, and a mid-load drain that completes within its deadline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use fraz_serve::admission::AdmissionConfig;
use fraz_serve::loadgen::workload_fields;
use fraz_serve::proto::Response;
use fraz_serve::server::{start, ServeConfig, ServerHandle};
use fraz_serve::Client;

const MAX_JOBS: usize = 2;
const RETRY_AFTER_MS: u64 = 30;

fn tiny_server() -> ServerHandle {
    start(ServeConfig {
        workers: 2,
        admission: AdmissionConfig {
            max_jobs: MAX_JOBS,
            max_bytes: 64 << 20,
            retry_after: Duration::from_millis(RETRY_AFTER_MS),
        },
        ..ServeConfig::default()
    })
    .expect("server starts")
}

#[test]
fn saturation_sheds_typed_and_bounds_the_queue() {
    let handle = tiny_server();
    let addr = handle.local_addr().to_string();

    const CLIENTS: usize = 8; // 4× the job budget
    let served = AtomicU64::new(0);
    let shed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = &addr;
            let served = &served;
            let shed = &shed;
            scope.spawn(move || {
                let fields = workload_fields(32, 700 + c as u64);
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_reply_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for j in 0..6usize {
                    let reply = client
                        .compress("sz", &fields[j % fields.len()], 6.0, 0.5, 0)
                        .expect("typed reply");
                    match reply {
                        Response::Compressed { .. } => {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::Overloaded { retry_after_ms } => {
                            assert_eq!(
                                retry_after_ms as u64, RETRY_AFTER_MS,
                                "shed replies must carry the configured hint"
                            );
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("storm job answered {:?}", other.kind()),
                    }
                }
            });
        }
        // Mid-storm, status must still answer (it bypasses admission).
        std::thread::sleep(Duration::from_millis(50));
        let mut probe = Client::connect(&addr).expect("connect during storm");
        probe
            .set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        match probe.status().expect("status during storm") {
            Response::Status(_) => {}
            other => panic!("mid-storm status answered {:?}", other.kind()),
        }
    });

    // Exactly one outcome per issued job, with real shedding.
    assert_eq!(
        served.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
        (CLIENTS * 6) as u64
    );
    assert!(shed.load(Ordering::Relaxed) > 0, "4x overload must shed");
    assert!(
        served.load(Ordering::Relaxed) > 0,
        "overload must not starve"
    );

    // The bounded-queue guarantee: concurrency never exceeded the budget.
    assert!(
        handle.peak_jobs() <= MAX_JOBS,
        "peak {} jobs exceeded the budget of {MAX_JOBS}",
        handle.peak_jobs()
    );
    assert_eq!(handle.status().jobs_shed, shed.load(Ordering::Relaxed));

    // After the storm the server serves a clean job promptly.
    let fields = workload_fields(32, 3);
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client
        .compress("sz", &fields[0], 6.0, 0.5, 0)
        .expect("typed reply")
    {
        Response::Compressed { .. } => {}
        other => panic!("post-storm compress answered {:?}", other.kind()),
    }
    handle.join();
}

#[test]
fn clients_that_honour_the_retry_hint_all_get_served() {
    let handle = tiny_server();
    let addr = handle.local_addr().to_string();

    const CLIENTS: usize = 6;
    let retried = AtomicU64::new(0);
    // The collision is structural, not a matter of scheduling: every client
    // is connected and holds its field before any sends (the barrier), and
    // one 256×256 job — a cold search, sampled seed and walk — outlasts the
    // release of six threads many times over, so the first two admitted
    // still hold the whole budget when the other four arrive.
    let start = Barrier::new(CLIENTS);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = &addr;
            let retried = &retried;
            let start = &start;
            scope.spawn(move || {
                let fields = workload_fields(256, 800 + c as u64);
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_reply_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                start.wait();
                // Retry-with-backoff: exactly what the typed hint is for.
                for attempt in 0..200usize {
                    match client
                        .compress("sz", &fields[0], 6.0, 0.5, 0)
                        .expect("typed reply")
                    {
                        Response::Compressed { .. } => return,
                        Response::Overloaded { retry_after_ms } => {
                            retried.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
                        }
                        other => panic!("retry job answered {:?}", other.kind()),
                    }
                    assert!(attempt < 199, "client never got served");
                }
            });
        }
    });

    assert!(
        retried.load(Ordering::Relaxed) > 0,
        "6 clients against a budget of {MAX_JOBS} must collide"
    );
    assert_eq!(handle.status().jobs_ok, CLIENTS as u64);
    handle.join();
}

#[test]
fn byte_budget_sheds_jobs_larger_than_the_window() {
    let handle = start(ServeConfig {
        workers: 1,
        admission: AdmissionConfig {
            max_jobs: 8,
            max_bytes: 1024, // smaller than any compress payload below
            retry_after: Duration::from_millis(10),
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    let fields = workload_fields(32, 4); // 32*32*4 B payloads ≫ 1 KiB
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client
        .compress("sz", &fields[0], 6.0, 0.5, 0)
        .expect("typed reply")
    {
        Response::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 10),
        other => panic!("oversized job answered {:?}", other.kind()),
    }
    // Status still answers: the byte budget protects memory, not liveness.
    match client.status().expect("typed reply") {
        Response::Status(status) => assert_eq!(status.jobs_shed, 1),
        other => panic!("status answered {:?}", other.kind()),
    }
    handle.join();
}

#[test]
fn drain_under_load_completes_within_its_deadline() {
    let handle = start(ServeConfig {
        workers: 2,
        drain_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    let draining_seen = AtomicU64::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        for c in 0..3u64 {
            let addr = &addr;
            let draining_seen = &draining_seen;
            let stop = &stop;
            scope.spawn(move || {
                let fields = workload_fields(32, 900 + c);
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_reply_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for j in 0..200usize {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match client.compress("sz", &fields[j % fields.len()], 6.0, 0.5, 0) {
                        Ok(Response::Draining) => {
                            draining_seen.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Ok(_) => {}
                        // A drained server closing the line is equally
                        // clean from where the client stands.
                        Err(_) => return,
                    }
                }
            });
        }

        // Let the load establish, then drain out from under it.
        std::thread::sleep(Duration::from_millis(250));
        let report = handle.join();
        stop.store(true, Ordering::Relaxed);

        assert!(
            report.drained_within_deadline,
            "in-flight jobs must finish inside the drain window"
        );
        assert!(report.drain_elapsed < Duration::from_secs(10));
        assert!(report.status.draining);
        assert!(
            report.status.jobs_ok > 0,
            "jobs issued before the drain must have completed"
        );
        assert_eq!(report.status.inflight_jobs, 0, "nothing left in flight");
    });
    // Jobs that raced the drain saw a typed Draining reply or a clean
    // close; either way no client hung (the scope exiting proves it).
}

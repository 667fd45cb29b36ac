//! Graceful-drain acceptance test against the *real* `fraz serve` binary:
//! spawn the process, put it under load, send SIGTERM mid-flight, and
//! assert it drains within its deadline, flushes the tune cache, and
//! exits 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fraz_data::{synthetic, DType, Dims};
use fraz_serve::proto::Response;
use fraz_serve::Client;

struct ServeProcess {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_serve(extra: &[&str]) -> ServeProcess {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("fraz serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("discovery line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("line ends with the address")
        .to_string();
    assert!(
        line.contains("listening on") && addr.contains(':'),
        "unexpected discovery line: {line:?}"
    );
    ServeProcess {
        child,
        addr,
        stdout,
    }
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
}

fn wait_with_timeout(mut child: Child, timeout: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > timeout {
            let _ = child.kill();
            panic!("fraz serve did not exit within {timeout:?} after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigterm_mid_load_drains_flushes_and_exits_zero() {
    let cache_dir = std::env::temp_dir().join(format!("fraz-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).unwrap();

    let mut serve = spawn_serve(&["--tune-cache", cache_dir.to_str().unwrap()]);

    // Put the server under real load: compress jobs whose searched bounds
    // populate the tune cache.
    let dataset = synthetic::generate("smooth", &Dims::d2(32, 32), DType::F32, 11, 0).unwrap();
    let mut client = Client::connect(&serve.addr).expect("connect to the spawned server");
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..3 {
        match client
            .compress("sz", &dataset, 6.0, 0.5, 0)
            .expect("typed reply")
        {
            Response::Compressed { .. } => {}
            other => panic!("warm-up compress answered {:?}", other.kind()),
        }
    }

    // Fire one more job and signal while it is (plausibly) in flight.
    let job = std::thread::spawn({
        let addr = serve.addr.clone();
        let dataset = dataset.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client
                .set_reply_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            // Whatever the race: a typed reply or a clean close, no hang.
            let _ = client.compress("sz", &dataset, 6.0, 0.5, 0);
        }
    });
    sigterm(&serve.child);
    job.join()
        .expect("in-flight client neither hangs nor panics");

    let status = wait_with_timeout(serve.child, Duration::from_secs(30));
    let mut rest = String::new();
    serve
        .stdout
        .read_to_string(&mut rest)
        .expect("drain report");
    assert!(status.success(), "exit {status:?}; drain output:\n{rest}");
    assert!(
        rest.contains("drained in") && rest.contains("within deadline"),
        "missing drain report: {rest:?}"
    );
    assert!(
        rest.contains("tune cache flushed"),
        "missing flush confirmation: {rest:?}"
    );

    // The flush is real: the cache file exists and carries the warm-up
    // searches' bounds.
    let cache_file = cache_dir.join(fraz_tune::CACHE_FILE);
    let contents = std::fs::read_to_string(&cache_file)
        .unwrap_or_else(|e| panic!("flushed cache missing at {}: {e}", cache_file.display()));
    assert!(
        !contents.trim().is_empty(),
        "flushed cache must carry the warmed bounds"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn sigterm_on_an_idle_server_exits_zero_promptly() {
    let serve = spawn_serve(&[]);
    let started = Instant::now();
    sigterm(&serve.child);
    let status = wait_with_timeout(serve.child, Duration::from_secs(15));
    assert!(status.success(), "idle drain must exit 0, got {status:?}");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "idle drain must be prompt"
    );
}

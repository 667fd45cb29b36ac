//! What a drain reports as cancelled: the search jobs its deadline stopped,
//! and nothing else.
//!
//! Every search job's token is a child of the server's drain token, so the
//! drain cancels stragglers by firing one token, and `cancelled_jobs` counts
//! the jobs that answered `DeadlineExceeded` after it fired.  A job that
//! ended any other way — a panic answered `Internal`, say — is not among
//! them.

use std::time::{Duration, Instant};

use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_pressio::{
    registry, BoundKind, CodecDescriptor, Compressor, DimRange, Options, PressioError,
};
use fraz_serve::proto::Response;
use fraz_serve::server::{start, ServeConfig};
use fraz_serve::Client;

/// `sz`, except that `compress` panics (`panics`) or first sleeps
/// `delay`.
struct Wrapped {
    name: &'static str,
    inner: Box<dyn Compressor>,
    panics: bool,
    delay: Duration,
}

impl Compressor for Wrapped {
    fn name(&self) -> &str {
        self.name
    }
    fn bound_kind(&self) -> BoundKind {
        self.inner.bound_kind()
    }
    fn supports_dims(&self, dims: &Dims) -> bool {
        self.inner.supports_dims(dims)
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        self.inner.bound_range(dataset)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        assert!(!self.panics, "the codec panics by design");
        std::thread::sleep(self.delay);
        self.inner.compress(dataset, error_bound)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        self.inner.decompress(data)
    }
}

fn register(name: &'static str, panics: bool, delay: Duration) {
    registry::register(
        CodecDescriptor::new(name, BoundKind::AbsoluteError).with_dims(DimRange::new(1, 4)),
        move |_| {
            Ok(Box::new(Wrapped {
                name,
                inner: registry::build("sz", &Options::new()).expect("sz is built in"),
                panics,
                delay,
            }))
        },
    )
    .expect("first registration of this name");
}

fn field() -> Dataset {
    synthetic::generate("smooth", &Dims::d2(32, 32), DType::F32, 3, 0).unwrap()
}

#[test]
fn a_job_that_panicked_is_not_counted_as_drain_cancelled() {
    register("panicking-sz", true, Duration::ZERO);
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&handle.local_addr().to_string()).expect("connect");
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client.compress("panicking-sz", &field(), 6.0, 0.2, 0) {
        Ok(Response::Internal { .. }) => {}
        other => panic!("a panicking codec answered {other:?}"),
    }
    drop(client);

    let report = handle.join();
    assert!(report.drained_within_deadline);
    assert_eq!(report.status.jobs_failed, 1);
    assert_eq!(report.cancelled_jobs, 0, "the drain cancelled no job");
}

#[test]
fn a_straggler_is_cancelled_at_the_drain_deadline() {
    register("slow-sz", false, Duration::from_millis(20));
    let handle = start(ServeConfig {
        workers: 1,
        drain_deadline: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let job = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect");
        client
            .set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Unreachable: the search would spend its whole budget, at 20 ms a
        // call, without the drain.
        client.compress("slow-sz", &field(), 1e6, 0.01, 0)
    });
    let admitted = Instant::now();
    while handle.status().inflight_jobs == 0 {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "the job was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let report = handle.join();
    assert!(!report.drained_within_deadline);
    assert_eq!(report.cancelled_jobs, 1);
    assert_eq!(report.status.jobs_deadline, 1);
    assert!(
        report.drain_elapsed < Duration::from_secs(5),
        "drained in {:?}",
        report.drain_elapsed
    );
    match job.join().expect("the client thread ends") {
        Ok(Response::DeadlineExceeded { evaluations, .. }) => assert!(evaluations >= 1),
        other => panic!("the straggler answered {other:?}"),
    }
}

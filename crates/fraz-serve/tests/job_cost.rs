//! What a job costs in codec calls: the service must not do work its reply
//! has no field for.
//!
//! A `Compress` reply carries `error_bound`, `ratio`, `feasible`,
//! `evaluations` and the blob — no quality report — so the search behind it
//! must not run the final decompress-and-measure pass, and the blob is the
//! stream the search measured at its answer, so nothing is compressed after
//! the search returns.  A counting codec registered next to the built-ins
//! pins the whole bill of a cache-warm job: one ratio evaluation (the
//! verified cache hint, whose stream is the reply's blob), zero compresses,
//! zero decompresses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_pressio::{
    registry, BoundKind, CodecDescriptor, CompressionOutcome, Compressor, DimRange, Options,
    PressioError,
};
use fraz_serve::proto::Response;
use fraz_serve::server::{start, ServeConfig};
use fraz_serve::Client;

#[derive(Default)]
struct Calls {
    /// The `measure_quality` flag of every `evaluate`, in call order.
    evaluates: Mutex<Vec<bool>>,
    compresses: AtomicUsize,
    decompresses: AtomicUsize,
}

/// `sz`, with every trait call counted.  A quality-measuring evaluation
/// decompresses inside the inner codec, so it is booked as a decompress too.
struct CountingSz {
    inner: Box<dyn Compressor>,
    calls: Arc<Calls>,
}

impl Compressor for CountingSz {
    fn name(&self) -> &str {
        "counting-sz"
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
        self.calls.compresses.fetch_add(1, Ordering::Relaxed);
        self.inner.compress(dataset, error_bound)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        self.calls.decompresses.fetch_add(1, Ordering::Relaxed);
        self.inner.decompress(data)
    }
    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        self.calls.evaluates.lock().unwrap().push(measure_quality);
        if measure_quality {
            self.calls.decompresses.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.evaluate(dataset, error_bound, measure_quality)
    }
}

#[test]
fn a_cache_warm_compress_job_is_one_codec_call() {
    let calls = Arc::new(Calls::default());
    let factory_calls = Arc::clone(&calls);
    registry::register(
        CodecDescriptor::new("counting-sz", BoundKind::AbsoluteError)
            .with_dims(DimRange::new(1, 4)),
        move |_| {
            Ok(Box::new(CountingSz {
                inner: registry::build("sz", &Options::new()).expect("sz is built in"),
                calls: Arc::clone(&factory_calls),
            }))
        },
    )
    .expect("first registration of this name");

    let root = std::env::temp_dir().join(format!("fraz-serve-job-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let handle = start(ServeConfig {
        workers: 1,
        tune_cache_dir: Some(root.join("tune")),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&handle.local_addr().to_string()).expect("connect");
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let dataset = synthetic::generate("smooth", &Dims::d2(32, 32), DType::F32, 3, 0).unwrap();
    let mut compress = || match client
        .compress("counting-sz", &dataset, 6.0, 0.2, 0)
        .expect("typed reply")
    {
        Response::Compressed {
            error_bound,
            feasible,
            evaluations,
            blob,
            ..
        } => {
            assert!(feasible, "6:1 on a smooth field is reachable");
            let direct = registry::build_default("sz").unwrap();
            assert_eq!(Ok(blob), direct.compress(&dataset, error_bound));
            evaluations
        }
        other => panic!("compress answered {:?}", other.kind()),
    };

    // Cold: a real search, whose converged bound lands in the tune cache.
    let cold_evaluations = compress();
    assert!(cold_evaluations >= 1);
    let cold = std::mem::take(&mut *calls.evaluates.lock().unwrap());
    assert_eq!(cold.len(), cold_evaluations as usize);
    assert!(cold.iter().all(|&measured| !measured), "{cold:?}");

    // Warm: the cached bound is verified by one ratio evaluation, and the
    // stream it measured is the reply's blob — the job's only codec call.
    assert_eq!(compress(), 1);
    assert_eq!(*calls.evaluates.lock().unwrap(), vec![false]);
    assert_eq!(calls.compresses.load(Ordering::Relaxed), 0);
    assert_eq!(calls.decompresses.load(Ordering::Relaxed), 0);

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

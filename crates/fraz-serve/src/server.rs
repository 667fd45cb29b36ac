//! The service: blocking TCP accept loop, per-connection reader threads,
//! and the robustness envelope around every job.
//!
//! A job's lifecycle is **admit → queue → search → reply** (see
//! ARCHITECTURE.md for the full map):
//!
//! 1. **admit** — the decoded request passes [`Admission`]: a global
//!    in-flight job and byte budget.  Over budget,
//!    the job is shed with a typed `Overloaded{retry_after}` before its
//!    payload touches any subsystem.  During drain, new work gets a typed
//!    `Draining` instead.
//! 2. **queue** — admitted search work runs on the shared
//!    [`fraz_pool::Pool`]; connection threads provide request
//!    concurrency, the pool provides compute parallelism.
//! 3. **search** — every search job carries a [`CancelToken`] armed with
//!    its deadline, a child of the server's drain token, checked
//!    cooperatively between compressor evaluations; a fired token returns
//!    `DeadlineExceeded` with the best-so-far bound.  Job panics are
//!    caught and answered with a typed `Internal` reply — the server
//!    outlives its jobs.
//! 4. **reply** — exactly one typed response per request frame, success
//!    or failure.
//!
//! Dependencies degrade instead of failing: the durable store sits under
//! a [`RetryStore`] (jittered backoff on transient errors) inside a
//! [`FallbackStore`] (in-memory once the backend permanently fails), and a broken
//! tune cache means cold searches, not errors.  Shutdown is a *drain*:
//! stop admitting, let in-flight jobs finish under the drain deadline,
//! cancel stragglers at the deadline, flush the tune cache, and report
//! what happened.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fraz_core::{
    answer_bytes, BoundPredictor, CancelToken, Objective, QualityMetric, QualitySearchConfig,
    Search, SearchConfig, SearchOutcome,
};
use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{registry, Compressor};
use fraz_store::{
    FallbackStore, FaultConfig, FaultyStore, FsStore, MemoryStore, RetryPolicy, RetryStore, Store,
    StoreError,
};
use fraz_tune::CachePredictor;

use crate::admission::{Admission, AdmissionConfig};
use crate::proto::{
    read_frame, write_frame, ProtoError, Request, Response, StatusBody, MAX_FRAME_LEN,
};

/// Everything the server needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Search pool threads (`0` = available parallelism, capped at 8).
    pub workers: usize,
    /// Admission budgets.
    pub admission: AdmissionConfig,
    /// Deadline applied to search jobs that carry none (`0` = unlimited).
    pub default_deadline_ms: u32,
    /// How long a drain may wait for in-flight jobs before cancelling
    /// them.
    pub drain_deadline: Duration,
    /// Durable store root (`None` = in-memory only).
    pub store_dir: Option<PathBuf>,
    /// Tune-cache directory (`None` = cold searches).
    pub tune_cache_dir: Option<PathBuf>,
    /// Retry policy over the durable store.
    pub retry: RetryPolicy,
    /// Optional chaos schedule injected under the retry layer (the
    /// `--chaos` flag and the chaos suites).
    pub store_faults: Option<FaultConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            admission: AdmissionConfig::default(),
            default_deadline_ms: 0,
            drain_deadline: Duration::from_secs(5),
            store_dir: None,
            tune_cache_dir: None,
            retry: RetryPolicy::default(),
            store_faults: None,
        }
    }
}

/// What the drain accomplished; returned by [`ServerHandle::join`].
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// All in-flight jobs finished before the drain deadline.
    pub drained_within_deadline: bool,
    /// Search jobs the drain cancelled: those that answered
    /// `DeadlineExceeded`, with best-so-far results, after the drain
    /// deadline fired every job's token.  Read once every connection thread
    /// has joined, so each such job has answered.
    pub cancelled_jobs: usize,
    /// How long the drain took.
    pub drain_elapsed: Duration,
    /// The tune cache flushed cleanly (vacuously true without a cache).
    pub tune_cache_flushed: bool,
    /// Final counters.
    pub status: StatusBody,
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    deadline: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    /// Search jobs that answered `DeadlineExceeded` once `stragglers` fired.
    drain_cancelled: AtomicU64,
}

/// The store stack: retry over the (possibly chaos-wrapped) durable
/// backend, degrading to an in-memory fallback when it fails permanently.
type StoreStack = FallbackStore<RetryStore<Box<dyn Store>>, MemoryStore>;

struct Inner {
    config: ServeConfig,
    pool: Arc<Pool>,
    admission: Arc<Admission>,
    store: StoreStack,
    tune: Option<Arc<CachePredictor>>,
    tune_degraded: AtomicBool,
    compressors: Mutex<HashMap<String, Arc<dyn Compressor>>>,
    counters: Counters,
    draining: AtomicBool,
    /// Every search job's token is a child of this one; the drain fires it
    /// at its deadline.
    stragglers: CancelToken,
}

impl Inner {
    fn stopping(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn status_body(&self) -> StatusBody {
        StatusBody {
            draining: self.stopping(),
            degraded: self.store.degraded_puts() > 0 || self.tune_degraded.load(Ordering::Relaxed),
            inflight_jobs: self.admission.inflight_jobs() as u32,
            inflight_bytes: self.admission.inflight_bytes(),
            jobs_ok: self.counters.ok.load(Ordering::Relaxed),
            jobs_shed: self.admission.shed(),
            jobs_deadline: self.counters.deadline.load(Ordering::Relaxed),
            jobs_rejected: self.counters.rejected.load(Ordering::Relaxed),
            jobs_failed: self.counters.failed.load(Ordering::Relaxed),
        }
    }

    fn compressor(&self, codec: &str) -> Result<Arc<dyn Compressor>, Response> {
        let mut cache = self.compressors.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(found) = cache.get(codec) {
            return Ok(Arc::clone(found));
        }
        match registry::build_arc(codec, &fraz_pressio::Options::new()) {
            Ok(built) => {
                cache.insert(codec.to_string(), Arc::clone(&built));
                Ok(built)
            }
            Err(e) => Err(Response::BadRequest {
                message: e.to_string(),
            }),
        }
    }

    /// Arm a token for one search job: the request deadline, else the
    /// configured default, else un-expiring — and always a child of
    /// `stragglers`, so the drain cancels it.
    fn job_token(&self, deadline_ms: u32) -> CancelToken {
        let ms = if deadline_ms > 0 {
            deadline_ms
        } else {
            self.config.default_deadline_ms
        };
        if ms > 0 {
            self.stragglers
                .child_with_timeout(Duration::from_millis(ms as u64))
        } else {
            self.stragglers.child()
        }
    }

    /// One request frame in, exactly one typed response out.
    fn handle_payload(&self, payload: &[u8]) -> Response {
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Response::BadRequest {
                    message: e.to_string(),
                };
            }
        };
        if matches!(request, Request::Status) {
            return Response::Status(self.status_body());
        }
        if self.stopping() {
            return Response::Draining;
        }
        let permit = match self.admission.try_admit(payload.len() as u64) {
            Ok(permit) => permit,
            Err(overload) => {
                return Response::Overloaded {
                    retry_after_ms: overload.retry_after.as_millis() as u32,
                }
            }
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(request)));
        drop(permit);
        let response = match outcome {
            Ok(response) => response,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                Response::Internal { message }
            }
        };
        match &response {
            Response::Compressed { .. }
            | Response::Dataset(_)
            | Response::Tuned { .. }
            | Response::Stored { .. }
            | Response::Blob(_) => self.counters.ok.fetch_add(1, Ordering::Relaxed),
            Response::DeadlineExceeded { .. } => {
                self.counters.deadline.fetch_add(1, Ordering::Relaxed)
            }
            Response::BadRequest { .. } => self.counters.rejected.fetch_add(1, Ordering::Relaxed),
            Response::IoFailed { .. } | Response::Internal { .. } => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed)
            }
            _ => 0,
        };
        response
    }

    fn execute(&self, request: Request) -> Response {
        match request {
            Request::Status => Response::Status(self.status_body()),
            Request::Compress {
                deadline_ms,
                target_ratio,
                tolerance,
                codec,
                dataset,
            } => self.run_search(
                &[("target ratio", target_ratio), ("tolerance", tolerance)],
                deadline_ms,
                &codec,
                &dataset,
                // The reply carries the ratio, not a quality report, so the
                // search skips the final decompress-and-measure pass.
                SearchConfig {
                    measure_final_quality: false,
                    ..SearchConfig::new(target_ratio, tolerance)
                },
                |outcome| outcome.best.compression_ratio,
                // The blob is the stream the search measured at its answer.
                |compressor, mut outcome, ratio| match answer_bytes(
                    compressor,
                    &dataset,
                    &mut outcome,
                ) {
                    Ok(blob) => Response::Compressed {
                        error_bound: outcome.error_bound,
                        ratio,
                        feasible: outcome.feasible,
                        evaluations: outcome.evaluations as u32,
                        blob,
                    },
                    Err(e) => Response::Internal {
                        message: format!("compression at the chosen bound failed: {e}"),
                    },
                },
            ),
            Request::TunePsnr {
                deadline_ms,
                target_psnr,
                codec,
                dataset,
            } => self.run_search(
                &[("target PSNR", target_psnr)],
                deadline_ms,
                &codec,
                &dataset,
                QualitySearchConfig::new(QualityMetric::PsnrAtLeast(target_psnr)),
                |outcome| outcome.best.quality.as_ref().map_or(f64::NAN, |q| q.psnr),
                |_, outcome, achieved_psnr| Response::Tuned {
                    error_bound: outcome.error_bound,
                    achieved_psnr,
                    satisfiable: outcome.feasible,
                    evaluations: outcome.evaluations as u32,
                },
            ),
            Request::Decompress { codec, blob } => {
                let compressor = match self.compressor(&codec) {
                    Ok(compressor) => compressor,
                    Err(response) => return response,
                };
                match compressor.decompress(&blob) {
                    Ok(dataset) => Response::Dataset(dataset),
                    Err(e) => Response::BadRequest {
                        message: format!("blob does not decompress: {e}"),
                    },
                }
            }
            Request::PutStore { key, blob } => match self.store.put_tracked(&key, &blob) {
                Ok(degraded) => Response::Stored { degraded },
                Err(e) => io_failed(e),
            },
            Request::GetStore { key } => match self.store.get(&key) {
                Ok(blob) => Response::Blob(blob),
                Err(StoreError::NotFound(_)) => Response::BadRequest {
                    message: format!("no object stored under `{key}`"),
                },
                Err(e) => io_failed(e),
            },
        }
    }

    /// The one search-job body: validate → build → token → search → reply.
    /// `achieved` reads the objective's headline number (ratio, PSNR) off
    /// the outcome; `reply` builds the success response from the outcome
    /// and that number.
    #[allow(clippy::too_many_arguments)]
    fn run_search<O: Objective>(
        &self,
        params: &[(&str, f64)],
        deadline_ms: u32,
        codec: &str,
        dataset: &Dataset,
        objective: O,
        achieved: impl FnOnce(&SearchOutcome) -> f64,
        reply: impl FnOnce(&dyn Compressor, SearchOutcome, f64) -> Response,
    ) -> Response {
        for (name, value) in params {
            if !value.is_finite() || *value <= 0.0 {
                return Response::BadRequest {
                    message: format!("{name} must be positive and finite, got {value}"),
                };
            }
        }
        let compressor = match self.compressor(codec) {
            Ok(compressor) => compressor,
            Err(response) => return response,
        };
        if !compressor.supports_dims(&dataset.dims) {
            return Response::BadRequest {
                message: format!(
                    "codec `{}` does not support a rank-{} grid",
                    compressor.name(),
                    dataset.dims.ndims()
                ),
            };
        }
        let predictor = self.tune.clone().map(|p| p as Arc<dyn BoundPredictor>);
        let outcome: SearchOutcome = Search::new(Arc::clone(&compressor), objective)
            .with_pool(Arc::clone(&self.pool))
            .with_cancel(self.job_token(deadline_ms))
            .with_predictor(predictor)
            .run(dataset)
            .into();
        let achieved = achieved(&outcome);
        if outcome.deadline_hit {
            if self.stragglers.is_cancelled() {
                self.counters
                    .drain_cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Response::DeadlineExceeded {
                error_bound: outcome.error_bound,
                achieved,
                evaluations: outcome.evaluations as u32,
            };
        }
        reply(compressor.as_ref(), outcome, achieved)
    }
}

fn io_failed(error: StoreError) -> Response {
    Response::IoFailed {
        transient: error.is_transient(),
        message: error.to_string(),
    }
}

/// Read one frame, returning `Ok(None)` when the connection should close
/// instead (peer hung up, or the server is draining and the line is
/// idle).  Read timeouts while idle poll the drain flag; timeouts
/// mid-frame keep accumulating — a slow sender is not an error.
fn read_frame_or_close(
    stream: &mut TcpStream,
    inner: &Inner,
) -> Result<Option<Vec<u8>>, ProtoError> {
    struct PollingReader<'a> {
        stream: &'a mut TcpStream,
        inner: &'a Inner,
        stop: bool,
    }
    impl std::io::Read for PollingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.stream.read(buf) {
                    Ok(n) => return Ok(n),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // The 50 ms read timeout is the drain poll: once
                        // the server is stopping, stop waiting for bytes
                        // (idle or mid-frame) and close.
                        if self.inner.stopping() {
                            self.stop = true;
                            return Ok(0);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    let mut reader = PollingReader {
        stream,
        inner,
        stop: false,
    };
    match read_frame(&mut reader, MAX_FRAME_LEN) {
        Ok(payload) => Ok(Some(payload)),
        Err(ProtoError::Closed) => Ok(None),
        // The synthetic EOF from the drain poll surfaces as
        // Closed/Truncated; either way the connection just closes.
        Err(_) if reader.stop => Ok(None),
        Err(e) => Err(e),
    }
}

fn connection_loop(inner: Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        match read_frame_or_close(&mut stream, &inner) {
            Ok(Some(payload)) => {
                let response = inner.handle_payload(&payload);
                let close = matches!(response, Response::Draining);
                if write_frame(&mut stream, &response.encode()).is_err() || close {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // A desynced or hostile frame gets one typed reply on a
                // best-effort basis, then the connection closes: after a
                // framing error there is no trustworthy boundary to
                // resume from.
                inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let reply = Response::BadRequest {
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &reply.encode());
                break;
            }
        }
    }
}

/// A running server.  Dropping the handle does *not* stop the server;
/// call [`ServerHandle::join`] to drain and stop.
pub struct ServerHandle {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Start a server for `config`; returns once the listener is bound.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8)
    };
    let pool = Arc::new(Pool::new(workers));

    let base: Box<dyn Store> = match &config.store_dir {
        Some(dir) => Box::new(FsStore::open(dir).map_err(std::io::Error::other)?),
        None => Box::new(MemoryStore::new()),
    };
    let base: Box<dyn Store> = match &config.store_faults {
        Some(faults) => Box::new(FaultyStore::new(base, faults.clone())),
        None => base,
    };
    let store = FallbackStore::new(
        RetryStore::with_policy(base, config.retry.clone()),
        MemoryStore::new(),
    );

    // A broken tune-cache directory degrades to cold searches — the
    // service must come up anyway.
    let mut tune_degraded = false;
    let tune = config.tune_cache_dir.as_ref().and_then(|dir| {
        CachePredictor::open(dir)
            .map(Arc::new)
            .inspect_err(|e| {
                eprintln!("fraz-serve: tune cache unavailable ({e}); searches run cold");
                tune_degraded = true;
            })
            .ok()
    });

    let admission = Admission::new(config.admission.clone());
    let inner = Arc::new(Inner {
        config,
        pool,
        admission,
        store,
        tune,
        tune_degraded: AtomicBool::new(tune_degraded),
        compressors: Mutex::new(HashMap::new()),
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        stragglers: CancelToken::new(),
    });

    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let inner = Arc::clone(&inner);
        let connections = Arc::clone(&connections);
        std::thread::Builder::new()
            .name("fraz-serve-accept".into())
            .spawn(move || {
                while !inner.stopping() {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nonblocking(false);
                            let inner = Arc::clone(&inner);
                            let spawned = std::thread::Builder::new()
                                .name("fraz-serve-conn".into())
                                .spawn(move || connection_loop(inner, stream));
                            // On thread exhaustion the connection drops:
                            // the client sees a clean close and retries
                            // elsewhere.
                            if let Ok(handle) = spawned {
                                let mut live =
                                    connections.lock().unwrap_or_else(|p| p.into_inner());
                                // A finished connection's handle only pins
                                // its thread's stack (`join` ignores the
                                // result); dropping it releases the stack.
                                live.retain(|h| !h.is_finished());
                                live.push(handle);
                            }
                        }
                        // Nothing to accept yet (`WouldBlock`), or a
                        // transient accept failure: poll again shortly.
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?
    };

    Ok(ServerHandle {
        inner,
        local_addr,
        accept: Some(accept),
        connections,
    })
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begin draining: no new connections or jobs.  Non-blocking; call
    /// [`ServerHandle::join`] to wait for completion.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Current counters (for tests and the drain report).
    pub fn status(&self) -> StatusBody {
        self.inner.status_body()
    }

    /// High-water mark of concurrently admitted jobs.
    pub fn peak_jobs(&self) -> usize {
        self.inner.admission.peak_jobs()
    }

    /// Puts acknowledged by the in-memory fallback because the durable
    /// store failed (each answered `Stored { degraded: true }`).
    pub fn degraded_puts(&self) -> u64 {
        self.inner.store.degraded_puts()
    }

    /// Drain and stop: stop admitting, wait for in-flight jobs up to the
    /// drain deadline, cancel stragglers, flush the tune cache, join
    /// every thread.
    pub fn join(mut self) -> DrainReport {
        self.shutdown();
        let start = Instant::now();
        let deadline = start + self.inner.config.drain_deadline;

        // Phase 1: wait for in-flight jobs to finish on their own.
        while self.inner.admission.inflight_jobs() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained_within_deadline = self.inner.admission.inflight_jobs() == 0;

        // Phase 2: cancel whatever outlived the deadline — the searches
        // observe their tokens, children of this one, between evaluations
        // and answer with their best-so-far bound.
        self.inner.stragglers.cancel();

        // Phase 3: join the accept loop and every connection thread (the
        // 50 ms read timeout bounds how long an idle one takes to notice).
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has exited, so the list is complete.
        let connections =
            std::mem::take(&mut *self.connections.lock().unwrap_or_else(|p| p.into_inner()));
        for handle in connections {
            let _ = handle.join();
        }
        // Every job has answered, so every drain-cancelled one is counted.
        let cancelled_jobs = self.inner.counters.drain_cancelled.load(Ordering::Relaxed) as usize;

        // Phase 4: flush the tune cache so the next process starts warm.
        let tune = self.inner.tune.as_ref();
        let tune_cache_flushed = tune.is_none_or(|p| p.cache().flush().is_ok());

        DrainReport {
            drained_within_deadline,
            cancelled_jobs,
            drain_elapsed: start.elapsed(),
            tune_cache_flushed,
            status: self.inner.status_body(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    fn handles(server: &ServerHandle) -> Vec<bool> {
        let live = server.connections.lock().unwrap();
        live.iter().map(JoinHandle::is_finished).collect()
    }

    #[test]
    fn finished_connection_threads_are_not_kept() {
        let server = start(ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        for _ in 0..64 {
            let mut client = Client::connect(&addr).unwrap();
            assert!(matches!(client.status(), Ok(Response::Status(_))));
        }
        // Each closed connection's thread notices EOF and exits.
        let start = Instant::now();
        while !handles(&server).iter().all(|&done| done) {
            assert!(start.elapsed() < Duration::from_secs(10), "threads stuck");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut client = Client::connect(&addr).unwrap();
        assert!(matches!(client.status(), Ok(Response::Status(_))));
        let kept = handles(&server).len();
        assert!(kept <= 2, "{kept} connection handles kept");
        drop(client);
        server.join();
    }
}

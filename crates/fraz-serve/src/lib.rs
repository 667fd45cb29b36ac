//! # fraz-serve — a fault-tolerant compression service
//!
//! FRaZ's search is a library; HPC facilities run *services*.  This crate
//! stands the search up as a long-running daemon speaking a
//! length-prefixed binary protocol over blocking TCP — no async runtime,
//! just an accept loop and per-connection reader threads feeding the
//! shared [`fraz_pool::Pool`] — and builds the robustness envelope such a
//! service needs as small, reusable layers:
//!
//! * [`proto`] — the framed wire protocol; every length prefix is
//!   validated before allocation, every decode failure is typed,
//! * [`admission`] — bounded in-flight job/byte budgets; over budget
//!   sheds with `Overloaded{retry_after}`,
//! * [`server`] — job execution with cooperative deadlines
//!   ([`fraz_core::CancelToken`] checked between compressor
//!   evaluations), retry/backoff over the store, graceful degradation
//!   (broken cache → cold search; broken store → the in-memory side of a
//!   [`fraz_store::FallbackStore`]),
//!   panic isolation, and a drain-on-shutdown that flushes the tune
//!   cache,
//! * [`client`] — a blocking client for tools and tests,
//! * [`chaos`] — seed-deterministic socket fault injection
//!   ([`FaultyStream`]), the transport half of the chaos harness (the
//!   storage half is [`fraz_store::FaultyStore`]),
//! * [`loadgen`] — open-loop load generation over `fraz-scenarios`
//!   workloads, reporting p50/p99 latency, throughput, and shed rate as
//!   a JSONL row.
//!
//! The chaos suites (`tests/chaos.rs`, `tests/adversarial.rs`,
//! `tests/overload.rs`) assert the envelope end to end: injected store
//! and socket faults under concurrent load produce zero panics, zero
//! hangs, exactly one typed outcome per job, and no corrupt containers.

#![forbid(unsafe_code)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmissionConfig, Overload, Permit};
pub use chaos::{FaultyStream, StreamFaults};
pub use client::Client;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use proto::{ProtoError, Request, Response, StatusBody, MAX_FRAME_LEN};
pub use server::{start, DrainReport, ServeConfig, ServerHandle};

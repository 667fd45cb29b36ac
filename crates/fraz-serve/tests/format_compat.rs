//! Wire-format regression fixtures for the service protocol: one encoded
//! frame for every [`Request`] and [`Response`] variant, committed as two
//! streams of length-prefixed frames under `tests/fixtures/`.  Encoding
//! must reproduce them byte for byte and decoding must return the value
//! that was encoded, so a refactor of the frame plumbing cannot silently
//! move a byte.
//!
//! Regenerate only for an *intentional, versioned* protocol change:
//!
//! ```text
//! cargo test -p fraz-serve --test format_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use fraz_data::{Dataset, Dims};
use fraz_serve::proto::{
    read_frame, write_frame, ProtoError, Request, Response, StatusBody, MAX_FRAME_LEN,
};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn dataset_f32() -> Dataset {
    let values: Vec<f32> = (0..24).map(|i| i as f32 * 0.5 - 3.0).collect();
    Dataset::from_f32("app", "field-μ", 3, Dims::d3(2, 3, 4), values)
}

fn dataset_f64() -> Dataset {
    let values: Vec<f64> = (0..35).map(|i| (i as f64).powi(3) * 1e-3).collect();
    Dataset::from_f64("hurricane", "P", 11, Dims::d2(5, 7), values)
}

fn requests() -> Vec<Request> {
    vec![
        Request::Status,
        Request::Compress {
            deadline_ms: 250,
            target_ratio: 8.0,
            tolerance: 0.2,
            codec: "sz".into(),
            dataset: dataset_f32(),
        },
        Request::Decompress {
            codec: "szx".into(),
            blob: (0..40u8).collect(),
        },
        Request::TunePsnr {
            deadline_ms: 0,
            target_psnr: 60.0,
            codec: "zfp".into(),
            dataset: dataset_f64(),
        },
        Request::PutStore {
            key: "a/b".into(),
            blob: vec![9; 100],
        },
        Request::GetStore { key: "a/b".into() },
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Status(StatusBody {
            draining: true,
            degraded: false,
            inflight_jobs: 3,
            inflight_bytes: 1 << 20,
            jobs_ok: 10,
            jobs_shed: 2,
            jobs_deadline: 1,
            jobs_rejected: 4,
            jobs_failed: 5,
        }),
        Response::Compressed {
            error_bound: 1e-3,
            ratio: 7.5,
            feasible: true,
            evaluations: 12,
            blob: vec![5; 64],
        },
        Response::Dataset(dataset_f64()),
        Response::Tuned {
            error_bound: 2e-4,
            achieved_psnr: 61.2,
            satisfiable: true,
            evaluations: 9,
        },
        Response::Stored { degraded: true },
        Response::Blob(vec![7; 16]),
        Response::Overloaded { retry_after_ms: 40 },
        Response::DeadlineExceeded {
            error_bound: 5e-3,
            achieved: 6.1,
            evaluations: 4,
        },
        Response::BadRequest {
            message: "nope".into(),
        },
        Response::IoFailed {
            transient: true,
            message: "disk".into(),
        },
        Response::Draining,
        Response::Internal {
            message: "panic".into(),
        },
    ]
}

fn frames(payloads: impl Iterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut wire = Vec::new();
    for payload in payloads {
        write_frame(&mut wire, &payload).unwrap();
    }
    wire
}

/// Split a committed stream back into frame payloads.
fn payloads(name: &str) -> Vec<Vec<u8>> {
    let wire = std::fs::read(fixture(name)).expect(name);
    let mut reader = wire.as_slice();
    let mut out = Vec::new();
    loop {
        match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(payload) => out.push(payload),
            Err(ProtoError::Closed) => return out,
            Err(e) => panic!("fixture {name} is not a clean frame stream: {e}"),
        }
    }
}

#[test]
fn every_request_variant_encodes_to_its_committed_frame_and_decodes_back() {
    let committed = payloads("requests.bin");
    let requests = requests();
    assert_eq!(committed.len(), requests.len());
    for (request, frame) in requests.iter().zip(&committed) {
        assert_eq!(&request.encode(), frame, "{} frame moved", request.kind());
        assert_eq!(&Request::decode(frame).unwrap(), request);
    }
}

#[test]
fn every_response_variant_encodes_to_its_committed_frame_and_decodes_back() {
    let committed = payloads("responses.bin");
    let responses = responses();
    assert_eq!(committed.len(), responses.len());
    for (response, frame) in responses.iter().zip(&committed) {
        assert_eq!(&response.encode(), frame, "{} frame moved", response.kind());
        assert_eq!(&Response::decode(frame).unwrap(), response);
    }
}

#[test]
#[ignore = "writes fixtures; run only for an intentional protocol change"]
fn regenerate() {
    let requests = frames(requests().iter().map(Request::encode));
    std::fs::write(fixture("requests.bin"), requests).unwrap();
    let responses = frames(responses().iter().map(Response::encode));
    std::fs::write(fixture("responses.bin"), responses).unwrap();
}

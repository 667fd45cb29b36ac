//! The wire protocol: length-prefixed frames with typed request/response
//! bodies.
//!
//! A frame is `u32` little-endian payload length followed by exactly that
//! many payload bytes; the payload's first byte is an opcode.  The length
//! prefix is validated against [`MAX_FRAME_LEN`] (or the caller's cap)
//! *before* any allocation, so a hostile 4-gigabyte prefix costs the
//! server a typed error, not an OOM.  Body decoding is pure slicing over
//! the already-read frame with the shared [`fraz_data::wire`] reader — a
//! malformed body can never allocate more than the frame it arrived in,
//! and dataset shapes and dtype tags pass the same validation as every
//! codec blob (rank 1..=4, non-zero axes, overflow-checked product).
//!
//! Every decode failure is a typed [`ProtoError`]:
//!
//! * [`ProtoError::Closed`] — clean EOF on a frame boundary (the peer
//!   hung up politely),
//! * [`ProtoError::Truncated`] — EOF mid-frame (a torn or interrupted
//!   peer),
//! * [`ProtoError::TooLarge`] — the length prefix exceeds the cap,
//! * [`ProtoError::Malformed`] — the payload does not parse,
//! * [`ProtoError::Io`] — the transport itself failed.

use std::io::{Read, Write};

use fraz_data::wire::{ByteReader, ByteWriter, WireError};
use fraz_data::{DataBuffer, Dataset};

/// Default ceiling on one frame's payload (64 MiB — comfortably above any
/// field the test scenarios ship, far below an allocation-of-death).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Ceiling on any single string field (names, keys, error messages).
const MAX_STR_LEN: usize = 4096;

/// Typed protocol failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer closed the connection on a frame boundary.
    Closed,
    /// The connection ended mid-frame.
    Truncated,
    /// A length prefix exceeded the frame cap.
    TooLarge { len: u64, max: usize },
    /// The payload failed to parse.
    Malformed(String),
    /// The underlying transport failed.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Truncated => write!(f, "connection closed mid-frame"),
            ProtoError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            ProtoError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtoError::Io(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Read one length-prefixed frame.  EOF before the first header byte is
/// [`ProtoError::Closed`]; EOF anywhere later is [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; 4];
    read_full(r, &mut header, true)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max_len {
        return Err(ProtoError::TooLarge {
            len: len as u64,
            max: max_len,
        });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false)?;
    Ok(payload)
}

/// Fill `buf` completely.  `at_boundary` selects the error for EOF on the
/// very first byte (a clean close) versus EOF later (a truncation).
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    ProtoError::Closed
                } else {
                    ProtoError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    let len: u32 = payload.len().try_into().map_err(|_| ProtoError::TooLarge {
        len: payload.len() as u64,
        max: u32::MAX as usize,
    })?;
    let io = |e: std::io::Error| ProtoError::Io(e.to_string());
    w.write_all(&len.to_le_bytes()).map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)
}

// ---------------------------------------------------------------------------
// Body fields: strings and blobs are u32-length-prefixed sections.  A
// declared length can never exceed the frame that carried it, so that bound
// — not a separate cap — limits a blob's copy.
// ---------------------------------------------------------------------------

fn read_str(r: &mut ByteReader<'_>, what: &str) -> Result<String, ProtoError> {
    let bytes = r.get_section()?;
    if bytes.len() > MAX_STR_LEN {
        return Err(malformed(format!(
            "{what} length {} exceeds the {MAX_STR_LEN}-byte cap",
            bytes.len()
        )));
    }
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed(format!("{what} is not UTF-8")))
}

// ---------------------------------------------------------------------------
// Dataset wire form
// ---------------------------------------------------------------------------

fn put_dataset(out: &mut ByteWriter, dataset: &Dataset) {
    out.put_u8(dataset.dtype().tag());
    out.put_u64(dataset.timestep as u64);
    out.put_section(dataset.application.as_bytes());
    out.put_section(dataset.field.as_bytes());
    out.put_u8(dataset.dims.ndims() as u8);
    out.put_axes(dataset.dims.as_slice());
    out.put_section(&dataset.buffer.to_le_bytes());
}

fn read_dataset(r: &mut ByteReader<'_>) -> Result<Dataset, ProtoError> {
    let dtype = r.get_dtype()?;
    let timestep = r.get_u64()? as usize;
    let application = read_str(r, "application name")?;
    let field = read_str(r, "field name")?;
    let rank = r.get_u8()? as usize;
    let dims = r.get_dims(rank)?;
    let values = r.get_section()?;
    let buffer = DataBuffer::from_le_bytes(values, dtype)
        .filter(|buffer| buffer.len() == dims.len())
        .ok_or_else(|| {
            malformed(format!(
                "value buffer holds {} byte(s), not the {} {dtype:?} element(s) of the grid",
                values.len(),
                dims.len()
            ))
        })?;
    Ok(Dataset {
        application,
        field,
        timestep,
        dims,
        buffer,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request.  Search jobs carry `deadline_ms` (`0` = no
/// deadline): the server converts it into a cooperative
/// [`CancelToken`](fraz_core::CancelToken) checked between compressor
/// evaluations.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Server health and counters.
    Status,
    /// Fixed-ratio search + compression of the payload dataset.
    Compress {
        deadline_ms: u32,
        target_ratio: f64,
        tolerance: f64,
        codec: String,
        dataset: Dataset,
    },
    /// Decompress a blob previously produced by `codec`.
    Decompress { codec: String, blob: Vec<u8> },
    /// Fixed-quality (PSNR floor) search over the payload dataset.
    TunePsnr {
        deadline_ms: u32,
        target_psnr: f64,
        codec: String,
        dataset: Dataset,
    },
    /// Durably store a blob under `key`.
    PutStore { key: String, blob: Vec<u8> },
    /// Fetch the blob stored under `key`.
    GetStore { key: String },
}

const OP_STATUS: u8 = 0x01;
const OP_COMPRESS: u8 = 0x02;
const OP_DECOMPRESS: u8 = 0x03;
const OP_TUNE_PSNR: u8 = 0x04;
const OP_PUT_STORE: u8 = 0x05;
const OP_GET_STORE: u8 = 0x06;

impl Request {
    /// Serialize to a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        match self {
            Request::Status => out.put_u8(OP_STATUS),
            Request::Compress {
                deadline_ms,
                target_ratio,
                tolerance,
                codec,
                dataset,
            } => {
                out.put_u8(OP_COMPRESS);
                out.put_u32(*deadline_ms);
                out.put_f64(*target_ratio);
                out.put_f64(*tolerance);
                out.put_section(codec.as_bytes());
                put_dataset(&mut out, dataset);
            }
            Request::Decompress { codec, blob } => {
                out.put_u8(OP_DECOMPRESS);
                out.put_section(codec.as_bytes());
                out.put_section(blob);
            }
            Request::TunePsnr {
                deadline_ms,
                target_psnr,
                codec,
                dataset,
            } => {
                out.put_u8(OP_TUNE_PSNR);
                out.put_u32(*deadline_ms);
                out.put_f64(*target_psnr);
                out.put_section(codec.as_bytes());
                put_dataset(&mut out, dataset);
            }
            Request::PutStore { key, blob } => {
                out.put_u8(OP_PUT_STORE);
                out.put_section(key.as_bytes());
                out.put_section(blob);
            }
            Request::GetStore { key } => {
                out.put_u8(OP_GET_STORE);
                out.put_section(key.as_bytes());
            }
        }
        out.into_bytes()
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut c = ByteReader::new(payload);
        let request = match c.get_u8()? {
            OP_STATUS => Request::Status,
            OP_COMPRESS => Request::Compress {
                deadline_ms: c.get_u32()?,
                target_ratio: c.get_f64()?,
                tolerance: c.get_f64()?,
                codec: read_str(&mut c, "codec name")?,
                dataset: read_dataset(&mut c)?,
            },
            OP_DECOMPRESS => Request::Decompress {
                codec: read_str(&mut c, "codec name")?,
                blob: c.get_section()?.to_vec(),
            },
            OP_TUNE_PSNR => Request::TunePsnr {
                deadline_ms: c.get_u32()?,
                target_psnr: c.get_f64()?,
                codec: read_str(&mut c, "codec name")?,
                dataset: read_dataset(&mut c)?,
            },
            OP_PUT_STORE => Request::PutStore {
                key: read_str(&mut c, "store key")?,
                blob: c.get_section()?.to_vec(),
            },
            OP_GET_STORE => Request::GetStore {
                key: read_str(&mut c, "store key")?,
            },
            other => return Err(malformed(format!("unknown request opcode {other:#04x}"))),
        };
        c.finish()?;
        Ok(request)
    }

    /// Short label for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Status => "status",
            Request::Compress { .. } => "compress",
            Request::Decompress { .. } => "decompress",
            Request::TunePsnr { .. } => "tune-psnr",
            Request::PutStore { .. } => "put-store",
            Request::GetStore { .. } => "get-store",
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Server counters carried by [`Response::Status`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusBody {
    /// The server has stopped admitting and is draining in-flight jobs.
    pub draining: bool,
    /// Some dependency (store, tune cache) has failed over to a fallback.
    pub degraded: bool,
    /// Jobs currently executing.
    pub inflight_jobs: u32,
    /// Payload bytes belonging to in-flight jobs.
    pub inflight_bytes: u64,
    /// Jobs answered successfully.
    pub jobs_ok: u64,
    /// Jobs shed by admission control.
    pub jobs_shed: u64,
    /// Jobs stopped at their deadline.
    pub jobs_deadline: u64,
    /// Malformed or unserviceable requests.
    pub jobs_rejected: u64,
    /// Jobs failed on I/O or internal errors.
    pub jobs_failed: u64,
}

/// One server reply.  Exactly one reply answers every request frame —
/// success and failure are both typed, never a dropped connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Health and counters.
    Status(StatusBody),
    /// A completed fixed-ratio job: the chosen bound and the blob
    /// compressed at it.
    Compressed {
        error_bound: f64,
        ratio: f64,
        feasible: bool,
        evaluations: u32,
        blob: Vec<u8>,
    },
    /// A decompressed dataset.
    Dataset(Dataset),
    /// A completed fixed-quality job.
    Tuned {
        error_bound: f64,
        achieved_psnr: f64,
        satisfiable: bool,
        evaluations: u32,
    },
    /// The blob was stored.  `degraded` marks a write that fell back to
    /// the in-memory store after the durable backend failed.
    Stored { degraded: bool },
    /// The blob stored under the requested key.
    Blob(Vec<u8>),
    /// Admission control shed the job; retry after the hinted delay.
    Overloaded { retry_after_ms: u32 },
    /// The deadline fired mid-search; the best bound found so far.
    DeadlineExceeded {
        error_bound: f64,
        achieved: f64,
        evaluations: u32,
    },
    /// The request was well-framed but unserviceable.
    BadRequest { message: String },
    /// Storage failed even after retries.
    IoFailed { transient: bool, message: String },
    /// The server is draining and takes no new work.
    Draining,
    /// The job panicked; the server survived it.
    Internal { message: String },
}

const OP_R_STATUS: u8 = 0x80;
const OP_R_COMPRESSED: u8 = 0x81;
const OP_R_DATASET: u8 = 0x82;
const OP_R_TUNED: u8 = 0x83;
const OP_R_STORED: u8 = 0x84;
const OP_R_BLOB: u8 = 0x85;
const OP_R_OVERLOADED: u8 = 0xE0;
const OP_R_DEADLINE: u8 = 0xE1;
const OP_R_BAD_REQUEST: u8 = 0xE2;
const OP_R_IO_FAILED: u8 = 0xE3;
const OP_R_DRAINING: u8 = 0xE4;
const OP_R_INTERNAL: u8 = 0xE5;

impl Response {
    /// Serialize to a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        match self {
            Response::Status(s) => {
                out.put_u8(OP_R_STATUS);
                out.put_u8(s.draining as u8);
                out.put_u8(s.degraded as u8);
                out.put_u32(s.inflight_jobs);
                out.put_u64(s.inflight_bytes);
                out.put_u64(s.jobs_ok);
                out.put_u64(s.jobs_shed);
                out.put_u64(s.jobs_deadline);
                out.put_u64(s.jobs_rejected);
                out.put_u64(s.jobs_failed);
            }
            Response::Compressed {
                error_bound,
                ratio,
                feasible,
                evaluations,
                blob,
            } => {
                out.put_u8(OP_R_COMPRESSED);
                out.put_f64(*error_bound);
                out.put_f64(*ratio);
                out.put_u8(*feasible as u8);
                out.put_u32(*evaluations);
                out.put_section(blob);
            }
            Response::Dataset(dataset) => {
                out.put_u8(OP_R_DATASET);
                put_dataset(&mut out, dataset);
            }
            Response::Tuned {
                error_bound,
                achieved_psnr,
                satisfiable,
                evaluations,
            } => {
                out.put_u8(OP_R_TUNED);
                out.put_f64(*error_bound);
                out.put_f64(*achieved_psnr);
                out.put_u8(*satisfiable as u8);
                out.put_u32(*evaluations);
            }
            Response::Stored { degraded } => {
                out.put_u8(OP_R_STORED);
                out.put_u8(*degraded as u8);
            }
            Response::Blob(blob) => {
                out.put_u8(OP_R_BLOB);
                out.put_section(blob);
            }
            Response::Overloaded { retry_after_ms } => {
                out.put_u8(OP_R_OVERLOADED);
                out.put_u32(*retry_after_ms);
            }
            Response::DeadlineExceeded {
                error_bound,
                achieved,
                evaluations,
            } => {
                out.put_u8(OP_R_DEADLINE);
                out.put_f64(*error_bound);
                out.put_f64(*achieved);
                out.put_u32(*evaluations);
            }
            Response::BadRequest { message } => {
                out.put_u8(OP_R_BAD_REQUEST);
                out.put_section(message.as_bytes());
            }
            Response::IoFailed { transient, message } => {
                out.put_u8(OP_R_IO_FAILED);
                out.put_u8(*transient as u8);
                out.put_section(message.as_bytes());
            }
            Response::Draining => out.put_u8(OP_R_DRAINING),
            Response::Internal { message } => {
                out.put_u8(OP_R_INTERNAL);
                out.put_section(message.as_bytes());
            }
        }
        out.into_bytes()
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut c = ByteReader::new(payload);
        let response = match c.get_u8()? {
            OP_R_STATUS => Response::Status(StatusBody {
                draining: c.get_u8()? != 0,
                degraded: c.get_u8()? != 0,
                inflight_jobs: c.get_u32()?,
                inflight_bytes: c.get_u64()?,
                jobs_ok: c.get_u64()?,
                jobs_shed: c.get_u64()?,
                jobs_deadline: c.get_u64()?,
                jobs_rejected: c.get_u64()?,
                jobs_failed: c.get_u64()?,
            }),
            OP_R_COMPRESSED => Response::Compressed {
                error_bound: c.get_f64()?,
                ratio: c.get_f64()?,
                feasible: c.get_u8()? != 0,
                evaluations: c.get_u32()?,
                blob: c.get_section()?.to_vec(),
            },
            OP_R_DATASET => Response::Dataset(read_dataset(&mut c)?),
            OP_R_TUNED => Response::Tuned {
                error_bound: c.get_f64()?,
                achieved_psnr: c.get_f64()?,
                satisfiable: c.get_u8()? != 0,
                evaluations: c.get_u32()?,
            },
            OP_R_STORED => Response::Stored {
                degraded: c.get_u8()? != 0,
            },
            OP_R_BLOB => Response::Blob(c.get_section()?.to_vec()),
            OP_R_OVERLOADED => Response::Overloaded {
                retry_after_ms: c.get_u32()?,
            },
            OP_R_DEADLINE => Response::DeadlineExceeded {
                error_bound: c.get_f64()?,
                achieved: c.get_f64()?,
                evaluations: c.get_u32()?,
            },
            OP_R_BAD_REQUEST => Response::BadRequest {
                message: read_str(&mut c, "error message")?,
            },
            OP_R_IO_FAILED => Response::IoFailed {
                transient: c.get_u8()? != 0,
                message: read_str(&mut c, "error message")?,
            },
            OP_R_DRAINING => Response::Draining,
            OP_R_INTERNAL => Response::Internal {
                message: read_str(&mut c, "error message")?,
            },
            other => return Err(malformed(format!("unknown response opcode {other:#04x}"))),
        };
        c.finish()?;
        Ok(response)
    }

    /// Short label for counters and loadgen tallies.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Status(_) => "status",
            Response::Compressed { .. } => "compressed",
            Response::Dataset(_) => "dataset",
            Response::Tuned { .. } => "tuned",
            Response::Stored { .. } => "stored",
            Response::Blob(_) => "blob",
            Response::Overloaded { .. } => "overloaded",
            Response::DeadlineExceeded { .. } => "deadline-exceeded",
            Response::BadRequest { .. } => "bad-request",
            Response::IoFailed { .. } => "io-failed",
            Response::Draining => "draining",
            Response::Internal { .. } => "internal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    fn sample_dataset() -> Dataset {
        let values: Vec<f32> = (0..24).map(|i| i as f32 * 0.5).collect();
        Dataset::from_f32("app", "field", 3, Dims::d3(2, 3, 4), values)
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Status,
            Request::Compress {
                deadline_ms: 250,
                target_ratio: 8.0,
                tolerance: 0.2,
                codec: "sz".into(),
                dataset: sample_dataset(),
            },
            Request::Decompress {
                codec: "szx".into(),
                blob: vec![1, 2, 3],
            },
            Request::TunePsnr {
                deadline_ms: 0,
                target_psnr: 60.0,
                codec: "sz".into(),
                dataset: sample_dataset(),
            },
            Request::PutStore {
                key: "a/b".into(),
                blob: vec![9; 100],
            },
            Request::GetStore { key: "a/b".into() },
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Status(StatusBody {
                draining: true,
                degraded: false,
                inflight_jobs: 3,
                inflight_bytes: 1 << 20,
                jobs_ok: 10,
                jobs_shed: 2,
                jobs_deadline: 1,
                jobs_rejected: 4,
                jobs_failed: 0,
            }),
            Response::Compressed {
                error_bound: 1e-3,
                ratio: 7.5,
                feasible: true,
                evaluations: 12,
                blob: vec![5; 64],
            },
            Response::Dataset(sample_dataset()),
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
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let payload = Request::Status.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).unwrap(), payload);
        assert_eq!(
            read_frame(&mut reader, MAX_FRAME_LEN),
            Err(ProtoError::Closed)
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let wire = u32::MAX.to_le_bytes();
        let err = read_frame(&mut wire.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, ProtoError::TooLarge { .. }));
    }

    #[test]
    fn truncation_mid_frame_is_typed() {
        let payload = Request::GetStore { key: "k".into() }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            let err = read_frame(&mut &wire[..cut], MAX_FRAME_LEN).unwrap_err();
            assert_eq!(err, ProtoError::Truncated, "cut at byte {cut}");
        }
    }

    #[test]
    fn every_single_byte_truncation_of_a_body_is_malformed_not_panic() {
        let payload = Request::Compress {
            deadline_ms: 100,
            target_ratio: 8.0,
            tolerance: 0.2,
            codec: "sz".into(),
            dataset: sample_dataset(),
        }
        .encode();
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn hostile_dims_do_not_allocate() {
        // A dataset body claiming a 2^60-element grid must die on the
        // value-count check, not attempt the allocation.
        let mut out = ByteWriter::new();
        out.put_u8(OP_COMPRESS);
        out.put_u32(0);
        out.put_f64(8.0);
        out.put_f64(0.2);
        out.put_section("sz".as_bytes());
        out.put_u8(0); // dtype f32
        out.put_u64(0); // timestep
        out.put_section("app".as_bytes());
        out.put_section("field".as_bytes());
        out.put_u8(3);
        out.put_u64(1 << 20);
        out.put_u64(1 << 20);
        out.put_u64(1 << 20);
        out.put_section(&[0u8; 4]);
        let err = Request::decode(&out.into_bytes()).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = Request::Status.encode();
        payload.push(0xAB);
        assert!(Request::decode(&payload).is_err());
    }
}

//! A small blocking client for the service protocol.
//!
//! One connection, one request in flight at a time — the shape the
//! loadgen, the CLI smoke tests, and the chaos suites all want.  Every
//! method returns the server's typed [`Response`]; protocol-level
//! failures (truncation, transport errors) surface as [`ProtoError`] so
//! callers can tell "the server said no" from "the wire broke".

use std::net::TcpStream;
use std::time::Duration;

use fraz_data::Dataset;

use crate::proto::{read_frame, write_frame, ProtoError, Request, Response, MAX_FRAME_LEN};

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. the server's `local_addr().to_string()`).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }

    /// Bound how long one reply may take to arrive (`None` = forever).
    pub fn set_reply_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send one request and wait for its reply.
    pub fn request(&mut self, request: &Request) -> Result<Response, ProtoError> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream, MAX_FRAME_LEN)?;
        Response::decode(&payload)
    }

    /// Send raw bytes as a frame payload (adversarial tests).
    pub fn send_raw_frame(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, payload)
    }

    /// Read one reply frame without sending anything first.
    pub fn read_reply(&mut self) -> Result<Response, ProtoError> {
        let payload = read_frame(&mut self.stream, MAX_FRAME_LEN)?;
        Response::decode(&payload)
    }

    /// The underlying stream (adversarial tests write torn bytes to it).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// `Status` round trip.
    pub fn status(&mut self) -> Result<Response, ProtoError> {
        self.request(&Request::Status)
    }

    /// Fixed-ratio compression of `dataset` (deadline `0` = none).
    pub fn compress(
        &mut self,
        codec: &str,
        dataset: &Dataset,
        target_ratio: f64,
        tolerance: f64,
        deadline_ms: u32,
    ) -> Result<Response, ProtoError> {
        self.request(&Request::Compress {
            deadline_ms,
            target_ratio,
            tolerance,
            codec: codec.into(),
            dataset: dataset.clone(),
        })
    }

    /// Fixed-quality (PSNR floor) search over `dataset`.
    pub fn tune_psnr(
        &mut self,
        codec: &str,
        dataset: &Dataset,
        target_psnr: f64,
        deadline_ms: u32,
    ) -> Result<Response, ProtoError> {
        self.request(&Request::TunePsnr {
            deadline_ms,
            target_psnr,
            codec: codec.into(),
            dataset: dataset.clone(),
        })
    }

    /// Decompress a blob previously produced by `codec`.
    pub fn decompress(&mut self, codec: &str, blob: Vec<u8>) -> Result<Response, ProtoError> {
        self.request(&Request::Decompress {
            codec: codec.into(),
            blob,
        })
    }

    /// Store `blob` under `key`.
    pub fn put(&mut self, key: &str, blob: Vec<u8>) -> Result<Response, ProtoError> {
        self.request(&Request::PutStore {
            key: key.into(),
            blob,
        })
    }

    /// Fetch the blob under `key`.
    pub fn get(&mut self, key: &str) -> Result<Response, ProtoError> {
        self.request(&Request::GetStore { key: key.into() })
    }
}

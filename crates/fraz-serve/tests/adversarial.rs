//! Adversarial protocol suite against a *live* server.
//!
//! Satellite (c) of the robustness PR: truncation at every byte of a
//! valid frame, garbage frames, oversized length prefixes, mid-frame
//! disconnects, slow-sender fragmentation, and malformed bodies inside
//! intact frames.  The server must answer every hostile input with a
//! typed error or a clean close — never a panic, never a hang, never an
//! unbounded allocation — and must keep serving well-formed clients
//! afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fraz_serve::proto::{read_frame, Request, Response, MAX_FRAME_LEN};
use fraz_serve::server::{start, ServeConfig, ServerHandle};
use fraz_serve::Client;

fn serve() -> ServerHandle {
    start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// A status round trip proves the server is alive and typed.
fn assert_healthy(addr: &str) {
    let mut client = Client::connect(addr).expect("healthy server accepts");
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client.status().expect("healthy server replies") {
        Response::Status(_) => {}
        other => panic!("status answered {:?}", other.kind()),
    }
}

/// One well-formed request frame with a non-trivial body.
fn valid_put_frame() -> Vec<u8> {
    let payload = Request::PutStore {
        key: "adversarial".into(),
        blob: (0..32u8).collect(),
    }
    .encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn truncation_at_every_byte_is_survived() {
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let frame = valid_put_frame();

    // Cut the connection after every possible prefix of a valid frame:
    // mid-header, mid-length, mid-body.  Each cut is one hostile client.
    for cut in 0..frame.len() {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(&frame[..cut]).expect("prefix writes");
        drop(stream);
    }

    // Interleaved well-formed traffic still works.
    assert_healthy(&addr);
    let report = handle.join();
    assert_eq!(report.status.jobs_ok, 0, "no truncated put may be acked");
}

#[test]
fn garbage_frames_get_a_typed_reply_and_the_connection_survives() {
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Deterministic garbage: every payload is a validly framed pile of
    // junk, so the frame layer stays in sync and the body decoder is the
    // one under attack.
    for i in 0..64u64 {
        let garbage: Vec<u8> = (0..(1 + (i * 37) % 200))
            .map(|j| ((i * 131 + j * 29) % 256) as u8)
            .collect();
        client.send_raw_frame(&garbage).expect("frame sends");
        match client.read_reply().expect("typed reply") {
            Response::BadRequest { .. } => {}
            other => panic!("garbage answered {:?}", other.kind()),
        }
    }

    // The same connection still serves a real request.
    match client.status().expect("connection still usable") {
        Response::Status(status) => {
            assert!(status.jobs_rejected >= 64, "rejections must be counted")
        }
        other => panic!("status answered {:?}", other.kind()),
    }
    handle.join();
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let handle = serve();
    let addr = handle.local_addr().to_string();

    for len in [u32::MAX, (MAX_FRAME_LEN as u32) + 1, 1 << 30] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&len.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 16]).unwrap();
        // The server answers with a typed BadRequest (best effort) and
        // closes — it must not wait for, or allocate, the claimed bytes.
        match read_frame(&mut stream, MAX_FRAME_LEN) {
            Ok(payload) => {
                let reply = Response::decode(&payload).expect("typed reply");
                assert!(
                    matches!(reply, Response::BadRequest { .. }),
                    "oversized prefix answered {:?}",
                    reply.kind()
                );
            }
            Err(_) => {} // clean close is also acceptable
        }
        // Either way the connection is done.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    }

    assert_healthy(&addr);
    handle.join();
}

#[test]
fn mid_frame_disconnect_storm_leaves_the_server_healthy() {
    let handle = serve();
    let addr = handle.local_addr().to_string();

    for i in 0..40u32 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        // Claim a 4 KiB payload, deliver only a sliver, vanish.
        stream.write_all(&4096u32.to_le_bytes()).unwrap();
        stream.write_all(&vec![0xAB; (i % 7 + 1) as usize]).unwrap();
        drop(stream);
    }

    assert_healthy(&addr);
    handle.join();
}

#[test]
fn slowloris_fragmentation_still_parses() {
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let frame = valid_put_frame();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One byte at a time with pauses: many read timeouts fire server-side
    // mid-frame, none of which may abandon the partial frame.
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let payload = read_frame(&mut stream, MAX_FRAME_LEN).expect("reply arrives");
    let reply = Response::decode(&payload).expect("typed reply");
    assert!(
        matches!(reply, Response::Stored { .. }),
        "dripped put answered {:?}",
        reply.kind()
    );
    handle.join();
}

#[test]
fn malformed_body_in_an_intact_frame_keeps_the_connection_usable() {
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let valid_body = Request::PutStore {
        key: "k".into(),
        blob: vec![1, 2, 3, 4, 5, 6, 7, 8],
    }
    .encode();
    // Every proper prefix of a valid body is an intact frame whose body
    // decode must fail typed — and must not poison the connection.
    for cut in 0..valid_body.len() {
        client.send_raw_frame(&valid_body[..cut]).expect("sends");
        match client.read_reply().expect("typed reply") {
            Response::BadRequest { .. } => {}
            other => panic!("cut body at {cut} answered {:?}", other.kind()),
        }
    }
    // Unknown opcodes likewise.
    for opcode in [0x00u8, 0x07, 0x7F, 0xFF] {
        client.send_raw_frame(&[opcode, 1, 2, 3]).expect("sends");
        match client.read_reply().expect("typed reply") {
            Response::BadRequest { .. } => {}
            other => panic!("opcode {opcode:#x} answered {:?}", other.kind()),
        }
    }

    // The intact full body still works on the same connection.
    client.send_raw_frame(&valid_body).expect("sends");
    match client.read_reply().expect("typed reply") {
        Response::Stored { .. } => {}
        other => panic!("valid body answered {:?}", other.kind()),
    }
    handle.join();
}

#[test]
fn hostile_dims_cannot_force_an_allocation() {
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // A compress request whose dataset claims 2^60 elements but ships
    // almost no bytes: the body decoder must reject it from the length
    // check alone.
    let mut body = vec![0x02u8]; // Compress opcode
    body.extend_from_slice(&0u32.to_le_bytes()); // deadline
    body.extend_from_slice(&8.0f64.to_bits().to_le_bytes()); // ratio
    body.extend_from_slice(&0.1f64.to_bits().to_le_bytes()); // tolerance
    body.extend_from_slice(&2u32.to_le_bytes()); // codec len
    body.extend_from_slice(b"sz");
    body.push(0); // dtype f32
    body.extend_from_slice(&0u64.to_le_bytes()); // timestep
    body.extend_from_slice(&1u32.to_le_bytes()); // app len
    body.push(b'a');
    body.extend_from_slice(&1u32.to_le_bytes()); // field len
    body.push(b'f');
    body.push(2); // ndims
    body.extend_from_slice(&(1u64 << 30).to_le_bytes());
    body.extend_from_slice(&(1u64 << 30).to_le_bytes());
    body.extend_from_slice(&16u32.to_le_bytes()); // 16 bytes of "values"
    body.extend_from_slice(&[0u8; 16]);

    client.send_raw_frame(&body).expect("sends");
    match client.read_reply().expect("typed reply") {
        Response::BadRequest { .. } => {}
        other => panic!("2^60-element claim answered {:?}", other.kind()),
    }
    assert_healthy(&addr);
    handle.join();
}

#[test]
fn a_reply_frame_sent_as_a_request_is_rejected_not_echoed() {
    // Response opcodes are not request opcodes: a confused (or malicious)
    // peer replaying server output at the server gets a typed rejection.
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let reply_payload = Response::Draining.encode();
    client.send_raw_frame(&reply_payload).expect("sends");
    match client.read_reply().expect("typed reply") {
        Response::BadRequest { .. } => {}
        other => panic!("replayed response answered {:?}", other.kind()),
    }
    handle.join();
}

#[test]
fn writes_after_server_drain_fail_cleanly() {
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Let the connection thread pick us up, then drain the server.
    std::thread::sleep(Duration::from_millis(60));
    let report = handle.join();
    assert!(report.drained_within_deadline);

    // Requests racing the drain end as a typed Draining reply, a clean
    // close, or a connection error — never a hang.
    let frame = valid_put_frame();
    let _ = stream.write_all(&frame);
    match read_frame(&mut stream, MAX_FRAME_LEN) {
        Ok(payload) => {
            let reply = Response::decode(&payload).expect("typed reply");
            assert!(
                matches!(reply, Response::Draining | Response::BadRequest { .. }),
                "post-drain request answered {:?}",
                reply.kind()
            );
        }
        Err(_) => {} // closed is fine
    }
}

/// Status counters over a fresh connection — proof the daemon outlived
/// whatever the previous connection was fed.
fn fresh_status(addr: &str) -> fraz_serve::proto::StatusBody {
    let mut client = Client::connect(addr).expect("server still accepts");
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client.status().expect("server still replies") {
        Response::Status(status) => status,
        other => panic!("status answered {:?}", other.kind()),
    }
}

#[test]
fn a_rank_5_dataset_frame_is_a_bad_request_not_a_dead_connection() {
    // `Dims` is 1..=4-D: a well-framed TunePsnr whose dataset declares rank
    // 5 (with a value buffer that matches the product, so only the rank is
    // wrong) used to panic inside `Request::decode`, outside the job's
    // panic isolation.
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut body = vec![0x04u8]; // TunePsnr opcode
    body.extend_from_slice(&0u32.to_le_bytes()); // deadline
    body.extend_from_slice(&60.0f64.to_le_bytes()); // target PSNR
    body.extend_from_slice(&2u32.to_le_bytes()); // codec len
    body.extend_from_slice(b"sz");
    body.push(0); // dtype f32
    body.extend_from_slice(&0u64.to_le_bytes()); // timestep
    body.extend_from_slice(&1u32.to_le_bytes()); // app len
    body.push(b'a');
    body.extend_from_slice(&1u32.to_le_bytes()); // field len
    body.push(b'f');
    body.push(5); // rank
    for axis in [1u64, 1, 1, 2, 2] {
        body.extend_from_slice(&axis.to_le_bytes());
    }
    body.extend_from_slice(&16u32.to_le_bytes()); // 4 f32 values
    body.extend_from_slice(&[0u8; 16]);

    client.send_raw_frame(&body).expect("sends");
    match client.read_reply().expect("exactly one typed reply") {
        Response::BadRequest { .. } => {}
        other => panic!("rank-5 dataset answered {:?}", other.kind()),
    }
    assert_eq!(fresh_status(&addr).jobs_rejected, 1);
    handle.join();
}

#[test]
fn hostile_decompress_blobs_get_one_bad_request_each_for_every_codec() {
    // Blobs whose shared prefix (magic u32, version u8, dtype u8, rank u8,
    // axes u64 x rank, ...) declares grids no payload could back.  An
    // allocation abort is not a panic: before the decoders checked declared
    // sizes against their input, one such frame killed the daemon.
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let values: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
    let dataset =
        fraz_data::Dataset::from_f32("a", "f", 0, fraz_data::Dims::d3(16, 16, 16), values);
    let axis = |i: usize| 7 + 8 * i;
    let mut sent = 0;
    for name in fraz_pressio::registry::names() {
        let codec = fraz_pressio::registry::build_default(&name).unwrap();
        let (lower, upper) = codec.bound_range(&dataset);
        let blob = codec.compress(&dataset, (lower * upper).sqrt()).unwrap();

        let mut huge_axis = blob.clone();
        huge_axis[axis(0)..axis(1)].copy_from_slice(&(1u64 << 33).to_le_bytes());
        let mut overflowing = blob.clone();
        for i in 0..3 {
            overflowing[axis(i)..axis(i + 1)].copy_from_slice(&(1u64 << 36).to_le_bytes());
        }
        // The top byte of whatever follows the prefix and parameters: for
        // the dictionary-coded codecs, their frame's declared length.
        let mut flipped = blob.clone();
        flipped[72] ^= 0x40;
        let truncated = blob[..blob.len() / 2].to_vec();

        for (what, hostile) in [
            ("axis 0 = 2^33", huge_axis),
            ("every axis = 2^36", overflowing),
            ("truncated", truncated),
        ] {
            sent += 1;
            match client
                .decompress(&name, hostile)
                .expect("exactly one typed reply")
            {
                Response::BadRequest { .. } => {}
                other => panic!("{name}: {what} answered {:?}", other.kind()),
            }
        }
        // Byte 72 is not a length in every codec's layout; where it is not,
        // the blob may still decode — but it must be answered either way.
        match client.decompress(&name, flipped).expect("one typed reply") {
            Response::BadRequest { .. } => sent += 1,
            Response::Dataset(_) => {}
            other => panic!("{name}: byte 72 flip answered {:?}", other.kind()),
        }
        // The intact blob still decodes on the same connection.
        match client.decompress(&name, blob).expect("typed reply") {
            Response::Dataset(restored) => assert_eq!(restored.dims, dataset.dims),
            other => panic!("{name}: intact blob answered {:?}", other.kind()),
        }
    }
    assert_eq!(fresh_status(&addr).jobs_rejected, sent);
    handle.join();
}

#[test]
fn a_subnormal_value_range_is_compressed_not_an_internal_error() {
    // Zeros and one subnormal: every codec's own range is (0, 5e-324), and
    // a ratio search over it used to panic in every error-bounded codec.
    let handle = serve();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut values = vec![0.0; 64];
    values[27] = 5e-324;
    let dataset =
        fraz_data::Dataset::from_f64("a", "subnormal", 0, fraz_data::Dims::d2(8, 8), values);
    let codecs = fraz_pressio::registry::error_bounded_names();
    for name in &codecs {
        match client
            .compress(name, &dataset, 10.0, 0.1, 0)
            .expect("exactly one typed reply")
        {
            Response::Compressed { error_bound, .. } => assert!(error_bound > 0.0, "{name}"),
            other => panic!("{name}: subnormal field answered {:?}", other.kind()),
        }
    }
    let status = fresh_status(&addr);
    assert_eq!(status.jobs_failed, 0);
    assert_eq!(status.jobs_ok, codecs.len() as u64);
    handle.join();
}

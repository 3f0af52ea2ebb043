//! The HTTP reader contract: a request or response cut at any byte, or with
//! any byte changed, parses or errors — it never panics, and a body shorter
//! than its `Content-Length` is an error rather than a wait for bytes that
//! will never come.

use mom_serve::http::{read_request, read_response, HttpError, Response};
use proptest::prelude::*;
use std::io::Cursor;

/// Well-formed requests: a GET, a POST with a body, and one with LF-only
/// line endings.
const REQUESTS: &[&[u8]] = &[
    b"GET /jobs/7 HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: */*\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 21\r\n\r\n{\"experiment\":\"fig4\"}",
    b"POST /jobs HTTP/1.0\nContent-Length: 2\n\n{}",
];

/// Well-formed responses as the daemon writes them, plus one without a
/// `Content-Length` (read to the end of the connection) and LF-only.
fn responses() -> Vec<Vec<u8>> {
    let mut written = Vec::new();
    Response::error(400, "no such experiment")
        .write_to(&mut written)
        .unwrap();
    vec![
        written,
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nok\n".to_vec(),
        b"HTTP/1.1 202 Accepted\nContent-Length: 3\n\n{ }".to_vec(),
    ]
}

/// Where the body of a message starts: after the first empty line.
fn body_start(message: &[u8]) -> usize {
    let crlf = message.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = message.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(c), Some(l)) if l < c => l + 2,
        (Some(c), _) => c + 4,
        (None, Some(l)) => l + 2,
        (None, None) => message.len(),
    }
}

#[test]
fn truncation_at_every_byte_parses_or_errors() {
    for raw in REQUESTS {
        let whole = read_request(&mut Cursor::new(raw)).unwrap();
        let body = body_start(raw);
        assert_eq!(whole.body, raw[body..]);
        for cut in 0..raw.len() {
            let parsed = read_request(&mut Cursor::new(&raw[..cut]));
            // A cut inside a declared body leaves it short: an error.
            if cut >= body && body < raw.len() {
                assert!(
                    parsed.is_err(),
                    "cut {cut} of {:?}",
                    String::from_utf8_lossy(raw)
                );
            }
        }
    }
    for raw in responses() {
        let body = body_start(&raw);
        assert_eq!(
            read_response(&mut Cursor::new(&raw)).unwrap().1,
            raw[body..]
        );
        let declared = String::from_utf8_lossy(&raw).contains("Content-Length");
        for cut in 0..raw.len() {
            let parsed = read_response(&mut Cursor::new(&raw[..cut]));
            if declared && cut >= body {
                assert!(
                    parsed.is_err(),
                    "cut {cut} of {:?}",
                    String::from_utf8_lossy(&raw)
                );
            }
        }
    }
}

#[test]
fn a_content_length_past_the_bytes_present_is_an_error() {
    let request = b"POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{\"experiment\":\"fig4\"}";
    assert!(matches!(
        read_request(&mut Cursor::new(&request[..])),
        Err(HttpError::Io(_))
    ));
    let response = b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{}";
    assert!(matches!(
        read_response(&mut Cursor::new(&response[..])),
        Err(HttpError::Io(_))
    ));
}

/// `message` with byte `seed % len` moved by a seed-chosen non-zero amount.
fn flipped(message: &[u8], seed: u64) -> Vec<u8> {
    let mut bytes = message.to_vec();
    let at = (seed as usize) % bytes.len();
    bytes[at] = bytes[at].wrapping_add(1 + ((seed >> 8) % 255) as u8);
    bytes
}

proptest! {
    #[test]
    fn flipped_requests_never_panic(seed in any::<u64>()) {
        let raw = REQUESTS[(seed >> 32) as usize % REQUESTS.len()];
        let _ = read_request(&mut Cursor::new(flipped(raw, seed)));
    }

    #[test]
    fn flipped_responses_never_panic(seed in any::<u64>()) {
        let all = responses();
        let raw = &all[(seed >> 32) as usize % all.len()];
        let _ = read_response(&mut Cursor::new(flipped(raw, seed)));
    }
}

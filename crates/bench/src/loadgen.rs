//! Client-side accounting for the `perfbench` load generator.
//!
//! perfbench owns the sockets and the readiness loop; this module owns
//! the HTTP/1.1 response framing ([`parse_response`]) and the
//! shed-vs-error outcome taxonomy ([`classify`]). Keeping them in the
//! library makes them unit-testable without opening a single connection.

/// How one completed HTTP exchange counts toward the run totals.
///
/// Shedding (`503` + `Retry-After`) is the service's *documented*
/// overload behaviour under the bounded-queue policy, so it is kept
/// apart from genuine failures: a healthy saturated server sheds, a
/// broken one errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `200` — a served request; its latency enters the quantiles.
    Ok,
    /// `503` — load shed under backpressure; completed but unlatencied.
    Shed,
    /// Any other status — the server misbehaved.
    Error,
}

/// Maps a response status to its accounting bucket.
pub fn classify(status: u16) -> Outcome {
    match status {
        200 => Outcome::Ok,
        503 => Outcome::Shed,
        _ => Outcome::Error,
    }
}

/// A complete HTTP response pulled off a connection buffer:
/// `(status, connection-close, total bytes consumed)` — or `None` while
/// more bytes are needed. Framing is `content-length` only; a caller that
/// requests a chunked route decodes that body itself.
pub fn parse_response(buf: &[u8]) -> Result<Option<(u16, bool, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|e| format!("bad content-length: {e}"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head}"))?;
    Ok(Some((status, close, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_buckets_are_exact() {
        assert_eq!(classify(200), Outcome::Ok);
        assert_eq!(classify(503), Outcome::Shed);
        for status in [400, 404, 413, 500, 502] {
            assert_eq!(classify(status), Outcome::Error, "status {status}");
        }
    }

    #[test]
    fn parse_response_frames_by_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhelloEXTRA";
        let (status, close, total) = parse_response(raw).expect("parses").expect("complete");
        assert_eq!(status, 200);
        assert!(!close);
        assert_eq!(total, raw.len() - 5); // EXTRA belongs to the next response
    }

    #[test]
    fn parse_response_waits_for_missing_bytes() {
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\ncont").unwrap(), None);
        let partial_body = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhello";
        assert_eq!(parse_response(partial_body).unwrap(), None);
    }

    #[test]
    fn parse_response_reads_connection_close() {
        let raw =
            b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\ncontent-length: 0\r\n\r\n";
        let (status, close, total) = parse_response(raw).expect("parses").expect("complete");
        assert_eq!(status, 503);
        assert!(close);
        assert_eq!(total, raw.len());
    }

    #[test]
    fn parse_response_rejects_garbage() {
        assert!(parse_response(b"\xff\xfe\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n").is_err());
    }
}

//! A deliberately small HTTP/1.1 subset, parsed incrementally.
//!
//! The event loop accumulates raw bytes per connection and calls
//! [`parse_request`] after every read: the parser either consumes one
//! complete request from the front of the buffer (several may be queued —
//! that is pipelining), reports that more bytes are needed, or rejects
//! the prefix as malformed/oversized. No chunked bodies, no TLS;
//! `Content-Length` is the only framing. Keep-alive follows HTTP/1.1
//! defaults: persistent unless the request says `Connection: close`
//! (HTTP/1.0 is the inverse), and the server echoes its decision in the
//! response's `connection` header so clients never have to guess.

use crate::event_loop::ReplayStream;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed request: method, decoded path segments, query pairs, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// The path without the query string, e.g. `/report/overview`.
    pub path: String,
    /// Query parameters in order of appearance (no percent-decoding; the
    /// API's values are all alphanumeric by construction).
    pub query: Vec<(String, String)>,
    /// Raw request body (empty when absent).
    pub body: Vec<u8>,
    /// Whether the client's `Accept-Encoding` admits gzip (a `gzip` or
    /// `*` token without `q=0`). Handlers may then answer with a
    /// gzip-encoded body; identity stays the default.
    pub accept_gzip: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One successfully parsed request plus its framing metadata.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request itself.
    pub request: Request,
    /// Bytes consumed from the front of the buffer (head + body); the
    /// caller drains exactly this many before parsing the next pipelined
    /// request.
    pub consumed: usize,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by a `Connection: close` header).
    pub keep_alive: bool,
}

/// Request parse failure, mapped to a `400 Bad Request` + close by the
/// server.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes were not a parsable HTTP/1.x request.
    Malformed(&'static str),
    /// Head or body exceeded the hard size limits.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge => write!(f, "request exceeds size limits"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Locates the head/body boundary: the index one past the blank line.
/// Accepts both `\r\n\r\n` and bare `\n\n` terminators.
fn head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix (read more and
/// retry), `Ok(Some(_))` with the consumed byte count on success.
///
/// # Errors
///
/// [`HttpError::Malformed`] when the prefix can never become a valid
/// request, [`HttpError::TooLarge`] when the head or declared body
/// exceeds the hard limits — both terminal for the connection.
pub fn parse_request(buf: &[u8]) -> Result<Option<ParsedRequest>, HttpError> {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::Malformed("head not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_alphabetic()))
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or(HttpError::Malformed("missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let http_10 = version == "HTTP/1.0";

    let mut content_length = 0usize;
    let mut keep_alive = !http_10;
    let mut accept_gzip = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without a colon"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; `close` and `keep-alive` are the ones we honour.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("accept-encoding") {
            // Coding list with optional q-values; gzip is acceptable
            // when named (or wildcarded) with a non-zero weight.
            for coding in value.split(',') {
                let mut parts = coding.split(';');
                let token = parts.next().unwrap_or_default().trim();
                if !token.eq_ignore_ascii_case("gzip") && token != "*" {
                    continue;
                }
                let refused = parts.any(|p| {
                    let p = p.trim();
                    p.strip_prefix("q=")
                        .or_else(|| p.strip_prefix("Q="))
                        .is_some_and(|q| q.trim().parse::<f64>() == Ok(0.0))
                });
                if !refused {
                    accept_gzip = true;
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_len..total].to_vec();

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();

    Ok(Some(ParsedRequest {
        request: Request {
            method,
            path: path.to_string(),
            query,
            body,
            accept_gzip,
        },
        consumed: total,
        keep_alive,
    }))
}

/// Appends one chunked-transfer chunk to `out`: hex size, CRLF, data,
/// CRLF.
pub(crate) fn push_chunk(out: &mut Vec<u8>, payload: &[u8]) {
    use std::io::Write as _;
    let _ = write!(out, "{:x}\r\n", payload.len());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
}

/// The terminal zero-length chunk ending a chunked response.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Writes one complete response head: status line, the caller's framing
/// and identity headers, and the `connection` decision, ending with the
/// blank line. Every head the server emits — content-length responses,
/// chunked streams, error paths that used to be hand-built — goes
/// through here, so framing headers can't drift apart per call site and
/// keep-alive clients always see a correctly framed body.
///
/// `headers` are `(name, value)` pairs appended verbatim (lowercase
/// names by convention).
pub fn write_head(status: u16, reason: &str, keep_alive: bool, headers: &[(&str, &str)]) -> String {
    let mut head = format!("HTTP/1.1 {status} {reason}\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("connection: ");
    head.push_str(if keep_alive { "keep-alive" } else { "close" });
    head.push_str("\r\n\r\n");
    head
}

/// A response ready to serialize: status, an optional Retry-After
/// header, and either a JSON body (content-length framing,
/// optionally gzip-encoded) or a replay stream (chunked NDJSON).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds, sent on overload responses.
    pub retry_after: Option<u32>,
    /// JSON body (ignored for streaming or encoded responses).
    pub body: String,
    /// Gzip-encoded body; `Some` sends these bytes with
    /// `content-encoding: gzip` instead of `body`.
    pub encoded: Option<Vec<u8>>,
    /// Replay stream; `Some` makes this a `Transfer-Encoding: chunked`
    /// response the event loop formats as it writes, and `body` is not
    /// sent. Boxed to keep every other response small.
    pub(crate) stream: Option<Box<ReplayStream>>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok(body: String) -> Self {
        Self {
            status: 200,
            retry_after: None,
            body,
            encoded: None,
            stream: None,
        }
    }

    /// A `200 OK` response whose body is already gzip-encoded; sent
    /// with `content-encoding: gzip`.
    pub fn ok_gzip(encoded: Vec<u8>) -> Self {
        Self {
            status: 200,
            retry_after: None,
            body: String::new(),
            encoded: Some(encoded),
            stream: None,
        }
    }

    /// An error response with a `{"error": ...}` JSON body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        dcf_obs::json::write_string(&mut body, message);
        body.push('}');
        Self {
            status,
            retry_after: None,
            body,
            encoded: None,
            stream: None,
        }
    }

    /// A `503 Service Unavailable` with a `Retry-After` header.
    pub fn overloaded(message: &str, retry_after_secs: u32) -> Self {
        let mut r = Self::error(503, message);
        r.retry_after = Some(retry_after_secs);
        r
    }

    /// A `200 OK` chunked replay stream.
    pub(crate) fn stream(stream: ReplayStream) -> Self {
        Self {
            status: 200,
            retry_after: None,
            body: String::new(),
            encoded: None,
            stream: Some(Box::new(stream)),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Content Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// The bytes the content-length framing will send: the encoded body
    /// when present, the JSON text otherwise.
    pub fn payload(&self) -> &[u8] {
        match &self.encoded {
            Some(bytes) => bytes,
            None => self.body.as_bytes(),
        }
    }

    /// Serializes the full content-length-framed response. `keep_alive`
    /// selects the `connection` header: `keep-alive` leaves the
    /// connection open for the next pipelined request, `close` announces
    /// the server will half-close after the body.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let length = self.payload().len().to_string();
        let retry = self.retry_after.map(|secs| secs.to_string());
        let mut headers: Vec<(&str, &str)> = vec![
            ("content-type", "application/json"),
            ("content-length", &length),
        ];
        if self.encoded.is_some() {
            headers.push(("content-encoding", "gzip"));
        }
        if let Some(retry) = &retry {
            headers.push(("retry-after", retry));
        }
        let mut out = write_head(self.status, self.reason(), keep_alive, &headers).into_bytes();
        out.extend_from_slice(self.payload());
        out
    }

    /// Serializes the head of a replay stream; the event loop follows
    /// with one [`push_chunk`]-framed NDJSON line per chunk and
    /// [`LAST_CHUNK`] at end of stream.
    pub(crate) fn serialize_stream_head(&self, keep_alive: bool) -> Vec<u8> {
        let headers = [
            ("content-type", "application/x-ndjson"),
            ("transfer-encoding", "chunked"),
        ];
        write_head(self.status, self.reason(), keep_alive, &headers).into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &[u8]) -> ParsedRequest {
        parse_request(raw)
            .expect("parsable")
            .expect("complete request")
    }

    #[test]
    fn parses_get_with_query() {
        let parsed = complete(b"GET /report/overview?seed=7&scenario=small HTTP/1.1\r\n\r\n");
        assert_eq!(parsed.request.method, "GET");
        assert_eq!(parsed.request.path, "/report/overview");
        assert_eq!(parsed.request.query_value("seed"), Some("7"));
        assert_eq!(parsed.request.query_value("scenario"), Some("small"));
        assert!(parsed.request.body.is_empty());
        assert!(parsed.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(parsed.consumed, 55);
    }

    #[test]
    fn parses_post_with_body() {
        let parsed =
            complete(b"POST /simulate HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"seed\":3}  \n");
        assert_eq!(parsed.request.method, "POST");
        assert_eq!(parsed.request.body.len(), 13);
    }

    #[test]
    fn incomplete_prefixes_ask_for_more_bytes() {
        assert!(parse_request(b"GET /healthz HT").unwrap().is_none());
        assert!(
            parse_request(b"POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nab")
                .unwrap()
                .is_none()
        );
        assert!(parse_request(b"").unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let first = complete(raw);
        assert_eq!(first.request.path, "/healthz");
        let second = complete(&raw[first.consumed..]);
        assert_eq!(second.request.path, "/metrics");
        assert_eq!(first.consumed + second.consumed, raw.len());
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let parsed = complete(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!parsed.keep_alive);
        // HTTP/1.0 defaults to close unless keep-alive is requested.
        assert!(!complete(b"GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(complete(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_request(b"not-http\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_request(b"GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let mut huge = b"GET /".to_vec();
        huge.resize(huge.len() + MAX_HEAD_BYTES + 10, b'a');
        assert!(matches!(parse_request(&huge), Err(HttpError::TooLarge)));
        let declared = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request(declared.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn response_serializes_with_retry_after_and_connection_header() {
        let r = Response::overloaded("busy", 2);
        assert_eq!(r.status, 503);
        let bytes = String::from_utf8(r.serialize(false)).unwrap();
        assert!(bytes.contains("retry-after: 2\r\n"));
        assert!(bytes.contains("connection: close\r\n"));
        assert!(bytes.contains("busy"));
        let alive = String::from_utf8(Response::ok("{}".into()).serialize(true)).unwrap();
        assert!(alive.contains("connection: keep-alive\r\n"));
    }
}

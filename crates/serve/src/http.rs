//! Strict, bounded HTTP/1.1 request parsing and response writing.
//!
//! The parser is deliberately narrow. It accepts exactly the protocol
//! subset this service speaks — `GET`/`POST`, `HTTP/1.1`, CRLF line
//! endings, token header names, a `Content-Length`-framed body — and
//! rejects everything else with a specific 4xx/5xx status instead of
//! guessing. Every dimension of a request is bounded up front
//! ([`MAX_REQUEST_LINE`], [`MAX_HEADER_LINE`], [`MAX_HEADERS`],
//! [`MAX_BODY`]), so a hostile peer cannot make the server allocate
//! without limit. Malformed input is an error value, never a panic:
//! the property tests below feed arbitrary bytes and assert the parser
//! only ever returns a request, a clean rejection, or end-of-stream.
//!
//! Keep-alive and pipelining are supported: [`read_request`] consumes
//! exactly one request's bytes from the stream, leaving any pipelined
//! successor intact for the next call.

use std::io::{BufRead, Write};

/// Upper bound on the request line, in bytes (including `\r\n`).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Upper bound on one header line, in bytes (including `\r\n`).
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers in one request.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a request body, in bytes.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// The request methods this service speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only queries.
    Get,
    /// Submissions and state transitions.
    Post,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// The path component of the target (before any `?`; the query,
    /// which no route reads, is dropped).
    pub path: String,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
}

impl Request {
    /// The value of a (lower-case) header name, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A rejected request: the status to answer with and a human-readable
/// reason carried in the response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code (4xx or 5xx).
    pub status: u16,
    /// What was wrong, phrased for the client.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status,
            reason(self.status),
            self.message
        )
    }
}

impl std::error::Error for HttpError {}

/// The canonical reason phrase for the statuses this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// What one `read_request` call produced.
#[derive(Debug)]
pub enum Parsed {
    /// A complete, well-formed request.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Eof,
}

/// Reads exactly one request from the stream.
///
/// A clean end-of-stream *before any request byte* is [`Parsed::Eof`]
/// (the normal end of a keep-alive connection); end-of-stream anywhere
/// inside a request is a 400. All other deviations from the accepted
/// subset map to the most specific 4xx/5xx status available.
///
/// # Errors
///
/// Returns [`HttpError`] for malformed, oversized, or unsupported
/// requests; the connection should answer with that status and close.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Parsed, HttpError> {
    let Some(line) = read_crlf_line(reader, MAX_REQUEST_LINE, 414)? else {
        return Ok(Parsed::Eof);
    };
    if line.is_empty() {
        return Err(HttpError::new(400, "empty request line"));
    }
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() && !v.is_empty() => {
            (m, t, v)
        }
        _ => {
            return Err(HttpError::new(
                400,
                "request line must be 'METHOD TARGET VERSION' with single spaces",
            ))
        }
    };
    if version != "HTTP/1.1" {
        return Err(HttpError::new(
            505,
            format!("unsupported version {version:?}"),
        ));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => {
            return Err(HttpError::new(
                405,
                format!("unsupported method {method:?}"),
            ))
        }
    };
    if !target.starts_with('/') {
        return Err(HttpError::new(400, "target must be an absolute path"));
    }
    if target.bytes().any(|b| !(0x21..=0x7e).contains(&b)) {
        return Err(HttpError::new(400, "target contains forbidden bytes"));
    }
    let path = target
        .split_once('?')
        .map_or(target, |(p, _)| p)
        .to_string();

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = read_crlf_line(reader, MAX_HEADER_LINE, 431)? else {
            return Err(HttpError::new(400, "connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "header line without ':'"));
        };
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::new(400, format!("bad header name {name:?}")));
        }
        let name = name.to_ascii_lowercase();
        if headers.iter().any(|(n, _)| *n == name) {
            return Err(HttpError::new(400, format!("duplicate header {name:?}")));
        }
        let value = value.trim_matches([' ', '\t']);
        if value.bytes().any(|b| b < 0x20 && b != b'\t') {
            return Err(HttpError::new(400, "control byte in header value"));
        }
        headers.push((name, value.to_string()));
    }

    let request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
        close: false,
    };
    let close = match request.header("connection").map(str::to_ascii_lowercase) {
        None => false,
        Some(v) if v == "close" => true,
        Some(v) if v == "keep-alive" => false,
        Some(v) => return Err(HttpError::new(400, format!("unsupported connection {v:?}"))),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::new(
            501,
            "transfer-encoding is not supported; frame the body with content-length",
        ));
    }
    let length = match request.header("content-length") {
        None => match request.method {
            Method::Get => 0,
            Method::Post => return Err(HttpError::new(411, "POST requires content-length")),
        },
        Some(raw) => {
            if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::new(400, format!("bad content-length {raw:?}")));
            }
            let n: u64 = raw
                .parse()
                .map_err(|_| HttpError::new(400, format!("bad content-length {raw:?}")))?;
            if n > MAX_BODY as u64 {
                return Err(HttpError::new(
                    413,
                    format!("body of {n} bytes exceeds the {MAX_BODY}-byte limit"),
                ));
            }
            if request.method == Method::Get && n != 0 {
                return Err(HttpError::new(400, "GET must not carry a body"));
            }
            n as usize
        }
    };
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| read_error(&e, "connection closed inside the body"))?;
    Ok(Parsed::Request(Request {
        body,
        close,
        ..request
    }))
}

/// Reads one CRLF-terminated line of at most `max` bytes, without the
/// terminator. `None` is a clean end-of-stream before the first byte.
/// A bare `\n`, a stray `\r`, or an overlong line is an error with the
/// given oversize status.
fn read_crlf_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    oversize_status: u16,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(400, "connection closed mid-line"));
            }
            Ok(_) => {}
            Err(e) => return Err(read_error(&e, "read failed")),
        }
        match byte[0] {
            b'\n' => {
                if line.last() != Some(&b'\r') {
                    return Err(HttpError::new(400, "bare LF line ending"));
                }
                line.pop();
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| HttpError::new(400, "non-UTF-8 bytes in line"));
            }
            b => {
                if line.last() == Some(&b'\r') {
                    return Err(HttpError::new(400, "stray CR inside line"));
                }
                if line.len() + 2 > max {
                    return Err(HttpError::new(oversize_status, "line exceeds size limit"));
                }
                line.push(b);
            }
        }
    }
}

/// The rejection for a failed read: 408 when a socket read timeout
/// expired (`WouldBlock` on Unix, `TimedOut` on Windows), else a 400
/// carrying `what`.
fn read_error(e: &std::io::Error, what: &str) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::new(408, "no request data within the read timeout")
        }
        std::io::ErrorKind::UnexpectedEof => HttpError::new(400, what),
        _ => HttpError::new(400, format!("{what}: {e}")),
    }
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'!' | b'#' | b'$' | b'%' | b'&')
}

/// One response, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Whether the connection closes after this response.
    pub close: bool,
}

impl Response {
    /// A 200 with a JSON(L) body.
    #[must_use]
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A 200 with a plain-text body.
    #[must_use]
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// An error response carrying `{"error": ...}` as JSON. Parse
    /// errors close the connection: after a malformed request the
    /// stream position is untrustworthy.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        body.push_str(&rrs_core::io::json_string(message));
        body.push_str("}\n");
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: status != 404 && status != 405,
        }
    }

    /// Serializes the response, including `Content-Length` framing.
    ///
    /// # Errors
    ///
    /// Propagates write failures (a peer that went away mid-response).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close {
                "Connection: close\r\n"
            } else {
                ""
            },
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

impl From<HttpError> for Response {
    fn from(e: HttpError) -> Self {
        Response::error(e.status, &e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::{RrsRng, Xoshiro256pp};
    use rrs_core::{prop_assert, props};
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Parsed, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()))
    }

    fn parse_ok(bytes: &[u8]) -> Request {
        match parse(bytes) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn status_of(bytes: &[u8]) -> u16 {
        match parse(bytes) {
            Err(e) => e.status,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn minimal_get_parses() {
        let r = parse_ok(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert!(!r.close);
        assert!(r.body.is_empty());
    }

    #[test]
    fn post_with_body_parses() {
        let r = parse_ok(b"POST /ratings HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn query_is_split_off() {
        let r = parse_ok(b"GET /trust?full=1 HTTP/1.1\r\n\r\n");
        assert_eq!(r.path, "/trust");
    }

    #[test]
    fn connection_close_is_honored() {
        let r = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(r.close);
    }

    #[test]
    fn clean_eof_between_requests() {
        assert!(matches!(parse(b""), Ok(Parsed::Eof)));
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let mut cursor = Cursor::new(
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /b HTTP/1.1\r\n\r\n"
                .to_vec(),
        );
        let first = match read_request(&mut cursor) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("first: {other:?}"),
        };
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"hi");
        let second = match read_request(&mut cursor) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("second: {other:?}"),
        };
        assert_eq!(second.path, "/b");
        assert!(matches!(read_request(&mut cursor), Ok(Parsed::Eof)));
    }

    #[test]
    fn malformed_request_lines_are_400() {
        assert_eq!(status_of(b"\r\n\r\n"), 400);
        assert_eq!(status_of(b"GET\r\n\r\n"), 400);
        assert_eq!(status_of(b"GET /x\r\n\r\n"), 400);
        assert_eq!(status_of(b"GET  /x HTTP/1.1\r\n\r\n"), 400);
        assert_eq!(status_of(b"GET /x HTTP/1.1 extra\r\n\r\n"), 400);
        assert_eq!(status_of(b"GET x HTTP/1.1\r\n\r\n"), 400);
        assert_eq!(status_of(b"GET /x\t HTTP/1.1\r\n\r\n"), 400);
    }

    #[test]
    fn bare_lf_and_stray_cr_are_rejected() {
        assert_eq!(status_of(b"GET /x HTTP/1.1\n\r\n"), 400);
        assert_eq!(status_of(b"GET /x HT\rTP/1.1\r\n\r\n"), 400);
    }

    #[test]
    fn unsupported_version_is_505() {
        assert_eq!(status_of(b"GET /x HTTP/1.0\r\n\r\n"), 505);
        assert_eq!(status_of(b"GET /x HTTP/2\r\n\r\n"), 505);
    }

    #[test]
    fn unsupported_method_is_405() {
        assert_eq!(status_of(b"DELETE /x HTTP/1.1\r\n\r\n"), 405);
        assert_eq!(status_of(b"get /x HTTP/1.1\r\n\r\n"), 405);
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE));
        req.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(status_of(&req), 414);
    }

    #[test]
    fn oversized_header_is_431() {
        let mut req = b"GET /x HTTP/1.1\r\nBig: ".to_vec();
        req.extend(std::iter::repeat_n(b'v', MAX_HEADER_LINE));
        req.extend_from_slice(b"\r\n\r\n");
        assert_eq!(status_of(&req), 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut req = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            req.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        req.extend_from_slice(b"\r\n");
        assert_eq!(status_of(&req), 431);
    }

    #[test]
    fn duplicate_headers_are_400() {
        assert_eq!(
            status_of(b"GET /x HTTP/1.1\r\nHost: a\r\nhost: b\r\n\r\n"),
            400
        );
        assert_eq!(
            status_of(b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nz"),
            400
        );
    }

    #[test]
    fn header_folding_is_rejected() {
        // An obs-fold continuation line has no ':' before whitespace —
        // and a name starting with space is not a token.
        assert_eq!(
            status_of(b"GET /x HTTP/1.1\r\nHost: a\r\n folded\r\n\r\n"),
            400
        );
    }

    #[test]
    fn truncated_requests_are_400() {
        assert_eq!(status_of(b"GET /x HT"), 400);
        assert_eq!(status_of(b"GET /x HTTP/1.1\r\nHost: a\r\n"), 400);
        assert_eq!(
            status_of(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            400
        );
    }

    #[test]
    fn body_framing_is_strict() {
        assert_eq!(status_of(b"POST /x HTTP/1.1\r\n\r\n"), 411);
        assert_eq!(
            status_of(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            400
        );
        assert_eq!(
            status_of(b"POST /x HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n"),
            400
        );
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(status_of(huge.as_bytes()), 413);
        assert_eq!(
            status_of(b"GET /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"),
            400
        );
        assert_eq!(
            status_of(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501
        );
    }

    /// A reader that yields `prefix`, then fails every read with `kind`
    /// — what a socket whose read timeout expired does.
    struct Stalled {
        prefix: Cursor<Vec<u8>>,
        kind: std::io::ErrorKind,
    }

    impl std::io::Read for Stalled {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.prefix.read(buf)? {
                0 => Err(std::io::Error::new(self.kind, "timed out")),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn timed_out_reads_are_408() {
        use std::io::{BufReader, ErrorKind};
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            for prefix in [
                &b""[..],
                b"GET /heal",
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
                b"POST /ratings HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            ] {
                let mut reader = BufReader::new(Stalled {
                    prefix: Cursor::new(prefix.to_vec()),
                    kind,
                });
                match read_request(&mut reader) {
                    Err(e) => assert_eq!(e.status, 408, "{kind:?} after {prefix:?}: {e}"),
                    other => panic!("{kind:?} after {prefix:?}: expected 408, got {other:?}"),
                }
            }
        }
        assert_eq!(reason(408), "Request Timeout");
        // Any other read failure stays a 400.
        let mut reader = BufReader::new(Stalled {
            prefix: Cursor::new(Vec::new()),
            kind: ErrorKind::ConnectionReset,
        });
        assert!(matches!(read_request(&mut reader), Err(e) if e.status == 400));
    }

    #[test]
    fn response_serializes_with_length_framing() {
        let mut out = Vec::new();
        Response::json("{\"ok\":true}\n".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}\n"));
        let mut out = Vec::new();
        Response::error(400, "nope").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("\"error\":\"nope\""));
    }

    #[test]
    fn error_body_escapes_the_message() {
        assert_eq!(Response::error(400, "x").body, b"{\"error\":\"x\"}\n");
        let body = String::from_utf8(Response::error(400, "a\"b").body).unwrap();
        assert!(body.contains("\\\""), "{body}");
    }

    /// Mutates one spot of a valid request into garbage.
    fn corrupt(base: &[u8], rng: &mut Xoshiro256pp) -> Vec<u8> {
        let mut bytes = base.to_vec();
        match rng.gen::<u8>() % 4 {
            0 => {
                // Flip a byte.
                let at = (rng.gen::<u64>() as usize) % bytes.len();
                bytes[at] = rng.gen::<u8>();
            }
            1 => {
                // Truncate.
                let at = (rng.gen::<u64>() as usize) % bytes.len();
                bytes.truncate(at);
            }
            2 => {
                // Insert a byte.
                let at = (rng.gen::<u64>() as usize) % bytes.len();
                bytes.insert(at, rng.gen::<u8>());
            }
            _ => {
                // Duplicate a random slice.
                let at = (rng.gen::<u64>() as usize) % bytes.len();
                let len = ((rng.gen::<u64>() as usize) % 16).min(bytes.len() - at);
                let slice = bytes[at..at + len].to_vec();
                bytes.splice(at..at, slice);
            }
        }
        bytes
    }

    props! {
        #[test]
        fn parser_never_panics_on_corrupted_requests(seed in 0u64..4096) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let base: &[u8] = if seed % 2 == 0 {
                b"POST /ratings HTTP/1.1\r\nContent-Length: 25\r\n\r\n{\"rater\":1,\"product\":0}\r\n"
            } else {
                b"GET /products/3/score HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n"
            };
            let mutated = corrupt(base, &mut rng);
            // Any outcome is fine except a panic or a nonsensical status.
            match parse(&mutated) {
                Ok(_) => {}
                Err(e) => prop_assert!(
                    (400..=505).contains(&e.status),
                    "implausible status {} for {:?}",
                    e.status,
                    mutated
                ),
            }
        }

        #[test]
        fn parser_never_panics_on_random_bytes(seed in 0u64..4096) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x9e37_79b9);
            let len = (rng.gen::<u64>() as usize) % 256;
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            match parse(&bytes) {
                Ok(_) => {}
                Err(e) => prop_assert!(
                    (400..=505).contains(&e.status),
                    "implausible status {} for {:?}",
                    e.status,
                    bytes
                ),
            }
        }
    }
}

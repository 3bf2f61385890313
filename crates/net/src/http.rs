//! A minimal HTTP/1.0 parser and response builder.
//!
//! OKWS's ok-demux parses request lines and headers to route connections to
//! workers (§7); this module provides exactly that much HTTP. The §9.2
//! benchmark responses are 144 bytes with 133 bytes of headers, which the
//! response builder reproduces.

use std::collections::BTreeMap;
use std::fmt;

use asbestos_kernel::Payload;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, without the query string.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers, lower-cased keys.
    pub headers: BTreeMap<String, String>,
    /// Request body (bytes after the blank line).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First query parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first path segment, used by ok-demux as the service name:
    /// `/login?u=alice` → `login`.
    pub fn service(&self) -> &str {
        self.path
            .trim_start_matches('/')
            .split('/')
            .next()
            .unwrap_or("")
    }
}

/// Why a request failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The byte buffer does not yet contain a full head (`\r\n\r\n`).
    Incomplete,
    /// The request line is malformed.
    BadRequestLine,
    /// A header line is malformed.
    BadHeader,
    /// The request is not valid UTF-8 where text is required.
    BadEncoding,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            HttpError::Incomplete => "incomplete request head",
            HttpError::BadRequestLine => "malformed request line",
            HttpError::BadHeader => "malformed header",
            HttpError::BadEncoding => "request head is not UTF-8",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HttpError {}

/// Parses one HTTP request from `buf`.
///
/// Returns [`HttpError::Incomplete`] until the head terminator arrives, so
/// callers can accumulate bytes across READ replies.
pub fn parse_request(buf: &[u8]) -> Result<HttpRequest, HttpError> {
    let head_end = find_head_end(buf).ok_or(HttpError::Incomplete)?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpError::BadEncoding)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::BadRequestLine)?;
    let target = parts.next().ok_or(HttpError::BadRequestLine)?;
    let _version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequestLine);
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = parse_query(query_str);

    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }

    let body = buf[head_end + 4..].to_vec();
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

/// Splits `a=1&b=2` into pairs; `%`-decoding is limited to `%20` and `+`
/// (all the benchmark workloads need).
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (decode(k), decode(v)),
            None => (decode(kv), String::new()),
        })
        .collect()
}

fn decode(s: &str) -> String {
    s.replace('+', " ").replace("%20", " ")
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decimal digit count (for exact response-head sizing).
fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Exact byte length of the response head `build_response` emits for
/// this status line and body length.
fn head_len(status: u16, reason: &str, body_len: usize) -> usize {
    // "HTTP/1.0 {status} {reason}\r\n"
    let status_line = 9 + digits(status as usize) + 1 + reason.len() + 2;
    // Fixed headers, the width-padded Content-Length, and the blank line.
    let content_length = 16 + digits(body_len).max(5) + 2;
    status_line + 31 + 41 + content_length + 19 + 2
}

/// Builds an HTTP/1.0 response as a shared [`Payload`].
///
/// The buffer is preallocated at its exact final size and written once —
/// the single payload materialization on a worker's response path; every
/// later hop (OKWS → netd → substrate) moves the refcount. The body can
/// be re-extracted as a shared slice with [`response_body`].
///
/// With the default server headers and a 11-byte body this produces exactly
/// the paper's 144-byte benchmark response (133 bytes of headers).
pub fn build_response(status: u16, reason: &str, body: &[u8]) -> Payload {
    use std::io::Write as _;
    let exact = head_len(status, reason, body.len()) + body.len();
    let mut out = Vec::with_capacity(exact);
    // `write!` into the Vec: no intermediate format! allocations.
    let _ = write!(out, "HTTP/1.0 {status} {reason}\r\n");
    out.extend_from_slice(b"Server: OKWS/Asbestos SOSP-05\r\n");
    out.extend_from_slice(b"Content-Type: text/plain; charset=utf-8\r\n");
    let _ = write!(out, "Content-Length: {:>5}\r\n", body.len());
    out.extend_from_slice(b"Connection: close\r\n");
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    debug_assert_eq!(out.len(), exact, "head_len must size the head exactly");
    debug_assert_eq!(out.capacity(), exact, "response build must not realloc");
    out.into()
}

/// Convenience: `200 OK` with the given body.
pub fn ok_response(body: &[u8]) -> Payload {
    build_response(200, "OK", body)
}

/// The body of a built response, as a zero-copy slice sharing the
/// response's buffer (e.g. for caching a served body without rebuilding
/// or copying it).
pub fn response_body(response: &Payload) -> Payload {
    match response.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(head) => response.slice(head + 4..response.len()),
        None => response.slice(0..0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_with_query_and_headers() {
        let raw =
            b"GET /login?user=alice&pw=secret HTTP/1.0\r\nHost: example.test\r\nX-Tag: 7\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/login");
        assert_eq!(req.service(), "login");
        assert_eq!(req.param("user"), Some("alice"));
        assert_eq!(req.param("pw"), Some("secret"));
        assert_eq!(
            req.headers.get("host").map(String::as_str),
            Some("example.test")
        );
        assert_eq!(req.headers.get("x-tag").map(String::as_str), Some("7"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn incomplete_until_blank_line() {
        assert_eq!(
            parse_request(b"GET / HTTP/1.0\r\nHost: x\r\n"),
            Err(HttpError::Incomplete)
        );
        assert!(parse_request(b"GET / HTTP/1.0\r\n\r\n").is_ok());
    }

    #[test]
    fn body_is_preserved() {
        let raw = b"POST /store HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(parse_request(b"\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(
            parse_request(b"GET /\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.0\r\nbad-header-line\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
    }

    #[test]
    fn query_decoding() {
        let q = parse_query("a=1+2&b=x%20y&flag");
        assert_eq!(
            q,
            vec![
                ("a".into(), "1 2".into()),
                ("b".into(), "x y".into()),
                ("flag".into(), String::new()),
            ]
        );
    }

    #[test]
    fn benchmark_response_is_144_bytes() {
        // §9.2.1: "the server responded with 144 bytes of HTTP data, 133
        // bytes of which were in headers."
        let resp = ok_response(b"hello world");
        assert_eq!(resp.len(), 144, "total response bytes");
        let head_len = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(head_len, 133, "header bytes");
    }

    #[test]
    fn build_is_one_materialization_and_body_slice_is_shared() {
        let before = Payload::deep_copies();
        let resp = build_response(200, "OK", b"hello world");
        assert_eq!(
            Payload::deep_copies(),
            before + 1,
            "one exact-capacity buffer, written once"
        );
        let body = response_body(&resp);
        assert_eq!(&body[..], b"hello world");
        assert_eq!(body.backing_id(), resp.backing_id(), "zero-copy slice");
        assert_eq!(Payload::deep_copies(), before + 1);
    }

    #[test]
    fn head_len_matches_for_varied_statuses_and_bodies() {
        for (status, reason, body) in [
            (200u16, "OK", &b"hello world"[..]),
            (404, "Not Found", b""),
            (503, "Service Unavailable", b"idd unavailable"),
            (200, "OK", &[0u8; 123_456][..]),
        ] {
            let resp = build_response(status, reason, body);
            assert_eq!(
                resp.len(),
                head_len(status, reason, body.len()) + body.len()
            );
        }
    }

    #[test]
    fn path_without_query() {
        let req = parse_request(b"GET /plain HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.path, "/plain");
        assert!(req.query.is_empty());
        assert_eq!(req.param("missing"), None);
    }
}

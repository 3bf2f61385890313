//! A minimal HTTP/1.0 parser and response builder.
//!
//! OKWS's ok-demux parses request lines and headers to route connections to
//! workers (§7); this module provides exactly that much HTTP. The §9.2
//! benchmark responses are 144 bytes with 133 bytes of headers, which the
//! response builder reproduces.
//!
//! A parsed [`HttpRequest`] owns one text buffer: the method, the path,
//! then each decoded query key and value and each header name (lower-cased)
//! and value, back to back, with spans into it. Parsing the benchmark's
//! request therefore allocates twice — the buffer and the span list, each
//! at its final size — and the body, copied only when there is one, a
//! third time. Query decoding is `+` and `%20` to a space, nothing else;
//! [`HttpRequest::param`] answers the first pair with a key, and
//! [`HttpRequest::header`] the last header with a name.

use std::fmt;
use std::ops::Range;

use asbestos_kernel::Payload;

/// A byte range of an [`HttpRequest`]'s text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start..self.end
    }
}

/// A parsed HTTP request: one text buffer and spans into it (see the
/// module docs), plus the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    text: String,
    method: Span,
    path: Span,
    /// `(key, value)` spans: the query parameters in order of appearance,
    /// then the headers in order of appearance.
    pairs: Vec<(Span, Span)>,
    /// How many of `pairs` are query parameters.
    params: usize,
    body: Vec<u8>,
}

impl HttpRequest {
    fn at(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    /// Appends `s` to the text, passed through `edit`, and returns its
    /// span.
    fn push(&mut self, s: &str, edit: fn(&mut String, &str)) -> Span {
        let start = self.text.len();
        edit(&mut self.text, s);
        Span {
            start,
            end: self.text.len(),
        }
    }

    /// Request method (`GET`, `POST`, …).
    pub fn method(&self) -> &str {
        self.at(self.method)
    }

    /// Path component, without the query string.
    pub fn path(&self) -> &str {
        self.at(self.path)
    }

    /// The decoded query parameters, in order of appearance.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.pairs[..self.params]
            .iter()
            .map(|&(k, v)| (self.at(k), self.at(v)))
    }

    /// First query parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// The value of the last header named `name`, trimmed. Names are
    /// stored lower-cased, so `name` must be lower-case.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.pairs[self.params..]
            .iter()
            .rev()
            .find(|&&(k, _)| self.at(k) == name)
            .map(|&(_, v)| self.at(v))
    }

    /// Request body (bytes after the blank line).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The first path segment, used by ok-demux as the service name:
    /// `/login?u=alice` → `login`.
    pub fn service(&self) -> &str {
        self.path()
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
    let (request_line, header_lines) = head.split_once("\r\n").unwrap_or((head, ""));
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
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    // Decoding and trimming only shorten text, so the head's length bounds
    // the buffer, and the separators bound the pairs: neither grows.
    let pairs = query.matches('&').count() + 1 + header_lines.matches("\r\n").count() + 1;
    let mut req = HttpRequest {
        text: String::with_capacity(head_end),
        method: Span { start: 0, end: 0 },
        path: Span { start: 0, end: 0 },
        pairs: Vec::with_capacity(pairs),
        params: 0,
        body: Vec::new(),
    };
    req.method = req.push(method, String::push_str);
    req.path = req.push(path, String::push_str);
    for (k, v) in query_pairs(query) {
        let pair = (req.push(k, decode_into), req.push(v, decode_into));
        req.pairs.push(pair);
    }
    req.params = req.pairs.len();
    for line in header_lines.split("\r\n") {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        let key = req.push(k.trim(), String::push_str);
        req.text[key.range()].make_ascii_lowercase();
        let value = req.push(v.trim(), String::push_str);
        req.pairs.push((key, value));
    }
    let body = &buf[head_end + 4..];
    if !body.is_empty() {
        req.body = body.to_vec();
    }
    Ok(req)
}

/// The `key=value` pieces of a query string, undecoded: empty pieces are
/// skipped, and a piece without `=` is a key with an empty value.
fn query_pairs(query: &str) -> impl Iterator<Item = (&str, &str)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
}

/// Appends `s` to `out` with each `+` and each `%20` turned into a space.
fn decode_into(out: &mut String, mut s: &str) {
    while let Some(i) = s.find(['+', '%']) {
        out.push_str(&s[..i]);
        let rest = &s[i..];
        if rest.starts_with('+') || rest.starts_with("%20") {
            out.push(' ');
            s = &rest[if rest.starts_with('+') { 1 } else { 3 }..];
        } else {
            out.push('%');
            s = &rest[1..];
        }
    }
    out.push_str(s);
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
/// The buffer is allocated once, at its exact final size, and written in
/// place — the single payload materialization and the single allocation
/// on a worker's response path; every later hop (OKWS → netd → substrate)
/// moves the refcount.
///
/// With the default server headers and a 11-byte body this produces exactly
/// the paper's 144-byte benchmark response (133 bytes of headers).
pub fn build_response(status: u16, reason: &str, body: &[u8]) -> Payload {
    use std::io::Write as _;
    let exact = head_len(status, reason, body.len()) + body.len();
    // `write!` into the buffer: no intermediate format! allocations. A
    // slice refuses to write past its end, so a head longer than
    // `head_len` fails a write and a shorter one fails the assert.
    let fill = |mut out: &mut [u8]| -> std::io::Result<()> {
        write!(out, "HTTP/1.0 {status} {reason}\r\n")?;
        out.write_all(b"Server: OKWS/Asbestos SOSP-05\r\n")?;
        out.write_all(b"Content-Type: text/plain; charset=utf-8\r\n")?;
        write!(out, "Content-Length: {:>5}\r\n", body.len())?;
        out.write_all(b"Connection: close\r\n")?;
        out.write_all(b"\r\n")?;
        out.write_all(body)?;
        assert!(out.is_empty(), "head_len must size the head exactly");
        Ok(())
    };
    Payload::build(exact, |out| {
        fill(out).expect("head_len must size the head exactly")
    })
}

/// Convenience: `200 OK` with the given body.
pub fn ok_response(body: &[u8]) -> Payload {
    build_response(200, "OK", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_with_query_and_headers() {
        let raw =
            b"GET /login?user=alice&pw=secret HTTP/1.0\r\nHost: example.test\r\nX-Tag: 7\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path(), "/login");
        assert_eq!(req.service(), "login");
        assert_eq!(req.param("user"), Some("alice"));
        assert_eq!(req.param("pw"), Some("secret"));
        assert_eq!(req.header("host"), Some("example.test"));
        assert_eq!(req.header("x-tag"), Some("7"));
        assert!(req.body().is_empty());
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
        assert_eq!(req.body(), b"hello");
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
        let req = parse_request(b"GET /q?a=1+2&b=x%20y&flag HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(
            req.params().collect::<Vec<_>>(),
            vec![("a", "1 2"), ("b", "x y"), ("flag", "")]
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
    fn build_is_one_materialization() {
        let before = Payload::deep_copies();
        let _response = build_response(200, "OK", b"hello world");
        assert_eq!(
            Payload::deep_copies(),
            before + 1,
            "one exact-capacity buffer, written once"
        );
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
        assert_eq!(req.path(), "/plain");
        assert_eq!(req.params().count(), 0);
        assert_eq!(req.param("missing"), None);
    }
}

//! Property tests for the HTTP layer: build→parse roundtrips, no-panic
//! guarantees on arbitrary input, and equivalence with the eager parser
//! the one-buffer `HttpRequest` replaced, kept here as the reference.

use std::collections::BTreeMap;

use asbestos_net::http::{build_response, parse_request, HttpError};
use proptest::prelude::*;

/// The reference: every part of the request in its own `String`, headers
/// in a map (last wins), the query decoded by `replace`.
#[derive(Debug)]
struct EagerRequest {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

impl EagerRequest {
    fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn service(&self) -> &str {
        self.path
            .trim_start_matches('/')
            .split('/')
            .next()
            .unwrap_or("")
    }
}

fn eager_parse(buf: &[u8]) -> Result<EagerRequest, HttpError> {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Incomplete)?;
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
    let decode = |s: &str| s.replace('+', " ").replace("%20", " ");
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (decode(k), decode(v)),
            None => (decode(kv), String::new()),
        })
        .collect();
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }
    Ok(EagerRequest {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body: buf[head_end + 4..].to_vec(),
    })
}

/// Query text made of the pieces the decoder treats specially: `+`,
/// `%20` and its near misses, `=`, `&` and empty pieces.
fn arb_query() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("+".to_string()),
        Just("%20".to_string()),
        Just("%2".to_string()),
        Just("%".to_string()),
        Just("20".to_string()),
        Just("=".to_string()),
        Just("&".to_string()),
        "[a-c]{1,3}",
    ];
    prop::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
}

fn arb_token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,12}".prop_map(|s| s)
}

proptest! {
    #[test]
    fn parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_request(&bytes);
    }

    /// Any printable query string, spaces written as `+`, parses.
    #[test]
    fn query_parser_never_panics(s in "\\PC{0,128}") {
        let raw = format!("GET /q?{} HTTP/1.0\r\n\r\n", s.replace(' ', "+"));
        prop_assert!(parse_request(raw.as_bytes()).is_ok());
    }

    #[test]
    fn request_roundtrip(
        method in arb_token(),
        path in "[a-z]{1,10}",
        params in prop::collection::vec((arb_token(), arb_token()), 0..5),
        headers in prop::collection::vec((arb_token(), arb_token()), 0..4),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let query: String = params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("&");
        let target = if query.is_empty() {
            format!("/{path}")
        } else {
            format!("/{path}?{query}")
        };
        let mut raw = format!("{method} {target} HTTP/1.0\r\n");
        for (k, v) in &headers {
            raw.push_str(&format!("{k}: {v}\r\n"));
        }
        raw.push_str("\r\n");
        let mut raw = raw.into_bytes();
        raw.extend_from_slice(&body);

        let req = parse_request(&raw).expect("well-formed request parses");
        prop_assert_eq!(req.method(), method.as_str());
        prop_assert_eq!(req.path(), format!("/{path}"));
        prop_assert_eq!(req.service(), path.as_str());
        prop_assert_eq!(req.body(), &body[..]);
        for (k, v) in &params {
            // Duplicate keys resolve to the first occurrence.
            let first = params.iter().find(|(pk, _)| pk == k).map(|(_, pv)| pv.as_str());
            prop_assert_eq!(req.param(k), first);
            let _ = v;
        }
        for (k, v) in &headers {
            // Duplicate header keys resolve to the last occurrence.
            let last = headers
                .iter()
                .rev()
                .find(|(hk, _)| hk.eq_ignore_ascii_case(k))
                .map(|(_, hv)| hv.as_str());
            prop_assert_eq!(req.header(&k.to_ascii_lowercase()), last);
            let _ = v;
        }
    }

    /// The one-buffer parser answers every question exactly as the eager
    /// reference does: the verdict, the method, the path, the service,
    /// `param` for every key (and one absent), every header lookup (and
    /// one absent), and the body.
    #[test]
    fn one_buffer_parse_matches_the_eager_reference(
        method in "[A-Z]{1,6}",
        path in "/[a-z/]{0,8}",
        query in arb_query(),
        headers in prop::collection::vec(("[a-zA-Z-]{1,6}", " ?[a-z0-9 ]{0,6}"), 0..5),
        repeat in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let target = if query.is_empty() { path.clone() } else { format!("{path}?{query}") };
        let mut raw = format!("{method} {target} HTTP/1.0\r\n");
        for (k, v) in &headers {
            raw.push_str(&format!("{k}:{v}\r\n"));
        }
        if repeat {
            if let Some((k, _)) = headers.first() {
                raw.push_str(&format!("{}: again\r\n", k.to_ascii_uppercase()));
            }
        }
        raw.push_str("\r\n");
        let mut raw = raw.into_bytes();
        raw.extend_from_slice(&body);

        let (got, want) = (parse_request(&raw), eager_parse(&raw));
        prop_assert_eq!(got.as_ref().err(), want.as_ref().err());
        let (Ok(got), Ok(want)) = (got, want) else {
            return;
        };
        prop_assert_eq!(got.method(), want.method.as_str());
        prop_assert_eq!(got.path(), want.path.as_str());
        prop_assert_eq!(got.service(), want.service());
        prop_assert_eq!(got.body(), &want.body[..]);
        let params: Vec<(&str, &str)> = got.params().collect();
        let want_params: Vec<(&str, &str)> =
            want.query.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        prop_assert_eq!(params, want_params);
        for (k, _) in want.query.iter().chain([&("missing".to_string(), String::new())]) {
            prop_assert_eq!(got.param(k), want.param(k));
        }
        for (k, _) in headers.iter().chain([&("absent".to_string(), String::new())]) {
            let k = k.to_ascii_lowercase();
            prop_assert_eq!(got.header(&k), want.headers.get(&k).map(String::as_str));
        }
    }

    /// The same on arbitrary bytes: whatever either parser makes of them.
    #[test]
    fn one_buffer_parse_matches_the_eager_reference_on_any_bytes(
        bytes in prop::collection::vec(
            prop_oneof![any::<u8>(), Just(b'\r'), Just(b'\n'), Just(b' '), Just(b'?'), Just(b'=')],
            0..128,
        ),
    ) {
        let mut raw = bytes;
        raw.extend_from_slice(b"\r\n\r\n");
        let (got, want) = (parse_request(&raw), eager_parse(&raw));
        prop_assert_eq!(got.as_ref().err(), want.as_ref().err());
        if let (Ok(got), Ok(want)) = (got, want) {
            prop_assert_eq!(got.method(), want.method.as_str());
            prop_assert_eq!(got.path(), want.path.as_str());
            let params: Vec<(&str, &str)> = got.params().collect();
            let want_params: Vec<(&str, &str)> =
                want.query.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            prop_assert_eq!(params, want_params);
            for (k, v) in &want.headers {
                prop_assert_eq!(got.header(k), Some(v.as_str()));
            }
            prop_assert_eq!(got.body(), &want.body[..]);
        }
    }

    #[test]
    fn response_shape(status in 100u16..600, body in prop::collection::vec(any::<u8>(), 0..256)) {
        let resp = build_response(status, "Reason", &body);
        // Head terminator present, body intact after it.
        let head_end = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        prop_assert_eq!(&resp[head_end..], &body[..]);
        let head = std::str::from_utf8(&resp[..head_end]).unwrap();
        let status_line = format!("HTTP/1.0 {} ", status);
        let content_length = format!("Content-Length: {:>5}", body.len());
        prop_assert!(head.starts_with(&status_line));
        prop_assert!(head.contains(&content_length));
    }
}

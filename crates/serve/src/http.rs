//! Hand-rolled, sans-io HTTP/1.1 request parsing and response building —
//! just enough for a metrics scrape and admin POSTs, with zero
//! dependencies. One request per connection (`Connection: close`).

/// Maximum accepted header block, bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Maximum accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// The longest acceptable request: header block, its blank line, body.
/// The parser never buffers more.
pub const MAX_REQUEST_BYTES: usize = MAX_HEADER_BYTES + 4 + MAX_BODY_BYTES;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Uppercase method ("GET", "POST", ...).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// The stream is not parseable HTTP: answer 400 and close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadRequest;

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed HTTP request")
    }
}

impl std::error::Error for BadRequest {}

/// Incremental request parser. Feed bytes as they arrive and ask for
/// the request after every feed; a complete request pops out once,
/// further bytes are ignored. Memory is bounded whatever the peer sends.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
}

impl HttpParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        HttpParser::default()
    }

    /// Appends newly read bytes, up to [`MAX_REQUEST_BYTES`] in all.
    /// Every acceptable request fits, so what is dropped can only belong
    /// to a stream [`HttpParser::take_request`] refuses anyway.
    pub fn feed(&mut self, bytes: &[u8]) {
        let room = MAX_REQUEST_BYTES.saturating_sub(self.buf.len());
        self.buf.extend_from_slice(&bytes[..bytes.len().min(room)]);
    }

    /// Tries to extract a complete request. `Ok(None)` means "need more
    /// bytes"; `Err` means the stream is not parseable HTTP (answer 400
    /// and close).
    pub fn take_request(&mut self) -> Result<Option<HttpRequest>, BadRequest> {
        let header_end = match find_subslice(&self.buf, b"\r\n\r\n") {
            Some(i) if i > MAX_HEADER_BYTES => return Err(BadRequest),
            Some(i) => i,
            None if self.buf.len() > MAX_HEADER_BYTES => return Err(BadRequest),
            None => return Ok(None),
        };
        let head = std::str::from_utf8(&self.buf[..header_end]).map_err(|_| BadRequest)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(BadRequest)?;
        let mut parts = request_line.split_ascii_whitespace();
        let method = parts.next().ok_or(BadRequest)?.to_ascii_uppercase();
        let path = parts.next().ok_or(BadRequest)?.to_string();
        let version = parts.next().ok_or(BadRequest)?;
        if !version.starts_with("HTTP/1.") {
            return Err(BadRequest);
        }
        // Digits only (`usize::from_str` would take "+5") and at most one
        // header: two readers of one request must agree where it ends.
        let mut content_length: Option<usize> = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    let value = value.trim();
                    if content_length.is_some() || !value.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(BadRequest);
                    }
                    content_length = Some(value.parse().map_err(|_| BadRequest)?);
                }
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(BadRequest);
        }
        let body_start = header_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.clear();
        Ok(Some(HttpRequest { method, path, body }))
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Builds a complete `Connection: close` response.
pub fn response(status: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Shorthand for a `text/plain` response.
pub fn text_response(status: u16, reason: &str, body: &str) -> Vec<u8> {
    response(status, reason, "text/plain; charset=utf-8", body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_get_split_across_feeds() {
        let mut p = HttpParser::new();
        p.feed(b"GET /metrics HT");
        assert_eq!(p.take_request().unwrap(), None);
        p.feed(b"TP/1.1\r\nHost: x\r\n\r\n");
        let req = p.take_request().unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let mut p = HttpParser::new();
        p.feed(b"POST /admin/budget HTTP/1.1\r\nContent-Length: 11\r\n\r\nwatts=");
        assert_eq!(p.take_request().unwrap(), None);
        p.feed(b"290.5");
        let req = p.take_request().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"watts=290.5");
    }

    #[test]
    fn garbage_is_rejected() {
        let mut p = HttpParser::new();
        p.feed(b"\x00\x01\x02garbage\r\n\r\n");
        assert!(p.take_request().is_err());
    }

    fn oversized_header(terminated: bool) -> Vec<u8> {
        let mut bytes = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        bytes.resize(60 * 1024, b'a');
        if terminated {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        bytes
    }

    #[test]
    fn an_oversized_header_is_refused_with_or_without_its_terminator() {
        for terminated in [false, true] {
            let mut p = HttpParser::new();
            p.feed(&oversized_header(terminated));
            assert_eq!(
                p.take_request(),
                Err(BadRequest),
                "terminated: {terminated}"
            );
        }
        // The limit itself is acceptable.
        let mut exact = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        exact.resize(MAX_HEADER_BYTES, b'a');
        exact.extend_from_slice(b"\r\n\r\n");
        let mut p = HttpParser::new();
        p.feed(&exact);
        assert!(p.take_request().unwrap().is_some());
    }

    #[test]
    fn an_endless_stream_is_refused_in_bounded_memory() {
        // What a read loop that only parses at the end does: 1 MB in
        // 16 KB slices, no `take_request` between them.
        let mut p = HttpParser::new();
        for _ in 0..64 {
            p.feed(&[b'a'; 16 * 1024]);
            assert!(p.buf.len() <= MAX_REQUEST_BYTES);
        }
        assert_eq!(p.take_request(), Err(BadRequest));
        // A full-size request still fits under the same bound.
        let mut p = HttpParser::new();
        let mut request =
            format!("POST /admin/policy HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\nX-Pad: ")
                .into_bytes();
        request.resize(MAX_HEADER_BYTES, b'a');
        request.extend_from_slice(b"\r\n\r\n");
        request.resize(MAX_REQUEST_BYTES, b'b');
        for slice in request.chunks(16 * 1024) {
            p.feed(slice);
        }
        p.feed(b"pipelined bytes beyond the request are dropped");
        let req = p.take_request().unwrap().unwrap();
        assert_eq!(req.body.len(), MAX_BODY_BYTES);
    }

    #[test]
    fn content_length_must_be_one_run_of_digits() {
        for head in [
            "Content-Length: +5",
            "Content-Length: -0",
            "Content-Length: 5 5",
            "Content-Length: 0x5",
            "Content-Length: 5\r\nContent-Length: 5",
            "Content-Length: 5\r\ncontent-length: 6",
        ] {
            let mut p = HttpParser::new();
            p.feed(format!("POST /admin/budget HTTP/1.1\r\n{head}\r\n\r\nwatts").as_bytes());
            assert_eq!(p.take_request(), Err(BadRequest), "{head}");
        }
    }

    #[test]
    fn response_has_content_length_and_close() {
        let bytes = text_response(200, "OK", "ok\n");
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nok\n"));
    }
}

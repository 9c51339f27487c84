//! A minimal HTTP/1.1 layer over `std::net` — request parsing, response
//! writing, chunked streaming, keep-alive.
//!
//! The build environment is fully offline, so there is no tokio/hyper to
//! lean on; the server is thread-per-connection over blocking sockets,
//! which is exactly right for a repair service whose requests each fan out
//! over the work-stealing scheduler anyway (DESIGN.md §5). The subset
//! implemented is what the service needs and nothing more: request line +
//! headers + `Content-Length` bodies in, fixed or chunked responses out,
//! HTTP/1.1 persistent connections with explicit `Connection` semantics
//! (the connection loop in `lib.rs` owns the idle-timeout and
//! requests-per-connection policy; this layer only parses the client's
//! preference and stamps the decision onto responses).
//!
//! Failure mapping (DESIGN.md §9): a read that times out mid-request is
//! `408 Request Timeout`; a body above the cap is `413`; an oversized
//! header block is `431`; everything else malformed is `400`. A peer that
//! connects and never sends a byte is closed silently — that is a probe or
//! an idle keep-alive connection, not an error.
//!
//! Responses are written into a fixed-size [`response_buffer`] and leave
//! with one `flush` each, on a `TCP_NODELAY` socket: a response that fits
//! the buffer is one socket write, so no small trailing segment waits on
//! Nagle's algorithm for the client's delayed ACK.

use std::io::{BufRead, BufWriter, Read, Write};
use std::time::Duration;

/// Largest accepted request body (64 MiB) — a relation upload, not a bulk
/// load; bigger inputs belong in files and the eval binaries.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Largest accepted header block (64 KiB).
const MAX_HEAD_BYTES: usize = 64 << 10;

/// Socket read/write timeout: a stalled client must not pin a worker
/// thread forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Capacity of a connection's response buffer (64 KiB). Responses up to
/// this size leave in one socket write; bigger ones go out in writes of at
/// most this size, so a connection's memory stays bounded whatever it
/// streams.
pub const RESPONSE_BUFFER_BYTES: usize = 64 << 10;

/// Wraps a connection's write half in its response buffer, allocated once
/// and reused by every response on the connection.
pub fn response_buffer<W: Write>(inner: W) -> BufWriter<W> {
    BufWriter::with_capacity(RESPONSE_BUFFER_BYTES, inner)
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without the query string (`/v1/repair/nobel`).
    pub path: String,
    /// Raw query string (`deadline_ms=50&label=warm`), empty if none.
    pub query: String,
    /// Headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty for bodiless requests).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1` (persistent by default)
    /// rather than `HTTP/1.0` (close by default).
    pub http11: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of query parameter `key`, if present (no percent-decoding —
    /// the service's parameters are numbers and short labels).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Whether the client asked (or defaulted) to keep the connection
    /// open: HTTP/1.1 unless `connection: close`, HTTP/1.0 only with an
    /// explicit `connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// A request-parse failure: the status code and message the connection
/// should answer with before closing.
#[derive(Debug)]
pub struct HttpError {
    /// Status to answer with (400, 408, 413, ...).
    pub status: u16,
    /// Human-readable reason, sent as the body.
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn timeout(during: &str) -> Self {
        Self {
            status: 408,
            message: format!("timed out reading {during}"),
        }
    }
}

/// Whether an I/O error is a blocking-socket read timeout (both kinds,
/// because platforms disagree on which one `SO_RCVTIMEO` surfaces as).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from an open connection's reader: the server passes
/// a `BufReader<TcpStream>`, and any `BufRead` parses the same way.
/// `Ok(None)` means the peer closed — or went idle past the socket's read
/// timeout — before sending the first byte of a request (not an error:
/// health probes connect-and-close, and keep-alive clients idle out). A
/// timeout *after* bytes of a request have arrived is a half-sent request
/// and maps to `408`.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut request_line = String::new();
    match read_limited_line(reader, &mut request_line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if is_timeout(&e) && request_line.is_empty() => return Ok(None),
        Err(e) if is_timeout(&e) => return Err(HttpError::timeout("request line")),
        Err(e) => return Err(HttpError::bad_request(format!("read error: {e}"))),
    }
    let mut parts = request_line.trim_end().splitn(3, ' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::bad_request("missing method"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad_request(format!(
            "unsupported version {version:?}"
        )));
    }
    let http11 = version.trim_end() != "HTTP/1.0";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let mut line = String::new();
        let n = read_limited_line(reader, &mut line).map_err(|e| {
            if is_timeout(&e) {
                HttpError::timeout("headers")
            } else {
                HttpError::bad_request(format!("read error: {e}"))
            }
        })?;
        if n == 0 {
            return Err(HttpError::bad_request("connection closed mid-headers"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError {
                status: 431,
                message: "header block too large".into(),
            });
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad_request(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    // RFC 9112 §6.3: the value is `1*DIGIT` (`usize::from_str` would also
    // take a leading `+`), and differing duplicates are a 400, not
    // first-one-wins, since a proxy may frame the body by another one.
    let mut content_length: Option<&str> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        if content_length.is_some_and(|first| first != v) {
            return Err(HttpError::bad_request("conflicting content-length headers"));
        }
        content_length = Some(v);
    }
    let content_length: usize = match content_length {
        None => 0,
        Some(v) => v
            .parse()
            .ok()
            .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| HttpError::bad_request(format!("bad content-length {v:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            message: format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
        });
    }
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError {
            status: 501,
            message: "chunked request bodies not supported; send content-length".into(),
        });
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if is_timeout(&e) {
            HttpError::timeout("body")
        } else {
            HttpError::bad_request(format!("short body: {e}"))
        }
    })?;

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
        http11,
    }))
}

/// `read_line` with a hard per-line cap, so a malicious peer cannot grow an
/// unbounded buffer.
fn read_limited_line<R: BufRead>(reader: &mut R, out: &mut String) -> std::io::Result<usize> {
    let mut taken = reader.take(MAX_HEAD_BYTES as u64 + 1);
    let n = taken.read_line(out)?;
    if n > MAX_HEAD_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "line too long",
        ));
    }
    Ok(n)
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

fn write_head<W: Write>(
    out: &mut W,
    status: u16,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&'static str, String)],
) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n",
        status,
        status_text(status),
        content_type,
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    write!(
        out,
        "connection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// Writes a complete, fixed-length response and flushes it once.
pub fn write_response<W: Write>(
    out: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&'static str, String)],
) -> std::io::Result<()> {
    write_head(out, status, content_type, keep_alive, extra_headers)?;
    write!(out, "content-length: {}\r\n\r\n", body.len())?;
    out.write_all(body)?;
    out.flush()
}

/// A chunked-transfer response in progress. Head, chunk framing and the
/// terminating chunk all go into `out` — the connection's
/// [`response_buffer`] — which reaches the socket whenever it fills and
/// once more at [`finish`](Self::finish): a response that fits the buffer
/// leaves in a single write, a bigger one in buffer-sized writes.
pub struct ChunkedResponse<'a, W: Write> {
    out: &'a mut W,
}

impl<'a, W: Write> ChunkedResponse<'a, W> {
    /// Writes the status line + headers and switches to chunked encoding.
    pub fn begin(
        out: &'a mut W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
        extra_headers: &[(&'static str, String)],
    ) -> std::io::Result<Self> {
        write_head(out, status, content_type, keep_alive, extra_headers)?;
        out.write_all(b"transfer-encoding: chunked\r\n\r\n")?;
        Ok(Self { out })
    }

    /// Writes one NDJSON line, with its `\n` terminator, as one chunk.
    /// The chunk is never empty, so it cannot end the encoding early.
    pub fn line(&mut self, line: &str) -> std::io::Result<()> {
        write!(self.out, "{:x}\r\n", line.len() + 1)?;
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n\r\n")
    }

    /// Terminates the chunked body and flushes.
    pub fn finish(self) -> std::io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inner writer that records every `write` and `flush` it sees.
    #[derive(Debug, Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: Vec<usize>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    fn ndjson<W: Write>(out: &mut W, lines: &[String]) {
        let mut chunked =
            ChunkedResponse::begin(out, 200, "application/x-ndjson", true, &[]).unwrap();
        for line in lines {
            chunked.line(line).unwrap();
        }
        chunked.finish().unwrap();
    }

    #[test]
    fn buffered_ndjson_response_is_one_write_and_one_flush() {
        let lines: Vec<String> = (0..60).map(|i| format!("{{\"row\":{i}}}")).collect();
        let mut out = response_buffer(CountingWriter::default());
        ndjson(&mut out, &lines);
        let inner = out.into_inner().unwrap();
        assert_eq!(inner.writes.len(), 1, "writes: {:?}", inner.writes);
        assert_eq!(inner.flushes, 1);

        let mut golden = String::from(
            "HTTP/1.1 200 OK\r\n\
             content-type: application/x-ndjson\r\n\
             connection: keep-alive\r\n\
             transfer-encoding: chunked\r\n\r\n",
        );
        for i in 0..60 {
            // `{"row":N}\n` is 10 bytes for one digit, 11 for two.
            let size = if i < 10 { "a" } else { "b" };
            golden.push_str(&format!("{size}\r\n{{\"row\":{i}}}\n\r\n"));
        }
        golden.push_str("0\r\n\r\n");
        assert_eq!(String::from_utf8(inner.bytes).unwrap(), golden);
    }

    #[test]
    fn buffered_fixed_response_is_one_write_and_one_flush() {
        let mut out = response_buffer(CountingWriter::default());
        let headers = [("retry-after", "1".to_owned())];
        write_response(&mut out, 429, "application/json", b"{}", false, &headers).unwrap();
        let inner = out.into_inner().unwrap();
        assert_eq!(inner.writes.len(), 1);
        assert_eq!(inner.flushes, 1);
        assert_eq!(
            inner.bytes,
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
              retry-after: 1\r\nconnection: close\r\ncontent-length: 2\r\n\r\n{}"
        );
    }

    #[test]
    fn oversized_response_streams_in_buffer_sized_writes() {
        let line = "x".repeat(999);
        let lines = vec![line; 3 * RESPONSE_BUFFER_BYTES / 1000];
        let mut direct = CountingWriter::default();
        ndjson(&mut direct, &lines);

        let mut out = response_buffer(CountingWriter::default());
        ndjson(&mut out, &lines);
        let buffered = out.into_inner().unwrap();
        assert!(buffered.bytes == direct.bytes, "framing differs");
        // Just over three buffers' worth: four writes, none above the cap.
        assert!(buffered.bytes.len() > 3 * RESPONSE_BUFFER_BYTES);
        assert_eq!(buffered.writes.len(), 4, "writes: {:?}", buffered.writes);
        assert!(buffered.writes.iter().all(|&n| n <= RESPONSE_BUFFER_BYTES));
        assert_eq!(buffered.flushes, 1);
    }
}

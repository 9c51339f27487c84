//! A minimal blocking HTTP/1.1 client for the load generator, the chaos
//! harness, the CI smoke leg, and the integration tests — enough to talk
//! to `dr-serve` (fixed-length and chunked responses, one-shot
//! `connection: close` requests and persistent keep-alive
//! [`Connection`]s), nothing more.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::http::IO_TIMEOUT;

/// A decoded response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The fully decoded body (chunked framing already stripped).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response. `body` may be empty for
/// GETs; `content_type` is only sent alongside a non-empty body.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    target: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = open(addr)?;
    write_request(&mut stream, method, target, content_type, body, false)?;
    read_response(&mut BufReader::new(stream))
}

/// Convenience GET.
pub fn get(addr: impl ToSocketAddrs, target: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", target, "", &[])
}

/// A persistent keep-alive connection: many requests over one socket.
///
/// Each [`request`](Self::request) sends `connection: keep-alive` and
/// decodes exactly one framed response, leaving the socket ready for the
/// next request — the client-side half of the server's keep-alive loop,
/// used by the chaos harness to prove sockets are actually reused.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Opens a connection with the default I/O timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = open(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Sends one request on the open socket and reads its response. An
    /// `Err` means the connection is no longer usable (the server closed
    /// it, timed it out, or the response was malformed).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        write_request(&mut self.stream, method, target, content_type, body, true)?;
        read_response(&mut self.reader)
    }

    /// Convenience GET on the open socket.
    pub fn get(&mut self, target: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", target, "", &[])
    }
}

/// Connects with the default I/O timeouts and `TCP_NODELAY`, so a request
/// never waits on Nagle's algorithm for the server's delayed ACK.
fn open(addr: impl ToSocketAddrs) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Sends head and body together in one `write_all`.
fn write_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut request = format!("{method} {target} HTTP/1.1\r\nhost: dr-serve\r\n");
    if !body.is_empty() {
        request.push_str(&format!(
            "content-type: {content_type}\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    request.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    let mut request = request.into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)
}

fn invalid(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// Reads one framed response off `reader`, leaving any bytes after it (the
/// next keep-alive response) unread.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<ClientResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed mid-headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked(reader)?
    } else if let Some((_, v)) = headers.iter().find(|(k, _)| k == "content-length") {
        let len: usize = v
            .parse()
            .map_err(|_| invalid(format!("bad content-length {v:?}")))?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        body
    } else {
        // `connection: close` with no framing: read to EOF.
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        body
    };

    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn read_chunked(reader: &mut BufReader<TcpStream>) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(invalid("connection closed mid-chunk-size"));
        }
        // Chunk extensions (`;...`) are allowed by the grammar; ignore them.
        let size_field = size_line
            .trim_end()
            .split(';')
            .next()
            .unwrap_or_default()
            .trim();
        let size = usize::from_str_radix(size_field, 16)
            .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            // Trailer section (we send none) ends with an empty line.
            let mut trailer = String::new();
            while reader.read_line(&mut trailer)? > 0 && !trailer.trim_end().is_empty() {
                trailer.clear();
            }
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(invalid("chunk not terminated by CRLF"));
        }
    }
}

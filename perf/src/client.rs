//! A minimal HTTP/1.1 keep-alive client for the `nobel-serve` workload.
//!
//! It sends each request with one `write_all` on a `TCP_NODELAY` socket, so
//! the client adds no Nagle or delayed-ACK stall of its own and any stall
//! measured is the server's. It does not use `dr_serve::client`, which
//! writes a request in several pieces: that adds a second stall, and
//! sharing it with the server under test would let a change to it move the
//! server's numbers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest response body or header line accepted.
const MAX_BYTES: usize = 64 << 20;

/// A decoded response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, chunked framing removed.
    pub body: Vec<u8>,
}

/// One keep-alive connection that reconnects after the server closes it or
/// a transport error drops it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// Opens the socket now, if it is not open.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(())
    }

    /// Sends a POST and reads the whole response. On any error the socket is
    /// dropped, so the next call reconnects.
    pub fn post(
        &mut self,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<Response> {
        self.connect()?;
        let stream = self.stream.as_mut().expect("connected above");
        let result = exchange(stream, self.addr, target, content_type, body);
        match result {
            Ok((response, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

fn exchange(
    stream: &mut BufReader<TcpStream>,
    addr: SocketAddr,
    target: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<(Response, bool)> {
    let mut request = format!(
        "POST {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.get_mut().write_all(&request)?;

    let status_line = read_line(stream)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    let mut chunked = false;
    let mut keep_alive = true;
    loop {
        let line = read_line(stream)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid(format!("bad header {line:?}")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
                content_length = Some(n);
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }

    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(stream)?;
            let digits = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(digits, 16)
                .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                // Trailer section, ended by an empty line.
                while !read_line(stream)?.is_empty() {}
                break;
            }
            if body.len() + size > MAX_BYTES {
                return Err(invalid("response body too large".into()));
            }
            let start = body.len();
            body.resize(start + size, 0);
            stream.read_exact(&mut body[start..])?;
            if !read_line(stream)?.is_empty() {
                return Err(invalid("chunk not followed by CRLF".into()));
            }
        }
    } else if let Some(n) = content_length {
        if n > MAX_BYTES {
            return Err(invalid("response body too large".into()));
        }
        body.resize(n, 0);
        stream.read_exact(&mut body)?;
    } else {
        stream.take(MAX_BYTES as u64).read_to_end(&mut body)?;
        keep_alive = false;
    }
    Ok((Response { status, body }, keep_alive))
}

/// One CRLF-terminated line without its terminator; EOF is an error.
fn read_line(stream: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    let n = stream.take(MAX_BYTES as u64).read_line(&mut line)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `replies` in order, one per request, on whatever connections
    /// arrive; returns how many connections it accepted.
    fn serve(listener: TcpListener, replies: Vec<&'static str>) -> usize {
        let mut replies = replies.into_iter();
        let mut accepted = 0;
        while let Some(mut reply) = replies.next() {
            let (stream, _) = listener.accept().expect("accept");
            accepted += 1;
            let mut reader = BufReader::new(stream);
            loop {
                // Read one request: head, then the content-length body.
                let mut length = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read head");
                    if let Some(v) = line.strip_prefix("content-length: ") {
                        length = v.trim().parse().expect("length");
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).expect("read body");
                reader.get_mut().write_all(reply.as_bytes()).expect("reply");
                if reply.contains("connection: close") {
                    break;
                }
                match replies.next() {
                    Some(next) => reply = next,
                    None => return accepted,
                }
            }
        }
        accepted
    }

    #[test]
    fn decodes_chunked_bodies_keeps_alive_and_reconnects_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            serve(
                listener,
                vec![
                    "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\nconnection: keep-alive\r\n\r\n\
                     4\r\nab\nc\r\n3\r\nde\n\r\n0\r\n\r\n",
                    "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
                    "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n",
                ],
            )
        });
        let mut conn = Conn::new(addr);
        let first = conn.post("/x", "text/csv", b"a,b\n1,2\n").expect("first");
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"ab\ncde\n");
        let second = conn.post("/x", "text/csv", b"").expect("second");
        assert_eq!(second.body, b"ok");
        let third = conn.post("/x", "text/csv", b"z").expect("third");
        assert_eq!(third.status, 429);
        assert_eq!(server.join().expect("server"), 2, "reconnected once");
    }
}

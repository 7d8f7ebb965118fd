//! A minimal blocking HTTP/1.1 client over one keep-alive connection,
//! with a per-request timeout and reconnect-on-close.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// The server announced `connection: close`: this was the last
    /// response on the connection.
    pub close: bool,
}

/// Why a request got no response.
#[derive(Debug)]
pub enum Failure {
    /// The read or write timed out.
    Timeout,
    /// The connection was reset or closed before a full response, or
    /// what came back was not an HTTP response.
    Reset,
}

/// Read one response off `reader`: status line, headers, and a body of
/// exactly `content-length` bytes.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    // A line the stream ends inside of is a close, not bad framing.
    let read_line = |reader: &mut _, line: &mut String| -> io::Result<()> {
        line.clear();
        if BufRead::read_line(reader, line)? == 0 || !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    };
    read_line(reader, &mut line)?;
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut parts = line.trim_end().splitn(3, ' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(malformed("bad status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status code"))?;
    let mut length: Option<usize> = None;
    let mut close = false;
    loop {
        read_line(reader, &mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| malformed("bad header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| malformed("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| malformed("no content-length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok(Response {
        status,
        body,
        close,
    })
}

/// A client holding at most one connection to `addr`.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections the server closed with `connection: close`.
    pub server_closes: u64,
    request: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            conn: None,
            server_closes: 0,
            request: Vec::with_capacity(512),
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        self.conn = Some((stream, reader));
        Ok(())
    }

    /// Send one request and read its response.  A failed request drops
    /// the connection; the next request opens a new one.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, Failure> {
        let result = self.try_request(method, path, body);
        match &result {
            Ok(resp) if resp.close => {
                self.server_closes += 1;
                self.conn = None;
            }
            Ok(_) => {}
            Err(_) => self.conn = None,
        }
        result.map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
            _ => Failure::Reset,
        })
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        stream.write_all(&self.request)?;
        read_response(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};

    fn parse(bytes: &str) -> io::Result<Response> {
        read_response(&mut Cursor::new(bytes.as_bytes().to_vec()))
    }

    #[test]
    fn frames_a_keep_alive_response() {
        let resp = parse(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 7\r\nconnection: keep-alive\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(
            resp,
            Response {
                status: 200,
                body: "{\"a\":1}".into(),
                close: false
            }
        );
    }

    #[test]
    fn frames_back_to_back_responses_and_close() {
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}\
                    HTTP/1.1 400 Bad Request\r\ncontent-length: 3\r\nConnection: Close\r\n\r\n[1]";
        let mut reader = Cursor::new(wire.as_bytes().to_vec());
        let first = read_response(&mut reader).unwrap();
        assert_eq!(
            (first.status, first.body.as_str(), first.close),
            (200, "{}", false)
        );
        let second = read_response(&mut reader).unwrap();
        assert_eq!(
            (second.status, second.body.as_str(), second.close),
            (400, "[1]", true)
        );
        let eof = read_response(&mut reader).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_broken_framing() {
        let kind = |s: &str| parse(s).unwrap_err().kind();
        assert_eq!(kind("SMTP 220 hi\r\n\r\n"), io::ErrorKind::InvalidData);
        assert_eq!(kind("HTTP/1.1 abc OK\r\n\r\n"), io::ErrorKind::InvalidData);
        assert_eq!(kind("HTTP/1.1 200 OK\r\n\r\n"), io::ErrorKind::InvalidData);
        assert_eq!(
            kind("HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n"),
            io::ErrorKind::InvalidData
        );
        // A body cut short is an EOF, not a short body.
        assert_eq!(
            kind("HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc"),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            kind("HTTP/1.1 200 OK\r\ncontent-le"),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn client_reconnects_after_a_server_close() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Two connections: the first answers once and closes.
            for close in [true, false] {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                // Skip the request head and its 2-byte body.
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = [0u8; 2];
                reader.read_exact(&mut body).unwrap();
                let conn = if close { "close" } else { "keep-alive" };
                write!(
                    writer,
                    "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: {conn}\r\n\r\nok"
                )
                .unwrap();
            }
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        assert!(client.request("POST", "/x", "{}").unwrap().close);
        assert_eq!(client.server_closes, 1);
        let second = client.request("POST", "/x", "{}").unwrap();
        assert_eq!((second.body.as_str(), second.close), ("ok", false));
        server.join().unwrap();
    }
}

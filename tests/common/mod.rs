//! The blocking HTTP/1.1 client the serve, chaos and explain tests share.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client connection that reads `Content-Length`-framed responses.
/// `carry` holds bytes past the end of the last response: the server
/// coalesces pipelined responses into one write, so a single `read`
/// can return the start of the next response too.
pub struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(20)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            stream,
            carry: Vec::new(),
        }
    }

    pub fn send(&mut self, request: &str) {
        self.stream.write_all(request.as_bytes()).expect("send");
    }

    /// Read exactly one response as (status, head, body), keeping any
    /// extra bytes for the next call.
    pub fn read_one(&mut self) -> (u16, String, String) {
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).unwrap_or_else(|e| {
                panic!(
                    "read response headers (local {:?}): {e}",
                    self.stream.local_addr()
                )
            });
            assert!(
                n > 0,
                "EOF before response headers (local {:?})",
                self.stream.local_addr()
            );
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.carry[..header_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                if name.eq_ignore_ascii_case("content-length") {
                    value.trim().parse().ok()
                } else {
                    None
                }
            })
            .expect("content-length header");
        let total = header_end + 4 + content_length;
        while self.carry.len() < total {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "EOF mid response body");
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.carry[header_end + 4..total]).to_string();
        self.carry.drain(..total);
        (status, head, body)
    }

    /// Read to EOF; panics if any bytes follow the last response.
    pub fn expect_eof(&mut self) {
        let mut rest = Vec::new();
        self.stream.read_to_end(&mut rest).unwrap();
        assert!(
            self.carry.is_empty() && rest.is_empty(),
            "bytes after the final response"
        );
    }
}

/// Send `request` on a fresh connection and return its one response,
/// after checking that the server then closes the connection.
pub fn raw(addr: SocketAddr, request: &str) -> (u16, String, String) {
    let mut conn = Conn::connect(addr);
    conn.send(request);
    let response = conn.read_one();
    conn.expect_eof();
    response
}

/// One `Connection: close` request: (status, head, body).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    raw(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

//! A buffered HTTP/1.1 client for one keep-alive connection.
//!
//! Responses are read through a `BufReader`, so the response head costs a
//! few `read(2)` calls rather than one per byte, and the client's own cost
//! stays small beside the server's.

use crate::checks::OptionView;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    line: String,
    pub body: String,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(WireClient {
            reader: BufReader::with_capacity(64 * 1024, stream),
            writer,
            request: Vec::with_capacity(256),
            line: String::new(),
            body: String::new(),
        })
    }

    /// Sends one `POST` and reads the response into `self.body`; returns
    /// the status code. A `trace` id travels as `x-request-id`, which the
    /// server adopts as the request's trace id.
    pub fn post(&mut self, path: &str, body: &str, trace: Option<u64>) -> io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nhost: rushbench\r\ncontent-length: {}\r\n",
            body.len()
        )?;
        if let Some(id) = trace {
            write!(self.request, "x-request-id: {id:016x}\r\n")?;
        }
        write!(self.request, "\r\n{body}")?;
        self.writer.write_all(&self.request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<u16> {
        let mut status = None;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if status.is_none() {
                status = line.split(' ').nth(1).and_then(|s| s.parse().ok());
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        self.body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        status.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))
    }
}

/// The number after `"key":` in a flat JSON object.
pub fn num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The options of an offer body, in the order the server sent them.
pub fn offer_options(json: &str) -> Option<Vec<OptionView>> {
    let start = json.find("\"options\":[")? + "\"options\":[".len();
    let list = json[start..].strip_suffix("]}")?;
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split("},{")
        .map(|o| {
            Some(OptionView {
                vehicle: num(o, "vehicle")? as u32,
                pickup_dist: num(o, "pickup_dist")?,
                price: num(o, "price")?,
                detour_dist: num(o, "detour_dist")?,
            })
        })
        .collect()
}

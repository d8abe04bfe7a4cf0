//! A minimal, dependency-free HTTP/1.1 codec over `std::net`.
//!
//! The experiment daemon needs exactly four verbs on a handful of routes
//! and always closes the connection after one exchange, so this is the
//! whole protocol surface: parse one request (start line, headers,
//! `Content-Length` body), write one response, plus the client-side dual.
//! No keep-alive, no chunked encoding, no TLS.
//!
//! The parser is *total* over hostile input: every malformed byte stream
//! — garbage start lines, oversized heads, bodies bigger than
//! [`MAX_BODY`], truncated bodies, non-UTF-8 — maps to a typed
//! [`RequestError`] the server answers with a 4xx (or drops, for pure
//! I/O failures), never to a panic, an unbounded allocation, or a wedged
//! connection thread.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on an accepted request body. `ExperimentSpec`s are a few
/// KiB; anything close to this is not a spec. Declared lengths above the
/// cap are refused *before* allocating.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Upper bound on one head line (start line or header).
const MAX_LINE: usize = 8 * 1024;

/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, ...
    pub method: String,
    /// The request target, e.g. `/jobs/3/report` (query strings are not
    /// used by the protocol and are kept verbatim).
    pub path: String,
    /// The request headers, in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The connection failed mid-read (client went away, timeout):
    /// responding is pointless, but attempting to is harmless.
    Io(String),
    /// The bytes are not a well-formed request → `400 Bad Request`.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`] → `413 Payload Too Large`.
    TooLarge {
        /// The declared `Content-Length`.
        declared: usize,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "{e}"),
            RequestError::Malformed(e) => write!(f, "{e}"),
            RequestError::TooLarge { declared } => {
                write!(
                    f,
                    "body of {declared} bytes exceeds the {MAX_BODY}-byte cap"
                )
            }
        }
    }
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE`] bytes, without
/// trusting the peer to ever send a newline (a plain `read_line` would
/// buffer an unbounded — and non-UTF-8-intolerant — head).
fn read_limited_line(reader: &mut BufReader<&mut TcpStream>) -> Result<String, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break, // EOF ends the line
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(RequestError::Malformed(format!(
                        "head line exceeds {MAX_LINE} bytes"
                    )));
                }
            }
            Err(e) => return Err(RequestError::Io(format!("reading head: {e}"))),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| RequestError::Malformed("head is not UTF-8".into()))
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// Returns a typed [`RequestError`]; see its variants for the status the
/// server maps each to.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let start_line = read_limited_line(&mut reader)?;
    let mut parts = start_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_string();
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed(format!(
            "method {method:?} is not an HTTP token"
        )));
    }
    let path = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no target".into()))?
        .to_string();

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_limited_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!(
                "header line without a colon: {line:?}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(|e| {
                RequestError::Malformed(format!("bad Content-Length {value:?}: {e}"))
            })?;
        }
        headers.push((name, value));
    }

    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge {
            declared: content_length,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        // A body shorter than its declared length is the client's lie,
        // not a transport accident: answer 400.
        RequestError::Malformed(format!("reading {content_length}-byte body: {e}"))
    })?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Writes one `Connection: close` response with optional extra headers
/// (e.g. `Retry-After`).
///
/// # Errors
///
/// Returns I/O errors.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> Result<(), String> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write, so a peer that reads once never sees the head alone.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream
        .write_all(&message)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("writing response: {e}"))
}

/// One parsed client-side response.
#[derive(Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Response headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// The first value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Performs one client request against `addr` (`host:port`).
///
/// # Errors
///
/// Returns connection, I/O, and malformed-response errors (all of which
/// the retrying client treats as transient).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(&str, String)],
    body: Option<&str>,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let payload = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        payload.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head and body (see `write_response`).
    head.push_str(payload);
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;

    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {raw:?}"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap_or("")
        .split_whitespace()
        .nth(1)
        .ok_or("response has no status code")?
        .parse()
        .map_err(|e| format!("bad status code: {e}"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Response {
        status,
        headers,
        body: response_body.to_string(),
    })
}

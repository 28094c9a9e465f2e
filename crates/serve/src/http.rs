//! A minimal HTTP/1.1 codec over std I/O, shared by `dice-serve` and the
//! fabric nodes.
//!
//! Deliberately small: one request per connection (`Connection: close`),
//! no keep-alive, hard limits on header and body size. Fixed-length
//! responses carry an explicit `Content-Length`; streaming endpoints
//! (server-sent events) use chunked transfer encoding via
//! [`write_stream_head`]/[`write_chunk`]/[`finish_chunks`]. The
//! response-side decoders ([`read_header_lines`], [`read_chunked_body`])
//! live here too so the client and any proxy layer share one
//! implementation. That is all the sweep API needs, and it keeps the
//! attack surface of a zero-dependency stack auditable.

use std::io::{self, BufRead, Write};

/// Maximum bytes for the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum request body bytes (`413 Payload Too Large` beyond this).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Maximum number of request headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target (path plus optional query), as sent.
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (name must be given lower-case).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path with any query string stripped — what routes match on.
    #[must_use]
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or("")
    }
}

/// What went wrong reading a request, mapped to a response status.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed before sending a full request line.
    Closed,
    /// Malformed syntax or a violated limit; respond with this status.
    Bad {
        /// Status to answer with (`400`, `413`, `431`).
        status: u16,
        /// Human-readable reason.
        msg: &'static str,
    },
    /// Transport failure.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn bad(status: u16, msg: &'static str) -> ReadError {
    ReadError::Bad { status, msg }
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`ReadError::Closed`] on immediate EOF, [`ReadError::Bad`] on
/// malformed or over-limit input, [`ReadError::Io`] on transport errors
/// (including read timeouts).
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head_bytes = 0usize;
    let request_line = read_line(stream, &mut head_bytes)?;
    if request_line.is_empty() {
        return Err(ReadError::Closed);
    }
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(bad(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(400, "unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad(431, "too many headers"));
        }
        let (name, value) = line.split_once(':').ok_or(bad(400, "malformed header"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| bad(400, "bad content-length"))
        })
        .transpose()?;
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(bad(413, "body too large"));
        }
        body.resize(len, 0);
        stream.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                bad(400, "truncated body")
            } else {
                ReadError::Io(e)
            }
        })?;
    }

    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body,
    })
}

/// Reads one CRLF- (or bare-LF-) terminated line, enforcing
/// [`MAX_HEAD_BYTES`] across the whole head.
fn read_line(stream: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let buf = stream.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(String::new());
            }
            return Err(bad(400, "truncated request head"));
        }
        let (chunk, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (&buf[..i], true),
            None => (buf, false),
        };
        *head_bytes += chunk.len() + usize::from(found);
        if *head_bytes > MAX_HEAD_BYTES {
            return Err(bad(431, "request head too large"));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(found);
        stream.consume(consumed);
        if found {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| bad(400, "non-UTF-8 request head"));
        }
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub extra: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope (`{"error": "..."}`).
    #[must_use]
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(
            status,
            dice_obs::Json::Obj(vec![("error".into(), dice_obs::Json::str(msg))]).render(),
        )
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra.push((name.to_owned(), value.into()));
        self
    }

    /// Serializes the response (`Connection: close`, explicit
    /// `Content-Length`).
    ///
    /// # Errors
    ///
    /// Propagates transport write errors.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.write_all(b"\r\n")?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// Writes the head of a `200` streaming response: chunked transfer
/// encoding, `Connection: close`, `Cache-Control: no-store` (live data
/// must never be replayed from a cache).
///
/// # Errors
///
/// Propagates transport write errors.
pub fn write_stream_head(out: &mut impl Write, content_type: &str) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\n\
         Cache-Control: no-store\r\nConnection: close\r\n\r\n"
    )?;
    out.flush()
}

/// Writes one chunk (hex length, CRLF, data, CRLF) and flushes so the
/// peer sees it immediately. Empty data is skipped — a zero-length chunk
/// would terminate the stream.
///
/// # Errors
///
/// Propagates transport write errors.
pub fn write_chunk(out: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(out, "{:x}\r\n", data.len())?;
    out.write_all(data)?;
    out.write_all(b"\r\n")?;
    out.flush()
}

/// Terminates a chunked stream (the zero-length final chunk).
///
/// # Errors
///
/// Propagates transport write errors.
pub fn finish_chunks(out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"0\r\n\r\n")?;
    out.flush()
}

fn malformed(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a response-side header block (every `name: value` line up to the
/// blank separator), names lower-cased. Unlike the request path this
/// trusts the peer — it is used against our own servers — so it imposes
/// no size limits.
///
/// # Errors
///
/// Propagates transport failures; malformed headers become `InvalidData`.
pub fn read_header_lines(reader: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("bad header"))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok(headers)
}

/// Decodes a chunked transfer-encoded body into `out`, reading through
/// the zero-length final chunk and any trailer section.
///
/// # Errors
///
/// Propagates transport failures; malformed framing becomes
/// `InvalidData`.
pub fn read_chunked_body(reader: &mut impl BufRead, out: &mut Vec<u8>) -> io::Result<()> {
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line)?;
        let size =
            usize::from_str_radix(size_line.trim(), 16).map_err(|_| malformed("bad chunk size"))?;
        if size == 0 {
            // Trailer section: read through the terminating blank line.
            let mut line = String::new();
            while reader.read_line(&mut line)? > 0
                && !line.trim_end_matches(['\r', '\n']).is_empty()
            {
                line.clear();
            }
            return Ok(());
        }
        let start = out.len();
        out.resize(start + size, 0);
        reader.read_exact(&mut out[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(malformed("chunk not CRLF-terminated"));
        }
    }
}

/// The standard reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("valid");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").expect("valid");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn tolerates_bare_lf_lines() {
        let req = parse(b"GET / HTTP/1.1\nHost: y\n\n").expect("valid");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn rejects_malformed() {
        for raw in [
            b"GARBAGE\r\n\r\n".to_vec(),
            b"GET notapath HTTP/1.1\r\n\r\n".to_vec(),
            b"GET / SPDY/3\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n".to_vec(),
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".to_vec(),
        ] {
            assert!(
                matches!(parse(&raw), Err(ReadError::Bad { .. })),
                "accepted: {raw:?}"
            );
        }
    }

    #[test]
    fn eof_is_closed() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
    }

    #[test]
    fn enforces_limits() {
        let huge_header = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse(huge_header.as_bytes()),
            Err(ReadError::Bad { status: 431, .. })
        ));

        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..=MAX_HEADERS)
                .map(|i| format!("h{i}: v\r\n"))
                .collect::<String>()
        );
        assert!(matches!(
            parse(many.as_bytes()),
            Err(ReadError::Bad { status: 431, .. })
        ));

        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(big_body.as_bytes()),
            Err(ReadError::Bad { status: 413, .. })
        ));
    }

    #[test]
    fn chunked_stream_frames_correctly() {
        let mut out = Vec::new();
        write_stream_head(&mut out, "text/event-stream").expect("head");
        write_chunk(&mut out, b"data: one\n\n").expect("chunk");
        write_chunk(&mut out, b"").expect("empty chunk is a no-op");
        write_chunk(&mut out, b"data: two\n\n").expect("chunk");
        finish_chunks(&mut out).expect("finish");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Content-Type: text/event-stream\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.contains("\r\n\r\nb\r\ndata: one\n\n\r\n"));
        assert!(text.ends_with("b\r\ndata: two\n\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn response_serializes() {
        let mut out = Vec::new();
        Response::json(202, "{\"id\":\"x\"}")
            .with_header("Retry-After", "1")
            .write(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("Content-Length: 10\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"id\":\"x\"}"));
    }
}

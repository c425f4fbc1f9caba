//! A minimal, dependency-free HTTP/1.1 subset for the campaign service.
//!
//! The workspace is offline-shimmed, so the wire layer is hand-rolled over
//! `std::net` — exactly the subset the campaign protocol needs and nothing
//! more: HTTP/1.1 keep-alive connections carrying any number of sequential
//! requests, `Content-Length` request bodies, and chunked transfer encoding
//! for the live event streams. Either side may end the conversation with a
//! `Connection: close` header; protocol errors always close. Both the server
//! and the [`Client`](crate::Client) speak through these helpers, so the two
//! ends of the protocol cannot drift apart. Every message goes to the
//! socket in one `write_all` of one buffer.
//!
//! Because connections are reused, framing is strict: a request carrying
//! `Transfer-Encoding`, or a request or response with duplicate/conflicting
//! `Content-Length` headers, is rejected outright — ambiguous framing on a
//! reused connection is the classic request-smuggling shape, so it is a
//! loud 400 (or a client-side protocol error), never a guess.

use std::fmt;
use std::io::{self, BufRead, Write};

pub(crate) use mabfuzz::report::json_string;

/// Upper bound on a request body (campaign specs are a few KiB; a service
/// must not buffer unbounded attacker-controlled input).
pub(crate) const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on header count — enough for any real client, small enough
/// to bound a hostile request.
const MAX_HEADERS: usize = 64;

/// Upper bound on a single response chunk. The server writes chunks sized
/// by event-broadcast batches (KiB, not MiB); a hostile peer declaring a
/// multi-gigabyte chunk must not make the client materialise it.
const MAX_CHUNK_BYTES: usize = 4 << 20;

/// Upper bound on any single protocol line (request line, header, chunk
/// size). `read_line` alone would buffer a newline-free byte stream without
/// limit; every line in this module goes through [`read_line_capped`] so a
/// hostile peer cannot grow memory past this.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
/// `Ok(None)` is a clean EOF before any byte; an overlong line is an error,
/// and so is a line that EOF cuts short (a `\r` without its `\n` must not
/// pass for the blank line that ends a message).
fn read_line_capped<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    // UFCS pins `Self = &mut R` so `take` borrows the reader instead of
    // consuming it (plain `reader.take(..)` auto-derefs and moves `*reader`).
    let read = io::Read::take(reader, MAX_LINE_BYTES).read_line(&mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        if read as u64 == MAX_LINE_BYTES {
            return Err(protocol_error(format!(
                "protocol line exceeds the {MAX_LINE_BYTES}-byte limit"
            )));
        }
        return Err(protocol_error("connection closed inside a protocol line"));
    }
    Ok(Some(line))
}

/// One parsed request: method, path, (possibly empty) body, the
/// `Authorization` header value if the client sent one, and whether the
/// client asked for the connection to close after this exchange (the only
/// non-framing headers the protocol consumes — see the auth and keep-alive
/// sections of the crate docs).
#[derive(Debug)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    pub authorization: Option<String>,
    pub close: bool,
}

/// Whether a `Connection` header value asks for the connection to close
/// (token list, case-insensitive per RFC 9110).
fn wants_close(value: &str) -> bool {
    value.split(',').any(|token| token.trim().eq_ignore_ascii_case("close"))
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// without sending anything (a keep-alive peer finishing its conversation,
/// or the server's shutdown self-wake).
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some(line) = read_line_capped(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) => (method, path, version),
        _ => return Err(protocol_error(format!("malformed request line `{}`", line.trim_end()))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(protocol_error(format!("unsupported protocol `{version}`")));
    }
    let request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        body: Vec::new(),
        authorization: None,
        close: false,
    };
    let headers = read_headers(reader)?;
    let authorization = header_value(&headers, "authorization").map(str::to_owned);
    let close = header_value(&headers, "connection").is_some_and(wants_close);
    // Ambiguous framing is a smuggling vector once connections are reused:
    // if the two ends ever disagreed about where a request body ends, every
    // later request on the connection would be parsed out of attacker-chosen
    // bytes. The protocol never uses chunked *requests*, so any
    // `Transfer-Encoding` is rejected, and [`content_length`] rejects
    // duplicate or conflicting `Content-Length` headers — loudly, not by
    // picking one.
    if header_value(&headers, "transfer-encoding").is_some() {
        return Err(protocol_error(
            "requests must use Content-Length framing; Transfer-Encoding is not accepted",
        ));
    }
    let content_length = content_length(&headers)?.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(protocol_error(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { body, authorization, close, ..request }))
}

/// Reads header lines until the blank separator, lower-casing names.
fn read_headers<R: BufRead>(reader: &mut R) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line_capped(reader)? else {
            return Err(protocol_error("connection closed inside the header block"));
        };
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(protocol_error("too many headers"));
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
            }
            None => return Err(protocol_error(format!("malformed header `{line}`"))),
        }
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(key, _)| key == name).map(|(_, value)| value.as_str())
}

/// The body length a message's `Content-Length` header declares (`None`
/// when absent). Requests and responses both frame through this one check:
/// a duplicate header is rejected even when the values agree, and
/// conflicting values are rejected rather than resolved, because two
/// parsers that fold them differently disagree about where the next
/// message starts.
fn content_length(headers: &[(String, String)]) -> io::Result<Option<usize>> {
    let mut length = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        let parsed = value
            .parse::<usize>()
            .map_err(|_| protocol_error(format!("invalid Content-Length `{value}`")))?;
        match length {
            Some(seen) if seen != parsed => {
                return Err(protocol_error("conflicting Content-Length headers"));
            }
            Some(_) => return Err(protocol_error("duplicate Content-Length headers")),
            None => length = Some(parsed),
        }
    }
    Ok(length)
}

/// The reason phrase of the status codes the service emits.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// The `Connection` response header for a keep-alive or closing exchange.
fn connection_header(close: bool) -> &'static str {
    if close {
        "close"
    } else {
        "keep-alive"
    }
}

/// Writes one request with `Content-Length` framing and, when `bearer` is
/// set, an `Authorization: Bearer` header. Head and body leave in one
/// `write_all` of one buffer (see "Wire writes" in the crate docs).
pub(crate) fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    host: impl fmt::Display,
    bearer: Option<&str>,
    body: &str,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(128 + body.len());
    write!(message, "{method} {path} HTTP/1.1\r\nHost: {host}\r\n")?;
    if let Some(token) = bearer {
        write!(message, "Authorization: Bearer {token}\r\n")?;
    }
    write!(message, "Content-Length: {}\r\n\r\n", body.len())?;
    message.extend_from_slice(body.as_bytes());
    writer.write_all(&message)?;
    writer.flush()
}

/// The server half of one connection. Each helper stages one whole wire
/// message (a sized response, a chunked-stream head, one chunk with its
/// size line and CRLF, or the terminator) in a buffer that the connection
/// reuses, then hands it to the socket in one `write_all`. With
/// `TCP_NODELAY` on, a message leaves as one burst instead of a run of tiny
/// segments (see "Wire writes" in the crate docs).
pub(crate) struct ResponseWriter<W> {
    inner: W,
    message: Vec<u8>,
}

impl<W: Write> ResponseWriter<W> {
    pub(crate) fn new(inner: W) -> ResponseWriter<W> {
        ResponseWriter { inner, message: Vec::new() }
    }

    /// Writes a complete JSON response (`Content-Length` framing). `close`
    /// announces that the server will close the connection after this
    /// response; otherwise the connection stays open for the next request.
    pub(crate) fn respond_json(&mut self, status: u16, body: &str, close: bool) -> io::Result<()> {
        write!(
            self.message,
            "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: {}\r\n\r\n",
            status_text(status),
            body.len(),
            connection_header(close)
        )?;
        self.message.extend_from_slice(body.as_bytes());
        self.send()
    }

    /// Writes an error response whose body is `{"error":"<message>"}`.
    pub(crate) fn respond_error(
        &mut self,
        status: u16,
        message: &str,
        close: bool,
    ) -> io::Result<()> {
        self.respond_json(status, &format!("{{\"error\":{}}}", json_string(message)), close)
    }

    /// Starts a chunked NDJSON response; follow with
    /// [`write_chunk`](Self::write_chunk) per payload and one
    /// [`finish_chunked`](Self::finish_chunked). Chunked framing is
    /// self-terminating, so the connection survives the stream unless
    /// `close` is set.
    pub(crate) fn start_chunked(&mut self, close: bool) -> io::Result<()> {
        write!(
            self.message,
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            connection_header(close)
        )?;
        self.send()
    }

    /// Writes one non-empty chunk (an empty chunk would terminate the
    /// stream).
    pub(crate) fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        debug_assert!(!bytes.is_empty(), "an empty chunk is the terminator");
        write!(self.message, "{:x}\r\n", bytes.len())?;
        self.message.extend_from_slice(bytes);
        self.message.extend_from_slice(b"\r\n");
        self.send()
    }

    /// Writes the terminating zero-length chunk.
    pub(crate) fn finish_chunked(&mut self) -> io::Result<()> {
        self.message.extend_from_slice(b"0\r\n\r\n");
        self.send()
    }

    /// Hands the staged message to the socket and empties the buffer,
    /// keeping its capacity for the next message.
    fn send(&mut self) -> io::Result<()> {
        let sent = self.inner.write_all(&self.message).and_then(|()| self.inner.flush());
        self.message.clear();
        sent
    }
}

/// The parsed status line and framing headers of a response.
#[derive(Debug)]
pub(crate) struct ResponseHead {
    pub status: u16,
    pub chunked: bool,
    pub content_length: Option<usize>,
    /// The server announced it will close the connection after this
    /// response, so the client must not pool it for reuse.
    pub close: bool,
}

/// Reads a response's status line and headers, leaving the reader at the
/// first body byte.
pub(crate) fn read_response_head<R: BufRead>(reader: &mut R) -> io::Result<ResponseHead> {
    let Some(line) = read_line_capped(reader)? else {
        // `UnexpectedEof`, not `InvalidData`: a clean close before the
        // status line is the signature of a stale pooled connection, which
        // the client's reconnect-once logic keys on the error kind.
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    };
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| {
                protocol_error(format!("malformed status line `{}`", line.trim_end()))
            })?
        }
        _ => return Err(protocol_error(format!("malformed status line `{}`", line.trim_end()))),
    };
    let headers = read_headers(reader)?;
    let chunked = header_value(&headers, "transfer-encoding")
        .is_some_and(|value| value.eq_ignore_ascii_case("chunked"));
    let content_length = content_length(&headers)?;
    let close = header_value(&headers, "connection").is_some_and(wants_close);
    Ok(ResponseHead { status, chunked, content_length, close })
}

/// Reads a `Content-Length`-framed body (the non-streaming endpoints).
pub(crate) fn read_sized_body<R: BufRead>(
    reader: &mut R,
    head: &ResponseHead,
) -> io::Result<Vec<u8>> {
    let length = head.content_length.ok_or_else(|| {
        protocol_error("response carries neither Content-Length nor chunked framing")
    })?;
    if length > MAX_BODY_BYTES {
        return Err(protocol_error(format!(
            "response body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Decodes a chunked body, forwarding each chunk's payload to `sink` as it
/// arrives (this is how the client tails a live event stream). Returns the
/// total payload bytes streamed.
pub(crate) fn stream_chunked_body<R: BufRead>(
    reader: &mut R,
    sink: &mut dyn Write,
) -> io::Result<u64> {
    let mut total = 0u64;
    let mut chunk = Vec::new();
    loop {
        let Some(size_line) = read_line_capped(reader)? else {
            return Err(protocol_error("connection closed inside the chunked body"));
        };
        let size_token = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| protocol_error(format!("invalid chunk size `{size_token}`")))?;
        if size > MAX_CHUNK_BYTES {
            return Err(protocol_error(format!(
                "chunk of {size} bytes exceeds the {MAX_CHUNK_BYTES}-byte limit"
            )));
        }
        if size == 0 {
            // Trailer section: header lines (none in practice) up to the
            // final blank line. Their content is ignored, but a stream cut
            // inside it or a malformed line is an error: the connection's
            // framing position is then unknown, so it must not be reused.
            read_headers(reader)?;
            return Ok(total);
        }
        chunk.resize(size, 0);
        reader.read_exact(&mut chunk)?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(protocol_error("chunk payload not terminated by CRLF"));
        }
        sink.write_all(&chunk)?;
        total += size as u64;
    }
}

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    #[test]
    fn requests_parse_method_path_and_body() {
        let raw = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let request = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .unwrap()
            .expect("a full request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/campaigns");
        assert_eq!(request.body, b"{\"a\"");
        assert!(!request.close, "absent Connection header keeps the connection alive");
    }

    #[test]
    fn connection_close_requests_are_flagged() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let request = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .unwrap()
            .expect("a full request");
        assert!(request.close, "Connection: close is honoured case-insensitively");
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let request = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .unwrap()
            .expect("a full request");
        assert!(!request.close);
    }

    #[test]
    fn ambiguously_framed_requests_are_rejected_loudly() {
        // Transfer-Encoding on a request: the protocol never chunks request
        // bodies, so this is either a confused client or a smuggling probe.
        let raw = b"POST /campaigns HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("transfer-encoding rejected");
        assert!(error.to_string().contains("Transfer-Encoding"), "{error}");

        // Conflicting Content-Length values: no winner is picked.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("conflicting lengths rejected");
        assert!(error.to_string().contains("conflicting Content-Length"), "{error}");

        // Even *agreeing* duplicates are rejected: a proxy that folds them
        // differently than we do would de-sync the connection.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("duplicate lengths rejected");
        assert!(error.to_string().contains("duplicate Content-Length"), "{error}");
    }

    #[test]
    fn empty_connections_and_garbage_fail_cleanly() {
        assert!(
            read_request(&mut BufReader::new(Cursor::new(&b""[..]))).unwrap().is_none(),
            "a silent close is not an error"
        );
        let error = read_request(&mut BufReader::new(Cursor::new(&b"nonsense\r\n\r\n"[..])))
            .expect_err("malformed request line");
        assert!(error.to_string().contains("malformed request line"), "{error}");
        let raw = b"GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n";
        let error = read_request(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("bogus length");
        assert!(error.to_string().contains("invalid Content-Length"), "{error}");
    }

    #[test]
    fn newline_free_streams_cannot_grow_memory_unboundedly() {
        // A peer that never sends `\n` is cut off at MAX_LINE_BYTES, not
        // buffered forever: the request line, the header block and chunk
        // size lines all read through the capped line reader.
        let endless = "X".repeat(MAX_LINE_BYTES as usize + 1);
        let error = read_request(&mut BufReader::new(Cursor::new(endless.clone().into_bytes())))
            .expect_err("capped request line");
        assert!(error.to_string().contains("byte limit"), "{error}");
        let raw = format!("GET / HTTP/1.1\r\n{endless}");
        let error = read_request(&mut BufReader::new(Cursor::new(raw.into_bytes())))
            .expect_err("capped header line");
        assert!(error.to_string().contains("byte limit"), "{error}");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_buffering() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let error = read_request(&mut BufReader::new(Cursor::new(raw.into_bytes())))
            .expect_err("limit enforced");
        assert!(error.to_string().contains("exceeds"), "{error}");
    }

    #[test]
    fn responses_round_trip_sized_bodies() {
        let mut wire = Vec::new();
        ResponseWriter::new(&mut wire).respond_json(201, "{\"id\":7}", false).unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status, 201);
        assert!(!head.chunked);
        assert!(!head.close, "keep-alive responses leave the connection open");
        assert_eq!(read_sized_body(&mut reader, &head).unwrap(), b"{\"id\":7}");
    }

    #[test]
    fn closing_responses_announce_connection_close() {
        let mut wire = Vec::new();
        ResponseWriter::new(&mut wire).respond_json(200, "{}", true).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Connection: close"), "{text}");
        let head = read_response_head(&mut BufReader::new(Cursor::new(wire))).unwrap();
        assert!(head.close);
    }

    #[test]
    fn chunked_streams_round_trip_byte_identically() {
        let mut wire = Vec::new();
        let mut writer = ResponseWriter::new(&mut wire);
        writer.start_chunked(false).unwrap();
        writer.write_chunk(b"{\"event\":\"a\"}\n").unwrap();
        writer.write_chunk(b"{\"event\":\"b\"}\n{\"event\":\"c\"}\n").unwrap();
        writer.finish_chunked().unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        let head = read_response_head(&mut reader).unwrap();
        assert!(head.chunked);
        let mut decoded = Vec::new();
        let total = stream_chunked_body(&mut reader, &mut decoded).unwrap();
        assert_eq!(decoded, b"{\"event\":\"a\"}\n{\"event\":\"b\"}\n{\"event\":\"c\"}\n");
        assert_eq!(total, decoded.len() as u64);
    }

    #[test]
    fn error_bodies_escape_their_message() {
        let mut wire = Vec::new();
        ResponseWriter::new(&mut wire).respond_error(400, "bad \"spec\"", true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("{\"error\":\"bad \\\"spec\\\"\"}"), "{text}");
    }

    #[test]
    fn responses_with_duplicate_or_conflicting_lengths_are_rejected() {
        // The response side frames through the same strict check as
        // requests: no first-one-wins.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}";
        let error = read_response_head(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("conflicting lengths rejected");
        assert!(error.to_string().contains("conflicting Content-Length"), "{error}");
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        let error = read_response_head(&mut BufReader::new(Cursor::new(&raw[..])))
            .expect_err("duplicate lengths rejected");
        assert!(error.to_string().contains("duplicate Content-Length"), "{error}");
    }

    #[test]
    fn truncated_or_malformed_trailers_are_errors() {
        // Cut right after the zero-size line: the blank line that ends the
        // trailer section never arrived.
        let mut reader = BufReader::new(Cursor::new(&b"3\r\nabc\r\n0\r\n"[..]));
        let error = stream_chunked_body(&mut reader, &mut Vec::new()).expect_err("truncated");
        assert!(error.to_string().contains("header block"), "{error}");

        let raw = b"3\r\nabc\r\n0\r\nnot a header\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(&raw[..]));
        let error = stream_chunked_body(&mut reader, &mut Vec::new()).expect_err("malformed");
        assert!(error.to_string().contains("malformed header"), "{error}");

        // A well-formed trailer is still read past and ignored.
        let raw = b"3\r\nabc\r\n0\r\nX-Checksum: 1\r\n\r\n";
        let mut decoded = Vec::new();
        let total = stream_chunked_body(&mut BufReader::new(Cursor::new(&raw[..])), &mut decoded)
            .expect("trailer accepted");
        assert_eq!((total, decoded.as_slice()), (3, &b"abc"[..]));
    }

    /// A `Write` that counts `write` calls, to pin how many pieces each
    /// message reaches the socket in.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_message_is_one_write() {
        // Bigger than a `BufWriter`'s default buffer, which would pass a
        // payload this size through as a write of its own.
        let big = "x".repeat(100 * 1024);
        let mut writer = ResponseWriter::new(CountingWrite::default());
        let mut sent = 0;
        let mut one_write = |writer: &ResponseWriter<CountingWrite>, what: &str| {
            sent += 1;
            assert_eq!(writer.inner.writes, sent, "{what} must be exactly one write");
        };
        writer.respond_json(201, "{\"id\":7}", false).unwrap();
        one_write(&writer, "a small JSON response");
        writer.respond_json(200, &big, false).unwrap();
        one_write(&writer, "a large JSON response");
        writer.respond_error(409, "busy", true).unwrap();
        one_write(&writer, "an error response");
        writer.start_chunked(false).unwrap();
        one_write(&writer, "the chunked head");
        writer.write_chunk(b"{\"event\":\"a\"}\n").unwrap();
        one_write(&writer, "a small chunk");
        writer.write_chunk(big.as_bytes()).unwrap();
        one_write(&writer, "a large chunk");
        writer.finish_chunked().unwrap();
        one_write(&writer, "the terminator");

        // One write per message changes no byte of the framing.
        let wire = writer.inner.bytes;
        let head = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
                     Content-Length: 8\r\nConnection: keep-alive\r\n\r\n{\"id\":7}";
        assert!(wire.starts_with(head));
        let tail = format!("19000\r\n{big}\r\n0\r\n\r\n");
        assert!(wire.ends_with(tail.as_bytes()));
    }

    #[test]
    fn a_request_is_one_write_and_reads_back() {
        let mut wire = CountingWrite::default();
        write_request(&mut wire, "POST", "/campaigns", "127.0.0.1:9", Some("tok"), "{\"a\":1}")
            .unwrap();
        assert_eq!(wire.writes, 1, "head and body leave together");
        assert_eq!(
            wire.bytes,
            b"POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1:9\r\nAuthorization: Bearer tok\r\n\
              Content-Length: 7\r\n\r\n{\"a\":1}"
        );
        let request = read_request(&mut BufReader::new(Cursor::new(wire.bytes)))
            .unwrap()
            .expect("a full request");
        assert_eq!(request.authorization.as_deref(), Some("Bearer tok"));
        assert_eq!(request.body, b"{\"a\":1}");
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Reads one response the way the client does: the head, then the
        /// chunked or the sized body.
        fn read_response(wire: &[u8]) -> io::Result<(ResponseHead, Vec<u8>)> {
            let mut reader = BufReader::new(Cursor::new(wire));
            let head = read_response_head(&mut reader)?;
            let body = if head.chunked {
                let mut body = Vec::new();
                stream_chunked_body(&mut reader, &mut body)?;
                body
            } else {
                read_sized_body(&mut reader, &head)?
            };
            Ok((head, body))
        }

        /// Whether a reader's error is one damaged bytes may produce: bad
        /// framing (`InvalidData`) or a message cut short
        /// (`UnexpectedEof`).
        fn is_framing_error(error: &io::Error) -> bool {
            matches!(error.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof)
        }

        /// `wire` with each `(position, mask)` XORed in (positions wrap).
        fn flipped(wire: &[u8], flips: &[(usize, u8)]) -> Vec<u8> {
            let mut bytes = wire.to_vec();
            for &(position, mask) in flips {
                let index = position % bytes.len();
                bytes[index] ^= mask;
            }
            bytes
        }

        /// Every strict prefix of a response must fail with a framing
        /// error: a reader that returns `Ok` on a cut message would let the
        /// client pool a socket whose framing position is wrong.
        fn every_prefix_fails(wire: &[u8]) {
            for cut in 0..wire.len() {
                match read_response(&wire[..cut]) {
                    Ok(_) => panic!("a {cut}-byte prefix of {} read back as whole", wire.len()),
                    Err(error) => assert!(is_framing_error(&error), "cut {cut}: {error:?}"),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any status and body written by `respond_json` read back
            /// exactly, with nothing left over.
            #[test]
            fn sized_responses_read_back_exactly(
                status in any::<u16>(),
                body in vec(any::<u8>(), 0..200),
                close in any::<bool>(),
                flips in vec((any::<usize>(), 1u8..=255), 1..4),
            ) {
                let body = String::from_utf8_lossy(&body).into_owned();
                let mut wire = Vec::new();
                ResponseWriter::new(&mut wire).respond_json(status, &body, close).unwrap();
                let (head, read) = read_response(&wire).expect("a whole response");
                prop_assert_eq!((head.status, head.chunked, head.close), (status, false, close));
                prop_assert_eq!(read, body.into_bytes());

                every_prefix_fails(&wire);
                if let Err(error) = read_response(&flipped(&wire, &flips)) {
                    prop_assert!(is_framing_error(&error), "{:?}", error);
                }
            }

            /// Any chunk sequence written by the chunked helpers de-chunks
            /// to exactly its concatenation.
            #[test]
            fn chunked_streams_read_back_exactly(
                chunks in vec(vec(any::<u8>(), 1..300), 0..5),
                close in any::<bool>(),
                flips in vec((any::<usize>(), 1u8..=255), 1..4),
            ) {
                let mut wire = Vec::new();
                let mut writer = ResponseWriter::new(&mut wire);
                writer.start_chunked(close).unwrap();
                for chunk in &chunks {
                    writer.write_chunk(chunk).unwrap();
                }
                writer.finish_chunked().unwrap();
                let (head, read) = read_response(&wire).expect("a whole stream");
                prop_assert_eq!((head.status, head.chunked, head.close), (200, true, close));
                prop_assert_eq!(read, chunks.concat());

                every_prefix_fails(&wire);
                if let Err(error) = read_response(&flipped(&wire, &flips)) {
                    prop_assert!(is_framing_error(&error), "{:?}", error);
                }
            }

            /// Requests written by `write_request` read back exactly; cut
            /// short they fail (or read as a silent close at zero bytes),
            /// and flipped bytes never panic the server's reader.
            #[test]
            fn requests_read_back_exactly(
                method in 0usize..3,
                id in any::<u64>(),
                bearer in any::<bool>(),
                body in vec(any::<u8>(), 0..200),
                flips in vec((any::<usize>(), 1u8..=255), 1..4),
            ) {
                let method = ["GET", "POST", "DELETE"][method];
                let path = format!("/campaigns/{id}");
                let body = String::from_utf8_lossy(&body).into_owned();
                let token = bearer.then_some("t0k");
                let mut wire = Vec::new();
                write_request(&mut wire, method, &path, "127.0.0.1:80", token, &body).unwrap();
                let request = read_request(&mut BufReader::new(Cursor::new(&wire)))
                    .expect("a whole request")
                    .expect("not a silent close");
                prop_assert_eq!((request.method.as_str(), request.path.as_str()), (method, &*path));
                prop_assert_eq!(request.authorization, token.map(|t| format!("Bearer {t}")));
                prop_assert_eq!(request.body, body.into_bytes());

                for cut in 0..wire.len() {
                    match read_request(&mut BufReader::new(Cursor::new(&wire[..cut]))) {
                        Ok(None) => prop_assert_eq!(cut, 0),
                        Ok(Some(_)) => panic!("a {cut}-byte prefix read back as a request"),
                        Err(error) => prop_assert!(is_framing_error(&error), "{:?}", error),
                    }
                }
                let damaged = flipped(&wire, &flips);
                if let Err(error) = read_request(&mut BufReader::new(Cursor::new(&damaged))) {
                    prop_assert!(is_framing_error(&error), "{:?}", error);
                }
            }
        }
    }
}

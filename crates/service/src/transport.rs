//! Pluggable byte transports for the campaign client.
//!
//! The client used to call `TcpStream::connect` directly; routing every
//! connection through a [`Transport`] buys two things the dispatch
//! coordinator needs:
//!
//! * **deadlines** — [`TcpTransport`] applies connect/read/write timeouts to
//!   every socket it hands out (and sets `TCP_NODELAY` on it), so a dead
//!   worker turns into a bounded `TimedOut` error instead of an indefinite
//!   hang;
//! * **fault injection** — [`FaultyTransport`] wraps any inner transport and
//!   injects a scheduled [`Fault`] (connection refusal, mid-stream drop,
//!   stall, short write, garbage bytes) into chosen connections or requests,
//!   which is how the chaos suites prove the coordinator's
//!   retry/reassignment logic produces byte-identical artefacts under
//!   failure.
//!
//! Faults are scheduled by *connection index* (0-based, in connect order)
//! or — now that connections carry many requests — by *request index*
//! (0-based, in [`Connection::begin_request`] order across all
//! connections), so a chaos schedule is deterministic for a deterministic
//! coordinator and can target any request boundary regardless of which
//! pooled connection happens to carry it.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A bidirectional byte stream (what [`Transport::connect`] hands out).
pub trait Connection: Read + Write + Send {
    /// Marks the start of a new request/response exchange on this
    /// connection. The client calls this once per request (including each
    /// reuse of a pooled connection); transports that schedule per-request
    /// faults arm them here. The default is a no-op.
    fn begin_request(&mut self) {}
}

impl Connection for TcpStream {}

/// A connection factory: the seam between the protocol client and the
/// network.
pub trait Transport: Send + Sync {
    /// Opens one connection to `addr`.
    ///
    /// # Errors
    ///
    /// Any I/O error of the underlying connect (or an injected fault).
    fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>>;
}

/// The real TCP transport: `TCP_NODELAY` on every socket, plus optional
/// per-socket deadlines.
///
/// `Default` applies no deadlines (the legacy client behaviour); dispatch
/// builds one with [`with_deadlines`](TcpTransport::with_deadlines) so every
/// request the coordinator makes is bounded.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTransport {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl TcpTransport {
    /// A transport whose connects, reads and writes all time out after
    /// `timeout` (`None` disables the deadlines).
    pub fn with_deadlines(timeout: Option<Duration>) -> TcpTransport {
        TcpTransport { connect_timeout: timeout, read_timeout: timeout, write_timeout: timeout }
    }

    /// Dials `addr` and configures the socket: the deadlines, and
    /// `TCP_NODELAY` so each request leaves the moment it is written rather
    /// than waiting for the peer's delayed ACK (see "Wire writes" in the
    /// crate docs).
    pub(crate) fn dial(&self, addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = match self.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        Ok(stream)
    }
}

impl Transport for TcpTransport {
    fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>> {
        Ok(Box::new(self.dial(addr)?))
    }
}

/// One injected failure mode, applied to a single connection or request.
///
/// When scheduled per *connection* ([`FaultyTransport::schedule`]), byte
/// positions count the connection's whole traffic; when scheduled per
/// *request* ([`FaultyTransport::schedule_request`]), they count from the
/// request boundary, so `DropAfter(0)` kills the first response byte of that
/// request even if the connection already carried megabytes.
/// [`Fault::RefuseConnect`] scheduled per request cannot refuse an
/// already-open socket; it fails the request's first write with
/// `BrokenPipe` instead (the closest observable behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The connect itself fails (`ConnectionRefused`) — a worker that is
    /// down before the request starts.
    RefuseConnect,
    /// Reads fail with `ConnectionReset` once `K` response bytes have been
    /// delivered — a worker that dies mid-stream.
    DropAfter(usize),
    /// Reads fail with `TimedOut` once `K` response bytes have been
    /// delivered — a worker that goes silent, surfaced exactly as the read
    /// deadline would surface it (no wall-clock wait, so chaos suites stay
    /// fast while exercising the same error path).
    StallAfter(usize),
    /// Response bytes from position `K` onward are corrupted (overwritten
    /// with `0x01`, a byte that is valid in neither HTTP framing nor raw
    /// JSON, so corruption is always *detectable* — see the crate docs'
    /// failure model for why undetectable corruption is out of scope).
    GarbageAt(usize),
    /// Writes accept only the first `K` request bytes, then fail with
    /// `BrokenPipe` — a worker that vanishes while the request is being
    /// sent.
    ShortWriteAt(usize),
}

/// The byte every [`Fault::GarbageAt`] corruption writes.
const GARBAGE_BYTE: u8 = 0x01;

#[derive(Default)]
struct FaultState {
    /// Faults keyed by connection index (in connect order).
    schedule: BTreeMap<usize, Fault>,
    /// Faults keyed by request index (in `begin_request` order, global
    /// across all of this transport's connections).
    request_schedule: BTreeMap<usize, Fault>,
    /// Connections handed out so far.
    connections: usize,
    /// Requests begun so far (across all connections).
    requests: usize,
}

/// A [`Transport`] wrapper that injects scheduled faults.
///
/// Connections and requests not named in the schedules pass through
/// untouched, so a chaos run interleaves healthy and faulty traffic exactly
/// like a flaky network would. The transport also counts connections opened
/// and requests begun, which is how the keep-alive suites assert that
/// connection reuse actually happened (connections < requests).
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyTransport {
    /// Wraps `inner` with an empty fault schedule.
    pub fn new(inner: Arc<dyn Transport>) -> FaultyTransport {
        FaultyTransport { inner, state: Arc::default() }
    }

    /// Schedules `fault` for the `connection`-th connect (0-based). Later
    /// entries for the same index replace earlier ones. The fault's byte
    /// positions count the connection's lifetime traffic.
    pub fn schedule(self, connection: usize, fault: Fault) -> FaultyTransport {
        self.state.lock().expect("fault schedule lock").schedule.insert(connection, fault);
        self
    }

    /// Schedules `fault` for the `request`-th request begun (0-based,
    /// counted across all connections). The fault's byte positions count
    /// from the request boundary, and the fault disarms at the next request
    /// on the same connection.
    pub fn schedule_request(self, request: usize, fault: Fault) -> FaultyTransport {
        self.state.lock().expect("fault schedule lock").request_schedule.insert(request, fault);
        self
    }

    /// How many connections have been handed out (or refused) so far.
    pub fn connections_made(&self) -> usize {
        self.state.lock().expect("fault schedule lock").connections
    }

    /// How many requests have begun so far (across all connections).
    pub fn requests_made(&self) -> usize {
        self.state.lock().expect("fault schedule lock").requests
    }
}

impl Transport for FaultyTransport {
    fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>> {
        let fault = {
            let mut state = self.state.lock().expect("fault schedule lock");
            let index = state.connections;
            state.connections += 1;
            state.schedule.get(&index).copied()
        };
        if fault == Some(Fault::RefuseConnect) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected fault: connection refused",
            ));
        }
        let inner = self.inner.connect(addr)?;
        Ok(Box::new(FaultyConnection {
            inner,
            state: Arc::clone(&self.state),
            fault,
            request_fault: None,
            read_pos: 0,
            write_pos: 0,
            request_read_pos: 0,
            request_write_pos: 0,
        }))
    }
}

/// A connection with scheduled faults armed.
///
/// The connection-lifetime fault (if any) was fixed at connect time and
/// counts bytes from the start of the connection; a per-request fault is
/// armed at each [`Connection::begin_request`] and counts bytes from that
/// boundary. A per-request fault takes precedence while armed.
struct FaultyConnection {
    inner: Box<dyn Connection>,
    state: Arc<Mutex<FaultState>>,
    fault: Option<Fault>,
    request_fault: Option<Fault>,
    read_pos: usize,
    write_pos: usize,
    request_read_pos: usize,
    request_write_pos: usize,
}

impl FaultyConnection {
    /// The armed fault and the byte position it measures against, for reads.
    fn effective_read(&self) -> (Option<Fault>, usize) {
        match self.request_fault {
            Some(fault) => (Some(fault), self.request_read_pos),
            None => (self.fault, self.read_pos),
        }
    }

    /// The armed fault and the byte position it measures against, for
    /// writes.
    fn effective_write(&self) -> (Option<Fault>, usize) {
        match self.request_fault {
            Some(fault) => (Some(fault), self.request_write_pos),
            None => (self.fault, self.write_pos),
        }
    }
}

impl Connection for FaultyConnection {
    fn begin_request(&mut self) {
        let mut state = self.state.lock().expect("fault schedule lock");
        let index = state.requests;
        state.requests += 1;
        self.request_fault = state.request_schedule.get(&index).copied();
        drop(state);
        self.request_read_pos = 0;
        self.request_write_pos = 0;
    }
}

impl Read for FaultyConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (fault, pos) = self.effective_read();
        let limit = match fault {
            Some(Fault::DropAfter(k) | Fault::StallAfter(k)) => {
                if pos >= k {
                    return Err(match fault {
                        Some(Fault::DropAfter(_)) => io::Error::new(
                            io::ErrorKind::ConnectionReset,
                            "injected fault: connection dropped mid-stream",
                        ),
                        _ => io::Error::new(
                            io::ErrorKind::TimedOut,
                            "injected fault: read deadline fired",
                        ),
                    });
                }
                (k - pos).min(buf.len())
            }
            _ => buf.len(),
        };
        let n = self.inner.read(&mut buf[..limit])?;
        if let Some(Fault::GarbageAt(k)) = fault {
            for (offset, byte) in buf[..n].iter_mut().enumerate() {
                if pos + offset >= k {
                    *byte = GARBAGE_BYTE;
                }
            }
        }
        self.read_pos += n;
        self.request_read_pos += n;
        Ok(n)
    }
}

impl Write for FaultyConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (fault, pos) = self.effective_write();
        let limit = match fault {
            // A request-scheduled RefuseConnect cannot refuse an open
            // socket; failing the request's first write is the nearest
            // equivalent a client can observe.
            Some(Fault::RefuseConnect) if self.request_fault.is_some() => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected fault: peer gone before the request",
                ));
            }
            Some(Fault::ShortWriteAt(k)) => {
                if pos >= k {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "injected fault: peer gone mid-request",
                    ));
                }
                (k - pos).min(buf.len())
            }
            _ => buf.len(),
        };
        let n = self.inner.write(&buf[..limit])?;
        self.write_pos += n;
        self.request_write_pos += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::thread;

    /// A one-shot echo peer: accepts one connection, reads one line, writes
    /// `reply` back, closes.
    fn one_shot_server(reply: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                let mut stream = stream;
                let _ = stream.write_all(reply);
            }
        });
        addr
    }

    fn roundtrip(transport: &dyn Transport, addr: SocketAddr) -> io::Result<Vec<u8>> {
        let mut conn = transport.connect(addr)?;
        conn.write_all(b"hello\n")?;
        conn.flush()?;
        let mut response = Vec::new();
        conn.read_to_end(&mut response)?;
        Ok(response)
    }

    #[test]
    fn clean_transport_passes_bytes_through() {
        let addr = one_shot_server(b"world\n");
        let transport = FaultyTransport::new(Arc::new(TcpTransport::default()));
        assert_eq!(roundtrip(&transport, addr).unwrap(), b"world\n");
        assert_eq!(transport.connections_made(), 1);
    }

    #[test]
    fn refuse_connect_fails_before_any_io() {
        let addr = one_shot_server(b"unreached\n");
        let transport =
            FaultyTransport::new(Arc::new(TcpTransport::default())).schedule(0, Fault::RefuseConnect);
        let error = roundtrip(&transport, addr).expect_err("refused");
        assert_eq!(error.kind(), io::ErrorKind::ConnectionRefused);
        // The next connection is healthy: faults are per-index.
        assert_eq!(roundtrip(&transport, addr).unwrap(), b"unreached\n");
    }

    #[test]
    fn drop_after_delivers_exactly_k_bytes_then_resets() {
        let addr = one_shot_server(b"0123456789");
        let transport =
            FaultyTransport::new(Arc::new(TcpTransport::default())).schedule(0, Fault::DropAfter(4));
        let mut conn = transport.connect(addr).unwrap();
        conn.write_all(b"hello\n").unwrap();
        let mut prefix = [0u8; 4];
        conn.read_exact(&mut prefix).unwrap();
        assert_eq!(&prefix, b"0123");
        let error = conn.read(&mut [0u8; 1]).expect_err("dropped");
        assert_eq!(error.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn stall_after_surfaces_as_a_timeout() {
        let addr = one_shot_server(b"0123456789");
        let transport =
            FaultyTransport::new(Arc::new(TcpTransport::default())).schedule(0, Fault::StallAfter(0));
        let mut conn = transport.connect(addr).unwrap();
        conn.write_all(b"hello\n").unwrap();
        let error = conn.read(&mut [0u8; 8]).expect_err("stalled");
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn garbage_corrupts_from_byte_k_onward() {
        let addr = one_shot_server(b"0123456789");
        let transport =
            FaultyTransport::new(Arc::new(TcpTransport::default())).schedule(0, Fault::GarbageAt(6));
        let response = roundtrip(&transport, addr).unwrap();
        assert_eq!(&response[..6], b"012345", "the prefix is intact");
        assert!(response[6..].iter().all(|&b| b == GARBAGE_BYTE), "the tail is garbage");
    }

    #[test]
    fn short_write_truncates_the_request_then_breaks() {
        let addr = one_shot_server(b"reply\n");
        let transport = FaultyTransport::new(Arc::new(TcpTransport::default()))
            .schedule(0, Fault::ShortWriteAt(3));
        let mut conn = transport.connect(addr).unwrap();
        assert_eq!(conn.write(b"hello\n").unwrap(), 3, "only K bytes are accepted");
        let error = conn.write(b"lo\n").expect_err("broken pipe");
        assert_eq!(error.kind(), io::ErrorKind::BrokenPipe);
    }

    /// An echo peer that serves many line → reply exchanges on one
    /// connection (the keep-alive shape).
    fn multi_shot_server(reply: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            if stream.write_all(reply).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn request_faults_count_bytes_from_the_request_boundary() {
        let addr = multi_shot_server(b"0123456789");
        // Request 1 (the second exchange) drops after 4 of *its own* bytes,
        // even though the connection has already carried a full reply.
        let transport = FaultyTransport::new(Arc::new(TcpTransport::default()))
            .schedule_request(1, Fault::DropAfter(4));
        let mut conn = transport.connect(addr).unwrap();

        conn.begin_request();
        conn.write_all(b"first\n").unwrap();
        let mut reply = [0u8; 10];
        conn.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"0123456789", "request 0 is untouched");

        conn.begin_request();
        conn.write_all(b"second\n").unwrap();
        let mut prefix = [0u8; 4];
        conn.read_exact(&mut prefix).unwrap();
        assert_eq!(&prefix, b"0123", "exactly K bytes of request 1 survive");
        let error = conn.read(&mut [0u8; 1]).expect_err("dropped");
        assert_eq!(error.kind(), io::ErrorKind::ConnectionReset);

        assert_eq!(transport.connections_made(), 1);
        assert_eq!(transport.requests_made(), 2);
    }

    #[test]
    fn request_faults_disarm_at_the_next_request() {
        let addr = multi_shot_server(b"ok\n");
        let transport = FaultyTransport::new(Arc::new(TcpTransport::default()))
            .schedule_request(0, Fault::GarbageAt(0));
        let mut conn = transport.connect(addr).unwrap();

        conn.begin_request();
        conn.write_all(b"first\n").unwrap();
        let mut garbled = [0u8; 3];
        conn.read_exact(&mut garbled).unwrap();
        assert!(garbled.iter().all(|&b| b == GARBAGE_BYTE), "request 0 is garbage");

        conn.begin_request();
        conn.write_all(b"second\n").unwrap();
        let mut clean = [0u8; 3];
        conn.read_exact(&mut clean).unwrap();
        assert_eq!(&clean, b"ok\n", "the fault does not leak into request 1");
    }

    #[test]
    fn request_scheduled_refuse_connect_breaks_the_first_write() {
        let addr = multi_shot_server(b"ok\n");
        let transport = FaultyTransport::new(Arc::new(TcpTransport::default()))
            .schedule_request(0, Fault::RefuseConnect);
        let mut conn = transport.connect(addr).unwrap();
        conn.begin_request();
        let error = conn.write(b"hello\n").expect_err("request refused");
        assert_eq!(error.kind(), io::ErrorKind::BrokenPipe);
    }
}

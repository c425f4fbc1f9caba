//! A small blocking client for the campaign service.
//!
//! Connections are pooled: the client keeps idle keep-alive connections and
//! reuses them for later requests, opening a new one only when the pool is
//! empty (so concurrent requests from cloned clients still run in parallel).
//! A pooled socket can go stale — the server idle-times it out between
//! requests — so a request that fails on a *reused* connection before any
//! response arrived is retried exactly once on a fresh connection; failures
//! on fresh connections are real and surface to the caller. It is what the
//! in-tree round-trip tests and `examples/remote_campaign.rs` drive — the
//! whole loop of submit spec → tail events → fetch final report.

use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mabfuzz::json_value;

use crate::http::{
    read_response_head, read_sized_body, stream_chunked_body, write_request, ResponseHead,
};
use crate::transport::{Connection, TcpTransport, Transport};

/// Idle connections retained per client (shared across clones). More
/// concurrent requests than this still work — the extras simply close
/// instead of returning to the pool.
const MAX_IDLE_CONNECTIONS: usize = 8;

/// A pooled connection: the buffered reader wraps the connection so any
/// read-ahead bytes stay with the socket across reuses (writes go through
/// `get_mut`).
type Pooled = BufReader<Box<dyn Connection>>;

/// Error kinds that mean "the pooled socket was already dead", the expected
/// fate of an idle keep-alive connection the server timed out. A reused
/// connection failing this way is retried once on a fresh socket; anything
/// else (a real deadline, garbage framing) surfaces to the caller.
fn is_stale(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket or framing error.
    Io(io::Error),
    /// The server answered with a non-success status; `message` carries the
    /// body's `error` text (the `SpecError` text for rejected specs).
    Http {
        /// The HTTP status code.
        status: u16,
        /// The server's error message.
        message: String,
    },
    /// The response body did not match the protocol schema.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(error) => write!(f, "I/O error: {error}"),
            ClientError::Http { status, message } => write!(f, "HTTP {status}: {message}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(error: io::Error) -> ClientError {
        ClientError::Io(error)
    }
}

/// The status snapshot of one remote campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The campaign id.
    pub id: u64,
    /// The lifecycle status: `queued`, `running`, `finished`, `cancelled`
    /// or `failed`.
    pub status: String,
    /// The campaign's report label (`"MABFuzz: UCB"`, `"TheHuzz"`, …).
    pub label: String,
}

impl CampaignStatus {
    /// Whether the campaign will make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(self.status.as_str(), "finished" | "cancelled" | "failed")
    }
}

/// A point-in-time census of one worker, from the `GET /healthz` document —
/// the signal the `experiments fleet` dashboard polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Campaigns the hub currently tracks (any status).
    pub campaigns: u64,
    /// Jobs queued and waiting for a worker.
    pub queued: u64,
    /// Jobs a worker is executing right now.
    pub running: u64,
    /// The configured `--max-queue` bound (`None` = unbounded).
    pub capacity: Option<u64>,
}

/// A blocking campaign-service client.
///
/// Cloning is cheap and clones share the connection pool, so a fleet of
/// threads hammering one worker reuses the same keep-alive connections.
#[derive(Clone)]
pub struct Client {
    addr: SocketAddr,
    transport: Arc<dyn Transport>,
    auth_token: Option<String>,
    pool: Arc<Mutex<Vec<Pooled>>>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("auth", &self.auth_token.is_some())
            .finish()
    }
}

impl Client {
    /// A client for the daemon at `addr` (plain TCP, no deadlines, no auth).
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            transport: Arc::new(TcpTransport::default()),
            auth_token: None,
            pool: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Resolves `addr` (e.g. `"127.0.0.1:8080"`) and builds a client for it.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the address does not resolve.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("`{addr}` resolves to nothing")))?;
        Ok(Client::new(addr))
    }

    /// Routes every connection through `transport` — the dispatch
    /// coordinator's deadline-bearing [`TcpTransport`] or a chaos suite's
    /// [`FaultyTransport`](crate::FaultyTransport). Pooled connections from
    /// the previous transport are discarded.
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Client {
        self.transport = transport;
        self.pool = Arc::new(Mutex::new(Vec::new()));
        self
    }

    /// Applies connect/read/write deadlines to every request (`None`
    /// restores unbounded I/O). A convenience for
    /// [`with_transport`](Client::with_transport) over a deadline-bearing
    /// [`TcpTransport`].
    pub fn with_deadline(self, timeout: Option<Duration>) -> Client {
        self.with_transport(Arc::new(TcpTransport::with_deadlines(timeout)))
    }

    /// Sends `Authorization: Bearer <token>` on every request — required
    /// when the daemon runs with `--auth-token`.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Client {
        self.auth_token = Some(token.into());
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Takes an idle pooled connection (second tuple element `true`) or
    /// opens a fresh one (`false`).
    fn checkout(&self) -> Result<(Pooled, bool), ClientError> {
        if let Some(conn) = self.pool.lock().expect("connection pool lock").pop() {
            return Ok((conn, true));
        }
        Ok((BufReader::new(self.transport.connect(self.addr)?), false))
    }

    /// Returns a connection to the pool after a fully consumed keep-alive
    /// response. A connection with unread buffered bytes is desynchronised
    /// (the response was not consumed exactly) and is dropped instead —
    /// never pool a socket whose framing position is in doubt.
    fn checkin(&self, conn: Pooled) {
        if !conn.buffer().is_empty() {
            return;
        }
        let mut pool = self.pool.lock().expect("connection pool lock");
        if pool.len() < MAX_IDLE_CONNECTIONS {
            pool.push(conn);
        }
    }

    /// One request over a pooled or fresh connection, up to the parsed
    /// response head (the body is left for the caller). A reused connection
    /// that turns out to be stale is retried exactly once on a fresh one.
    fn send_request(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(Pooled, ResponseHead), ClientError> {
        let (conn, reused) = self.checkout()?;
        match self.try_send(conn, method, path, body) {
            Ok(exchange) => Ok(exchange),
            Err(error) if reused && is_stale(error.kind()) => {
                // The server idle-timed the pooled socket out between our
                // requests (the expected end of a keep-alive connection's
                // life). One fresh connection; its errors are real.
                let conn = BufReader::new(self.transport.connect(self.addr)?);
                Ok(self.try_send(conn, method, path, body)?)
            }
            Err(error) => Err(error.into()),
        }
    }

    /// Writes one request and reads the response head on `conn`.
    fn try_send(
        &self,
        mut conn: Pooled,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(Pooled, ResponseHead)> {
        conn.get_mut().begin_request();
        write_request(conn.get_mut(), method, path, self.addr, self.auth_token.as_deref(), body)?;
        let head = read_response_head(&mut conn)?;
        Ok((conn, head))
    }

    /// Probes `GET /healthz` and returns the server's campaign count — the
    /// heartbeat the dispatch coordinator uses to readmit quarantined
    /// workers. The probe is deliberately exempt from auth (see the crate
    /// docs), so it works regardless of token configuration.
    pub fn healthz(&self) -> Result<u64, ClientError> {
        let body = self.request_sized("GET", "/healthz", None)?;
        let value = parse_body(&body)?;
        let status = field(&value, "status")?
            .as_str("status")
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        if status != "ok" {
            return Err(ClientError::Protocol(format!("healthz status `{status}`")));
        }
        field(&value, "campaigns")?
            .as_u64("campaigns")
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Fetches the full `GET /healthz` census — tracked campaigns, queue
    /// depth, running jobs and the configured `--max-queue` bound — for
    /// fleet dashboards. [`healthz`](Client::healthz) is the cheap liveness
    /// probe form of the same request.
    pub fn health_snapshot(&self) -> Result<HealthSnapshot, ClientError> {
        let body = self.request_sized("GET", "/healthz", None)?;
        let value = parse_body(&body)?;
        let err = |e: mabfuzz::SpecError| ClientError::Protocol(e.to_string());
        let status = field(&value, "status")?.as_str("status").map_err(err)?;
        if status != "ok" {
            return Err(ClientError::Protocol(format!("healthz status `{status}`")));
        }
        let capacity = match value.get("capacity") {
            None => None,
            Some(entry) if entry.is_null() => None,
            Some(entry) => Some(entry.as_u64("capacity").map_err(err)?),
        };
        Ok(HealthSnapshot {
            campaigns: field(&value, "campaigns")?.as_u64("campaigns").map_err(err)?,
            queued: field(&value, "queued")?.as_u64("queued").map_err(err)?,
            running: field(&value, "running")?.as_u64("running").map_err(err)?,
            capacity,
        })
    }

    /// Submits a campaign-spec JSON document (`POST /campaigns`) and returns
    /// the assigned campaign id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Http`] with status 400 and the strict codec's
    /// `SpecError` text when the spec is rejected.
    pub fn submit(&self, spec_json: &str) -> Result<u64, ClientError> {
        let body = self.request_sized("POST", "/campaigns", Some(spec_json))?;
        let value = parse_body(&body)?;
        field(&value, "id")?.as_u64("id").map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Fetches one campaign's status (`GET /campaigns/{id}`).
    pub fn status(&self, id: u64) -> Result<CampaignStatus, ClientError> {
        let body = self.request_sized("GET", &format!("/campaigns/{id}"), None)?;
        parse_status(&parse_body(&body)?)
    }

    /// Lists every campaign the server knows (`GET /campaigns`).
    pub fn list(&self) -> Result<Vec<CampaignStatus>, ClientError> {
        let body = self.request_sized("GET", "/campaigns", None)?;
        let value = parse_body(&body)?;
        let entries = field(&value, "campaigns")?
            .as_array("campaigns")
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        entries.iter().map(parse_status).collect()
    }

    /// Fetches the final report document (`GET /campaigns/{id}/report`) —
    /// byte-identical to what `experiments run --spec <spec> --json` prints
    /// for the same spec.
    ///
    /// # Errors
    ///
    /// [`ClientError::Http`] with status 409 while the campaign is still
    /// queued or running.
    pub fn report(&self, id: u64) -> Result<String, ClientError> {
        let body = self.request_sized("GET", &format!("/campaigns/{id}/report"), None)?;
        String::from_utf8(body).map_err(|_| ClientError::Protocol("report is not UTF-8".into()))
    }

    /// Requests cancellation (`POST /campaigns/{id}/cancel`); the campaign
    /// stops at its next fold boundary.
    pub fn cancel(&self, id: u64) -> Result<(), ClientError> {
        self.request_sized("POST", &format!("/campaigns/{id}/cancel"), None)?;
        Ok(())
    }

    /// Tails a campaign's live NDJSON event stream
    /// (`GET /campaigns/{id}/events`) into `sink`, chunk by chunk as events
    /// arrive, returning the total bytes streamed once the stream ends. The
    /// streamed bytes are exactly the campaign's `EventLog` stream — late
    /// subscribers replay it from the start.
    pub fn stream_events(&self, id: u64, sink: &mut dyn Write) -> Result<u64, ClientError> {
        let (mut conn, head) =
            self.send_request("GET", &format!("/campaigns/{id}/events"), "")?;
        if head.status != 200 {
            return Err(self.consume_error(conn, &head));
        }
        if !head.chunked {
            return Err(ClientError::Protocol("event stream is not chunked".into()));
        }
        let total = stream_chunked_body(&mut conn, sink)?;
        // Chunked framing is self-terminating: the stream's end leaves the
        // connection at a clean request boundary, ready for reuse.
        if !head.close {
            self.checkin(conn);
        }
        Ok(total)
    }

    /// [`stream_events`](Client::stream_events) into a `String`.
    pub fn events(&self, id: u64) -> Result<String, ClientError> {
        let mut bytes = Vec::new();
        self.stream_events(id, &mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|_| ClientError::Protocol("event stream is not UTF-8".into()))
    }

    /// Polls the status every `interval` until the campaign is terminal and
    /// returns the final snapshot.
    pub fn wait_terminal(
        &self,
        id: u64,
        interval: Duration,
    ) -> Result<CampaignStatus, ClientError> {
        loop {
            let status = self.status(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            std::thread::sleep(interval);
        }
    }

    /// Evicts a terminal campaign from the server
    /// (`DELETE /campaigns/{id}`), freeing its retained event history and
    /// report.
    ///
    /// # Errors
    ///
    /// [`ClientError::Http`] with status 409 while the campaign is still
    /// queued or running, 404 for unknown ids.
    pub fn delete(&self, id: u64) -> Result<(), ClientError> {
        self.request_sized("DELETE", &format!("/campaigns/{id}"), None)?;
        Ok(())
    }

    /// Asks the daemon to shut down cleanly (`POST /shutdown`): it stops
    /// accepting work, drains already-queued campaigns and joins its
    /// workers.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.request_sized("POST", "/shutdown", None)?;
        Ok(())
    }

    /// One request/response cycle with a sized (non-streaming) body.
    fn request_sized(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Vec<u8>, ClientError> {
        let (mut conn, head) = self.send_request(method, path, body.unwrap_or(""))?;
        if !(200..300).contains(&head.status) {
            return Err(self.consume_error(conn, &head));
        }
        let bytes = read_sized_body(&mut conn, &head)?;
        if !head.close {
            self.checkin(conn);
        }
        Ok(bytes)
    }

    /// Builds the [`ClientError::Http`] for a non-success response, pulling
    /// the message out of the error body when possible. The connection
    /// returns to the pool when the error body was fully consumed — an
    /// error response is still a complete keep-alive exchange.
    fn consume_error(&self, mut conn: Pooled, head: &ResponseHead) -> ClientError {
        match read_sized_body(&mut conn, head) {
            Ok(bytes) => {
                if !head.close {
                    self.checkin(conn);
                }
                let message = String::from_utf8(bytes)
                    .ok()
                    .map(|body| {
                        json_value::parse(&body)
                            .ok()
                            .and_then(|value| {
                                value
                                    .get("error")
                                    .and_then(|m| m.as_str("error").ok().map(String::from))
                            })
                            .unwrap_or(body)
                    })
                    .unwrap_or_default();
                ClientError::Http { status: head.status, message }
            }
            Err(error) => ClientError::Io(error),
        }
    }
}

fn parse_body(body: &[u8]) -> Result<json_value::Value, ClientError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?;
    json_value::parse(text).map_err(ClientError::Protocol)
}

fn field<'a>(
    value: &'a json_value::Value,
    name: &str,
) -> Result<&'a json_value::Value, ClientError> {
    value.get(name).ok_or_else(|| ClientError::Protocol(format!("response lacks `{name}`")))
}

fn parse_status(value: &json_value::Value) -> Result<CampaignStatus, ClientError> {
    let err = |e: mabfuzz::SpecError| ClientError::Protocol(e.to_string());
    Ok(CampaignStatus {
        id: field(value, "id")?.as_u64("id").map_err(err)?,
        status: field(value, "status")?.as_str("status").map_err(err)?.to_owned(),
        label: field(value, "label")?.as_str("label").map_err(err)?.to_owned(),
    })
}

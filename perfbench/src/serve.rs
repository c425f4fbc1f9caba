//! The service path: an in-process `CampaignServer` on loopback, closed-loop
//! clients, and a counting transport for the traced run.

use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mabfuzz_service::{CampaignServer, Client, ClientError, Connection, TcpTransport, Transport};

use crate::campaigns::Reference;
use crate::layers::ServiceTally;

/// Stop a loop once this many cycles failed: a broken server must not spin.
const MAX_FAILED_CYCLES: u64 = 16;

/// A running in-process campaign server.
pub struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    /// Binds an ephemeral loopback port with `workers` campaign workers,
    /// starts serving and waits for the first health check to answer.
    pub fn start(workers: usize) -> Result<Server, String> {
        let server = CampaignServer::bind("127.0.0.1:0", workers)
            .map_err(|error| format!("cannot bind the campaign server: {error}"))?;
        let addr = server.local_addr();
        let thread = std::thread::Builder::new()
            .name("perfbench-server".to_owned())
            .spawn(move || server.serve())
            .map_err(|error| format!("cannot start the campaign server: {error}"))?;
        let server = Server {
            addr,
            thread: Some(thread),
        };
        Client::new(addr)
            .healthz()
            .map_err(|error| format!("health check failed: {error}"))?;
        Ok(server)
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the server down and joins it.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        Client::new(self.addr)
            .shutdown()
            .map_err(|error| format!("shutdown failed: {error}"))?;
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(error)) => Err(format!("the campaign server failed: {error}")),
            Err(_) => Err("the campaign server panicked".to_owned()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best effort on an error path; `stop` reports failures.
        let _ = self.shutdown();
    }
}

/// Transport-level counters.
#[derive(Debug, Default)]
struct WireCounts {
    connections: AtomicU64,
    requests: AtomicU64,
    bytes_in: AtomicU64,
}

/// Plain TCP, counting connections, requests and bytes read.
struct CountingTransport {
    inner: TcpTransport,
    counts: Arc<WireCounts>,
}

impl Transport for CountingTransport {
    fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>> {
        let inner = self.inner.connect(addr)?;
        self.counts.connections.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(CountingConnection {
            inner,
            counts: Arc::clone(&self.counts),
        }))
    }
}

struct CountingConnection {
    inner: Box<dyn Connection>,
    counts: Arc<WireCounts>,
}

impl Read for CountingConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.inner.read(buf)?;
        self.counts
            .bytes_in
            .fetch_add(read as u64, Ordering::Relaxed);
        Ok(read)
    }
}

impl Write for CountingConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Connection for CountingConnection {
    fn begin_request(&mut self) {
        self.counts.requests.fetch_add(1, Ordering::Relaxed);
        self.inner.begin_request();
    }
}

/// Collects an event stream, noting when its first byte arrived.
struct EventSink {
    start: Instant,
    first_byte: Option<Duration>,
    bytes: Vec<u8>,
}

impl Write for EventSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.first_byte.is_none() && !buf.is_empty() {
            self.first_byte = Some(self.start.elapsed());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// One closed-loop cycle: submit → stream events → report → delete.
/// Returns the submit-to-report latency and whether the served report (and,
/// when the reference has one, the event stream) matched the reference.
fn cycle(
    client: &Client,
    spec_json: &str,
    reference: &Reference,
    tally: &mut ServiceTally,
) -> Result<(Duration, bool), ClientError> {
    let start = Instant::now();
    let id = client.submit(spec_json)?;
    tally.submit_ms.push(ms(start.elapsed()));

    let mut sink = EventSink {
        start,
        first_byte: None,
        bytes: Vec::new(),
    };
    let stream_start = Instant::now();
    client.stream_events(id, &mut sink)?;
    tally.stream_ms.push(ms(stream_start.elapsed()));
    tally
        .first_event_ms
        .push(ms(sink.first_byte.unwrap_or_else(|| start.elapsed())));

    let report_start = Instant::now();
    let report = client.report(id)?;
    tally.report_ms.push(ms(report_start.elapsed()));
    let latency = start.elapsed();
    client.delete(id)?;

    let events_match = reference
        .events
        .as_ref()
        .is_none_or(|events| events.as_bytes() == sink.bytes.as_slice());
    Ok((latency, events_match && report == reference.report))
}

/// What a closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    /// Submit-to-report latency of every completed, correct cycle.
    pub latencies_ms: Vec<f64>,
    /// From the first submission until the last client finished.
    pub wall: Duration,
    /// Cycles started.
    pub attempted: u64,
    /// Cycles that failed or returned a wrong output.
    pub failed: u64,
    /// Tests executed by the correct cycles.
    pub tests: u64,
    /// DUT commits of the correct cycles.
    pub commits: u64,
    /// Specs served correctly at least once.
    pub served: Vec<bool>,
    /// Client-side service measurements.
    pub service: ServiceTally,
}

impl LoopResult {
    /// Correct cycles per second.
    pub fn campaigns_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Drives `clients` closed-loop client threads against `addr`. Spec `i` is
/// `specs_json[i % len]`, handed out in order from a shared counter; the
/// loop runs for `seconds` and at least until `min_cycles` were started.
/// `counting` routes every client through a counting transport.
pub fn closed_loop(
    addr: SocketAddr,
    specs_json: &[String],
    references: &[Reference],
    clients: usize,
    seconds: f64,
    min_cycles: usize,
    counting: bool,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let failed = AtomicU64::new(0);
    let start = Instant::now();
    let per_client: Vec<LoopResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, failed) = (&next, &failed);
                scope.spawn(move || {
                    let counts = Arc::new(WireCounts::default());
                    let mut client = Client::new(addr);
                    if counting {
                        let transport = CountingTransport {
                            inner: TcpTransport::default(),
                            counts: Arc::clone(&counts),
                        };
                        client = client.with_transport(Arc::new(transport));
                    }
                    let mut out = LoopResult {
                        served: vec![false; specs_json.len()],
                        ..LoopResult::default()
                    };
                    while (start.elapsed().as_secs_f64() < seconds
                        || next.load(Ordering::SeqCst) < min_cycles)
                        && failed.load(Ordering::SeqCst) < MAX_FAILED_CYCLES
                    {
                        let index = next.fetch_add(1, Ordering::SeqCst) % specs_json.len();
                        let reference = &references[index];
                        out.attempted += 1;
                        match cycle(&client, &specs_json[index], reference, &mut out.service) {
                            Ok((latency, true)) => {
                                out.latencies_ms.push(ms(latency));
                                out.tests += reference.exact.tests;
                                out.commits += reference.exact.commits;
                                out.served[index] = true;
                            }
                            Ok((_, false)) | Err(_) => {
                                out.failed += 1;
                                out.service.errors += 1;
                                failed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                    out.service.connections = counts.connections.load(Ordering::Relaxed);
                    out.service.requests = counts.requests.load(Ordering::Relaxed);
                    out.service.bytes_in = counts.bytes_in.load(Ordering::Relaxed);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });

    let mut total = LoopResult {
        wall: start.elapsed(),
        served: vec![false; specs_json.len()],
        ..LoopResult::default()
    };
    for client in per_client {
        total.latencies_ms.extend(client.latencies_ms);
        total.attempted += client.attempted;
        total.failed += client.failed;
        total.tests += client.tests;
        total.commits += client.commits;
        for (served, client_served) in total.served.iter_mut().zip(client.served) {
            *served |= client_served;
        }
        total.service.absorb(client.service);
    }
    total
}

//! Keep-alive transport and backpressure end to end: sequential requests
//! reuse one connection, idle-timeout closes are transparently survived by
//! the client's reconnect-once, an over-capacity fleet answers 429 and the
//! coordinator backs off and retries without consuming attempts, and the
//! streaming merge's memory caps turn hostile streams into loud errors.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mabfuzz_service::{
    CampaignServer, Client, ClientError, Connection, Coordinator, DispatchError, Fault,
    FaultyTransport, RetryPolicy, TcpTransport, Transport, MAX_EVENT_LINE_BYTES,
};
use mabfuzz_suite::mabfuzz::report::campaign_json;
use mabfuzz_suite::mabfuzz::{BugSpec, Campaign, CampaignSpec, CampaignSummary};
use mabfuzz_suite::proc_sim::ProcessorKind;

fn tiny_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::builder()
        .arms(4)
        .max_tests(40)
        .max_steps_per_test(200)
        .sample_interval(5)
        .rng_seed(seed)
        .processor(ProcessorKind::Rocket, BugSpec::None)
        .build()
        .expect("valid spec")
}

/// The serial reference: `(summary, report)` of running `spec` in-process.
fn reference(spec: &CampaignSpec) -> (CampaignSummary, String) {
    let outcome = Campaign::from_spec(spec).expect("self-contained spec").execute();
    (CampaignSummary::from_outcome(&outcome), campaign_json(spec, &outcome))
}

#[test]
fn sequential_requests_share_one_connection() {
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve());

    let faulty = Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default())));
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let client = Client::new(addr).with_transport(transport);

    // Seven requests spanning every response shape the protocol has — a
    // fixed-length JSON body, a chunked NDJSON stream, and an error-free
    // delete — all over the same pooled connection.
    client.healthz().expect("healthz");
    let id = client.submit(&tiny_spec(11).to_json()).expect("submit");
    let events = client.events(id).expect("the stream drains to terminal");
    assert!(events.ends_with('\n'), "complete NDJSON history");
    let status = client.status(id).expect("status");
    assert!(status.is_terminal(), "the drained stream implies a terminal campaign");
    client.report(id).expect("report");
    client.delete(id).expect("delete");
    assert!(client.list().expect("list").is_empty());

    assert_eq!(
        (faulty.connections_made(), faulty.requests_made()),
        (1, 7),
        "seven sequential requests must share one keep-alive connection"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

/// A transport that records how many `write` calls the client makes for
/// each request: the probe for "one write per request".
struct CountingTransport {
    writes_per_request: Arc<Mutex<Vec<usize>>>,
}

struct CountingConnection {
    inner: Box<dyn Connection>,
    writes_per_request: Arc<Mutex<Vec<usize>>>,
}

impl Transport for CountingTransport {
    fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>> {
        Ok(Box::new(CountingConnection {
            inner: TcpTransport::default().connect(addr)?,
            writes_per_request: Arc::clone(&self.writes_per_request),
        }))
    }
}

impl Connection for CountingConnection {
    fn begin_request(&mut self) {
        self.writes_per_request.lock().unwrap().push(0);
    }
}

impl Read for CountingConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for CountingConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        *self.writes_per_request.lock().unwrap().last_mut().expect("a request has begun") += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn every_request_leaves_the_client_in_one_write() {
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_auth_token(Some("tok".to_owned()));
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve());

    let writes_per_request = Arc::new(Mutex::new(Vec::new()));
    let transport =
        Arc::new(CountingTransport { writes_per_request: Arc::clone(&writes_per_request) });
    let client = Client::new(addr).with_transport(transport).with_auth_token("tok");

    // Bodiless requests and a spec-carrying submit, with the auth header.
    client.healthz().expect("healthz");
    let id = client.submit(&tiny_spec(13).to_json()).expect("submit");
    client.events(id).expect("events");
    client.status(id).expect("status");
    client.report(id).expect("report");
    client.delete(id).expect("delete");
    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");

    assert_eq!(
        *writes_per_request.lock().unwrap(),
        vec![1; 7],
        "each request's head and body must reach the socket in a single write"
    );
}

/// A stand-in server: its `n`-th connection answers one request with a
/// chunked `abc` body whose trailer section is `endings[n].0`, then either
/// closes (`endings[n].1`) or waits for the client to hang up.
fn chunked_stub(endings: Vec<(&'static [u8], bool)>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for (ending, close) in endings {
            let Ok((mut stream, _)) = listener.accept() else { return };
            thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) && line != "\r\n" {
                    line.clear();
                }
                let mut response =
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n"
                        .to_vec();
                response.extend_from_slice(ending);
                let _ = stream.write_all(&response);
                if !close {
                    let _ = io::copy(&mut reader, &mut io::sink());
                }
            });
        }
    });
    addr
}

#[test]
fn a_stream_with_a_broken_trailer_fails_and_its_socket_is_not_reused() {
    let addr = chunked_stub(vec![
        (b"", true),
        (b"no colon here\r\n\r\n", false),
        (b"\r\n", false),
    ]);
    let faulty = Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default())));
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let client = Client::new(addr).with_transport(transport);

    for what in ["a stream cut right after `0\\r\\n`", "a malformed trailer"] {
        match client.events(1) {
            Err(ClientError::Io(error)) => {
                assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{what}: {error}");
            }
            other => panic!("{what} must fail the stream, got {other:?}"),
        }
    }
    assert_eq!(client.events(1).expect("a whole stream"), "abc");
    assert_eq!(
        (faulty.connections_made(), faulty.requests_made()),
        (3, 3),
        "a socket whose stream broke must not go back to the pool"
    );
}

#[test]
fn an_idle_timeout_close_is_survived_by_reconnecting_once() {
    // The daemon cuts idle sockets at 150 ms; a client that pauses longer
    // holds a stale pooled connection and must reconnect transparently.
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_io_timeout(Some(Duration::from_millis(150)));
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve());

    let faulty = Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default())));
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let client = Client::new(addr).with_transport(transport);

    client.healthz().expect("first request opens the connection");
    assert_eq!(faulty.connections_made(), 1);

    thread::sleep(Duration::from_millis(600));
    client.healthz().expect("a stale pooled connection is replaced, not surfaced");
    assert_eq!(
        faulty.connections_made(),
        2,
        "exactly one reconnect after the server closed the idle socket"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn a_mid_request_disconnect_at_every_boundary_is_recovered() {
    // Request 0 is the submit, request 1 the event stream. Schedule each
    // fault kind at each of those boundaries; every one must be absorbed by
    // a retry or reassignment with byte-identical artefacts.
    let spec = tiny_spec(12);
    let expected = reference(&spec);
    let cases: Vec<(usize, Fault)> = [
        Fault::RefuseConnect,
        Fault::DropAfter(0),
        Fault::DropAfter(300),
        Fault::StallAfter(120),
        Fault::GarbageAt(40),
        Fault::ShortWriteAt(10),
    ]
    .into_iter()
    .flat_map(|fault| [(0usize, fault), (1usize, fault)])
    .collect();

    for (request, fault) in cases {
        let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
        let client = Client::new(server.local_addr());
        let handle = thread::spawn(move || server.serve());

        let faulty = Arc::new(
            FaultyTransport::new(Arc::new(TcpTransport::default()))
                .schedule_request(request, fault),
        );
        let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
        let coordinator =
            Coordinator::new(vec![client.clone().with_transport(transport)]).with_retry_policy(
                RetryPolicy {
                    max_attempts: 4,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(4),
                    ..RetryPolicy::default()
                },
            );
        let outcomes = coordinator
            .run(std::slice::from_ref(&spec))
            .unwrap_or_else(|error| panic!("{fault:?} at request {request}: {error}"));
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].ran_locally, "{fault:?} at request {request} forced local fallback");
        assert_eq!(
            outcomes[0].report, expected.1,
            "{fault:?} at request {request}: report diverged from the local run"
        );
        assert_eq!(outcomes[0].summary, expected.0, "{fault:?} at request {request}");

        client.shutdown().expect("shutdown");
        handle.join().expect("thread").expect("clean shutdown");
    }
}

#[test]
fn an_over_capacity_worker_answers_429_and_the_coordinator_backs_off() {
    // One worker slot, one queue slot: a long-running blocker occupies the
    // worker and a tiny filler occupies the queue, so the next submission
    // must be refused with 429 until the blocker is cancelled.
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_max_queue(Some(1));
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());

    let blocker_spec = CampaignSpec::builder()
        .arms(4)
        .max_tests(2_000_000)
        .max_steps_per_test(200)
        .sample_interval(5)
        .rng_seed(13)
        .processor(ProcessorKind::Rocket, BugSpec::None)
        .build()
        .expect("valid spec");
    let blocker = client.submit(&blocker_spec.to_json()).expect("submit the blocker");
    let started = Instant::now();
    while client.status(blocker).expect("status").status != "running" {
        assert!(started.elapsed() < Duration::from_secs(10), "blocker never started");
        thread::sleep(Duration::from_millis(2));
    }
    let filler = client.submit(&tiny_spec(14).to_json()).expect("the queue takes one");

    // The hub census reflects the saturation, and a raw submit sees the 429
    // with its retryable error text.
    let health = client.health_snapshot().expect("healthz");
    assert_eq!((health.queued, health.running, health.capacity), (1, 1, Some(1)));
    match client.submit(&tiny_spec(15).to_json()) {
        Err(ClientError::Http { status: 429, message }) => {
            assert!(message.contains("capacity of 1"), "{message}");
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected 429, got {other:?}"),
    }

    // Free the fleet shortly after the coordinator starts backing off.
    let unblock = {
        let client = client.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(150));
            client.cancel(blocker).expect("cancel the blocker");
        })
    };

    let spec = tiny_spec(16);
    let expected = reference(&spec);
    let coordinator = Coordinator::new(vec![client.clone()]).with_retry_policy(RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(40),
        ..RetryPolicy::default()
    });
    let outcomes = coordinator
        .run(std::slice::from_ref(&spec))
        .expect("backpressure resolves once the blocker is cancelled");
    unblock.join().expect("unblock thread");

    assert!(coordinator.busy_backoffs() >= 1, "the 429 was absorbed as a backoff");
    assert_eq!(outcomes[0].attempts, 1, "backpressure retries never consume attempts");
    assert!(!outcomes[0].ran_locally, "429 is not a worker failure, so no local fallback");
    assert_eq!(outcomes[0].report, expected.1, "artefacts stay byte-identical through 429s");
    assert_eq!(outcomes[0].summary, expected.0);
    let log = coordinator.log();
    assert!(
        log.iter().any(|line| line.contains("queue capacity")),
        "the first backoff is logged once: {log:?}"
    );

    // Tidy up the blocker and filler so shutdown drains promptly.
    client.wait_terminal(filler, Duration::from_millis(5)).expect("filler finishes");
    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn the_event_stream_cap_fails_loudly_instead_of_buffering_without_bound() {
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());

    let spec = tiny_spec(17);
    // A 64-byte cap: even a perfectly well-formed stream overruns it, which
    // is exactly how a hostile endless-valid-JSON stream must surface — a
    // loud dispatch error, not unbounded memory.
    let capped = Coordinator::new(vec![client.clone()]).with_event_stream_cap(64);
    match capped.run(std::slice::from_ref(&spec)) {
        Err(DispatchError::EventOverflow { job: 0, detail, .. }) => {
            assert!(detail.contains("64 byte cap"), "{detail}");
        }
        other => panic!("expected EventOverflow, got {other:?}"),
    }

    // Under the default cap the same spec streams fine, and the fold's
    // high-water mark shows per-lane memory stayed line-sized, far under
    // the defensive ceiling.
    let coordinator = Coordinator::new(vec![client.clone()]);
    let outcomes = coordinator.run(std::slice::from_ref(&spec)).expect("dispatch");
    assert_eq!(outcomes.len(), 1);
    let peak = coordinator.peak_event_line_bytes();
    assert!(peak > 0, "the fold saw at least one buffered line");
    assert!(
        peak < MAX_EVENT_LINE_BYTES / 16,
        "event lines are small; the fold buffered {peak} bytes"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

//! End-to-end round trips through the campaign service: the in-tree proof
//! that `experiments serve` speaks the artefact formats byte for byte.
//!
//! * the checked-in `tests/golden/campaign_spec.json`, submitted over TCP,
//!   streams events byte-identical to `tests/golden/events_mabfuzz_smoke.jsonl`
//!   and serves a report byte-identical to
//!   `tests/golden/spec_campaign_smoke.json`;
//! * N specs submitted concurrently yield final reports and event feeds
//!   byte-identical to serially executed `Campaign::from_spec` runs;
//! * cancellation stops at a fold boundary, reports `cancelled`, and leaves
//!   a partial event stream that is a strict prefix of the full stream;
//! * invalid submissions fail loudly with the strict codec's `SpecError`
//!   text, unknown ids are 404s, and shutdown is clean.

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use mabfuzz_service::{CampaignServer, Client, ClientError};
use mabfuzz_suite::mabfuzz::report::campaign_json;
use mabfuzz_suite::mabfuzz::{Campaign, CampaignSpec, EventLog, SharedBuffer};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn read_golden(file: &str) -> String {
    let path = golden_dir().join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("missing golden {}: {error}", path.display()))
}

/// Spawns a daemon on an ephemeral port; returns its client and the join
/// handle of the serving thread (joined for a clean-shutdown assertion).
fn start_server(workers: usize) -> (Client, thread::JoinHandle<std::io::Result<()>>) {
    let server = CampaignServer::bind("127.0.0.1:0", workers).expect("bind an ephemeral port");
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());
    (client, handle)
}

/// Runs `spec` locally (no server) and returns its `(event stream, report)`
/// — the serial reference every remote execution must reproduce.
fn serial_reference(spec: &CampaignSpec) -> (String, String) {
    let buffer = SharedBuffer::new();
    let log = EventLog::new(buffer.clone());
    let health = log.health();
    let outcome = Campaign::from_spec(spec)
        .expect("self-contained spec")
        .with_observer(Box::new(log))
        .execute();
    assert!(!health.failed(), "in-memory writes cannot fail");
    (buffer.contents(), campaign_json(spec, &outcome))
}

#[test]
fn golden_spec_round_trip_over_tcp() {
    let spec_json = read_golden("campaign_spec.json");
    let (client, server) = start_server(2);

    let id = client.submit(&spec_json).expect("the golden spec is valid");
    // Tail the live stream while the campaign runs.
    let live = {
        let client = client.clone();
        thread::spawn(move || client.events(id))
    };
    let status = client.wait_terminal(id, Duration::from_millis(10)).expect("status");
    assert_eq!(status.status, "finished");
    assert_eq!(status.label, "MABFuzz: UCB");

    // Acceptance criterion: the bytes tailed over TCP are identical to the
    // golden EventLog JSONL for this spec.
    let streamed = live.join().expect("tail thread").expect("event stream");
    assert_eq!(
        streamed,
        read_golden("events_mabfuzz_smoke.jsonl"),
        "the streamed NDJSON diverged from tests/golden/events_mabfuzz_smoke.jsonl"
    );

    // A late subscriber replays the identical stream from the start.
    let replay = client.events(id).expect("replay");
    assert_eq!(replay, streamed, "late subscribers replay the full deterministic stream");

    // The served report is byte-identical to the CLI's golden document.
    let report = client.report(id).expect("report");
    assert_eq!(
        report,
        read_golden("spec_campaign_smoke.json").trim_end_matches('\n'),
        "the served report diverged from tests/golden/spec_campaign_smoke.json"
    );

    // Status listing sees the campaign.
    let listing = client.list().expect("list");
    assert_eq!(listing.len(), 1);
    assert_eq!((listing[0].id, listing[0].status.as_str()), (id, "finished"));

    // Terminal campaigns can be evicted; their history is then gone.
    client.delete(id).expect("terminal campaigns delete");
    assert!(client.list().expect("list").is_empty(), "the entry was evicted");
    let error = client.status(id).expect_err("deleted id is unknown");
    assert!(matches!(error, ClientError::Http { status: 404, .. }), "{error}");

    client.shutdown().expect("shutdown request");
    server.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn concurrent_submissions_match_serial_execution() {
    // Three distinct campaigns (different policies and seeds) on a 2-worker
    // pool, so execution genuinely overlaps.
    let specs: Vec<CampaignSpec> = [("ucb", 11u64), ("exp3", 12), ("egreedy", 13)]
        .iter()
        .map(|(policy, seed)| {
            CampaignSpec::builder()
                .policy_named(policy)
                .arms(4)
                .max_tests(150)
                .max_steps_per_test(200)
                .mutations_per_interesting_test(2)
                .sample_interval(5)
                .rng_seed(*seed)
                .processor(
                    mabfuzz_suite::proc_sim::ProcessorKind::Rocket,
                    mabfuzz_suite::mabfuzz::BugSpec::None,
                )
                .build()
                .expect("valid spec")
        })
        .collect();
    let references: Vec<(String, String)> = specs.iter().map(serial_reference).collect();

    let (client, server) = start_server(2);
    let (results_tx, results_rx) = mpsc::channel();
    for (index, spec) in specs.iter().enumerate() {
        let client = client.clone();
        let spec_json = spec.to_json();
        let results = results_tx.clone();
        thread::spawn(move || {
            let id = client.submit(&spec_json).expect("valid spec accepted");
            // Tail the live stream, then fetch the terminal report.
            let events = client.events(id).expect("event stream");
            let status = client.wait_terminal(id, Duration::from_millis(10)).expect("status");
            let report = client.report(id).expect("report");
            results.send((index, events, status.status, report)).expect("send result");
        });
    }
    drop(results_tx);

    let mut seen = 0;
    for (index, events, status, report) in results_rx {
        let (expected_events, expected_report) = &references[index];
        assert_eq!(status, "finished");
        assert_eq!(
            &events, expected_events,
            "campaign {index}: concurrent event feed diverged from the serial run"
        );
        assert_eq!(
            &report, expected_report,
            "campaign {index}: concurrent report diverged from the serial run"
        );
        seen += 1;
    }
    assert_eq!(seen, specs.len(), "every concurrent submission reported back");

    client.shutdown().expect("shutdown request");
    server.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn cancellation_stops_at_a_fold_boundary_with_a_prefix_stream() {
    // A budget big enough that cancellation always lands mid-campaign on
    // any machine (~1 s of simulation), small enough to run uncancelled as
    // the reference.
    let spec = CampaignSpec::builder()
        .arms(4)
        .max_tests(20_000)
        .max_steps_per_test(200)
        .mutations_per_interesting_test(2)
        .sample_interval(1_000)
        .rng_seed(21)
        .processor(
            mabfuzz_suite::proc_sim::ProcessorKind::Rocket,
            mabfuzz_suite::mabfuzz::BugSpec::None,
        )
        .build()
        .expect("valid spec");
    let (full_stream, _) = serial_reference(&spec);

    let (client, server) = start_server(1);
    let id = client.submit(&spec.to_json()).expect("submit");
    let tail = {
        let client = client.clone();
        thread::spawn(move || client.events(id))
    };
    // Wait until the campaign is demonstrably in flight (its stream has
    // produced events), then cancel.
    loop {
        let events_so_far = client.status(id).expect("status");
        if events_so_far.status == "running" {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    thread::sleep(Duration::from_millis(100));
    client.cancel(id).expect("cancel request");

    let status = client.wait_terminal(id, Duration::from_millis(10)).expect("status");
    assert_eq!(status.status, "cancelled", "the run stopped early");
    let partial = tail.join().expect("tail thread").expect("event stream");
    assert!(
        !partial.is_empty() && partial.len() < full_stream.len(),
        "cancellation cut the campaign mid-stream ({} of {} bytes)",
        partial.len(),
        full_stream.len()
    );
    assert!(
        full_stream.starts_with(&partial),
        "the partial stream is a strict prefix of the full golden stream"
    );
    assert!(partial.ends_with('\n'), "the cut lands on an event boundary");
    assert!(
        !partial.contains("\"campaign_finished\""),
        "an interrupted campaign withholds the finished event"
    );
    // The report covers the folded prefix and is served normally.
    let report = client.report(id).expect("cancelled campaigns still report");
    assert!(report.contains("\"tests_executed\":"), "{report}");
    // Cancelling a terminal campaign is a no-op, not an error.
    client.cancel(id).expect("terminal cancel is idempotent");
    // A running campaign cannot be deleted; a cancelled (terminal) one can.
    client.delete(id).expect("cancelled campaigns are terminal and delete");

    client.shutdown().expect("shutdown request");
    server.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn invalid_submissions_fail_loudly_with_spec_error_text() {
    let (client, server) = start_server(1);

    // Unknown field: the same strict-codec text the CLI prints.
    let error = client.submit("{\"polcy\":\"ucb\"}").expect_err("typo rejected");
    match &error {
        ClientError::Http { status, message } => {
            assert_eq!(*status, 400);
            assert!(message.contains("unknown spec field `polcy`"), "{message}");
        }
        other => panic!("expected an HTTP error, got {other}"),
    }

    // Unknown policy: the full valid-policy list, verbatim.
    let error = client.submit("{\"policy\":\"gradient\"}").expect_err("unknown policy");
    match &error {
        ClientError::Http { status, message } => {
            assert_eq!(*status, 400);
            assert!(message.contains("valid policies: TheHuzz"), "{message}");
        }
        other => panic!("expected an HTTP error, got {other}"),
    }

    // A spec without a processor section cannot run remotely.
    let error = client.submit("{\"policy\":\"ucb\"}").expect_err("no processor");
    match &error {
        ClientError::Http { status, message } => {
            assert_eq!(*status, 400);
            assert!(message.contains("processor"), "{message}");
        }
        other => panic!("expected an HTTP error, got {other}"),
    }

    // Malformed JSON bodies are 400s too.
    let error = client.submit("{\"policy\":").expect_err("truncated body");
    assert!(matches!(error, ClientError::Http { status: 400, .. }), "{error}");

    // Unknown ids: 404 on every per-campaign endpoint.
    for result in [
        client.status(42).map(|_| ()),
        client.report(42).map(|_| ()),
        client.events(42).map(|_| ()),
        client.cancel(42),
    ] {
        let error = result.expect_err("unknown id");
        assert!(
            matches!(error, ClientError::Http { status: 404, .. }),
            "expected 404, got {error}"
        );
    }

    client.shutdown().expect("shutdown request");
    server.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn baseline_campaigns_stream_their_golden_protocol_remotely() {
    // The baseline (TheHuzz) speaks the same wire protocol: its remote feed
    // must equal the serial EventLog stream for the same spec.
    let spec = CampaignSpec::builder()
        .baseline()
        .max_tests(60)
        .max_steps_per_test(200)
        .sample_interval(5)
        .rng_seed(9)
        .processor(
            mabfuzz_suite::proc_sim::ProcessorKind::Rocket,
            mabfuzz_suite::mabfuzz::BugSpec::None,
        )
        .build()
        .expect("valid spec");
    let (expected_events, expected_report) = serial_reference(&spec);

    let (client, server) = start_server(1);
    let id = client.submit(&spec.to_json()).expect("submit");
    client.wait_terminal(id, Duration::from_millis(10)).expect("status");
    let events = client.events(id).expect("events");
    assert_eq!(events, expected_events, "baseline feeds match the serial stream");
    assert!(
        !events.contains("\"arm_selected\""),
        "the baseline has no bandit rounds"
    );
    assert_eq!(client.report(id).expect("report"), expected_report);

    client.shutdown().expect("shutdown request");
    server.join().expect("server thread").expect("clean shutdown");
}

/// A registered policy whose `select` panics: a stand-in for a buggy
/// runtime-registered bandit.
struct PanickingSelect {
    kind: mabfuzz_suite::mab::BanditKind,
    arms: usize,
}

impl mabfuzz_suite::mab::Bandit for PanickingSelect {
    fn kind(&self) -> mabfuzz_suite::mab::BanditKind {
        self.kind
    }
    fn arms(&self) -> usize {
        self.arms
    }
    fn select(&mut self, _rng: &mut dyn rand::RngCore) -> usize {
        panic!("select exploded");
    }
    fn update(&mut self, _arm: usize, _reward: f64) {}
    fn reset_arm(&mut self, _arm: usize) {}
    fn value(&self, _arm: usize) -> f64 {
        0.0
    }
    fn pulls(&self, _arm: usize) -> u64 {
        0
    }
}

/// Polls until the campaign is terminal, failing (instead of hanging) when
/// it never gets there.
fn wait_terminal_within(client: &Client, id: u64, limit: Duration) -> String {
    let deadline = std::time::Instant::now() + limit;
    loop {
        let status = client.status(id).expect("status");
        if status.is_terminal() {
            return status.status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "campaign {id} is still `{}` after {limit:?}",
            status.status
        );
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_panicking_campaign_fails_alone_and_the_worker_survives() {
    mabfuzz_suite::mab::register_policy(
        "service-test-panicking-select",
        |params: &mabfuzz_suite::mab::PolicyParams| {
            Box::new(PanickingSelect { kind: params.kind, arms: params.arms })
        },
    )
    .expect("fresh name");
    let spec = |policy: &str| {
        CampaignSpec::builder()
            .policy_named(policy)
            .arms(4)
            .max_tests(20)
            .max_steps_per_test(200)
            .rng_seed(3)
            .processor(
                mabfuzz_suite::proc_sim::ProcessorKind::Rocket,
                mabfuzz_suite::mabfuzz::BugSpec::None,
            )
            .build()
            .expect("valid spec")
    };

    // One worker: the valid campaign below can only finish if the worker
    // that ran the panicking one is still alive.
    let (client, server) = start_server(1);
    let id = client.submit(&spec("service-test-panicking-select").to_json()).expect("submit");
    let (stream_tx, stream_rx) = mpsc::channel();
    {
        let client = client.clone();
        thread::spawn(move || stream_tx.send(client.events(id)));
    }
    let limit = Duration::from_secs(30);
    assert_eq!(wait_terminal_within(&client, id, limit), "failed");
    let report = client.report(id).expect("failed campaigns report their error");
    assert!(report.contains("campaign panicked: select exploded"), "{report}");
    let streamed = stream_rx
        .recv_timeout(limit)
        .expect("the event stream of a panicked campaign terminates");
    streamed.expect("the stream ends cleanly");

    let valid = client.submit(&spec("ucb").to_json()).expect("submit");
    assert_eq!(wait_terminal_within(&client, valid, limit), "finished");

    client.shutdown().expect("shutdown request");
    server.join().expect("server thread").expect("clean shutdown");
}

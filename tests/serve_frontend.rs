//! Front-end behaviour over real sockets that the chaos, framing and
//! single-flight suites do not pin: the connection limit and its recovery,
//! the job gate's bound on running and waiting jobs, in-order answers to
//! pipelined lines, idle keep-alive closing, the write-stall disconnect,
//! and a bounded shutdown with an idle client still connected. Timing
//! bounds are loose on purpose: they tell a missing mechanism apart from a
//! slow host, nothing finer.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zeppelin::core::plan_io::{parse_json, plan_from_json, Json};
use zeppelin::serve::protocol::{response_error_code, ErrorCode, Request};
use zeppelin::serve::{send_request, PlannerChaos, Server, ServerConfig, ServerReport};

/// Upper bound on any single wait in these tests.
const PATIENCE: Duration = Duration::from_secs(10);

/// Serves `cfg` on an ephemeral port with two jobs running at once.
fn start(cfg: ServerConfig) -> (SocketAddr, JoinHandle<ServerReport>) {
    serve(ServerConfig { workers: 2, ..cfg })
}

/// Serves `cfg` as given, on an ephemeral port.
fn serve(cfg: ServerConfig) -> (SocketAddr, JoinHandle<ServerReport>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..cfg
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve until shutdown"));
    (addr, handle)
}

/// Polls `done` until it holds, failing the test after [`PATIENCE`].
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<ServerReport>) -> ServerReport {
    send_request(addr, &Request::Shutdown).expect("shutdown ack");
    handle.join().expect("server thread exits")
}

/// A connected client with a line reader and a bounded read timeout.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(PATIENCE)).expect("read timeout");
        Client {
            writer: raw.try_clone().expect("clone for writing"),
            reader: BufReader::new(raw),
        }
    }

    fn send(&mut self, lines: &[String]) {
        let mut bytes = String::new();
        for line in lines {
            bytes.push_str(line);
            bytes.push('\n');
        }
        self.writer
            .write_all(bytes.as_bytes())
            .expect("request lines send");
    }

    /// The next reply line, or `None` on EOF or a reset.
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim().to_string()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("no reply within {PATIENCE:?}")
            }
            Err(_) => None,
        }
    }

    fn round_trip(&mut self, request: &Request) -> Option<String> {
        self.send(&[request.to_line()]);
        self.line()
    }
}

fn is_ok(line: &str) -> bool {
    parse_json(line).is_ok_and(|v| v.get("ok") == Some(&Json::Bool(true)))
}

/// The `queue_depth` gauge of a `stats` reply: jobs waiting to run.
fn queue_depth(stats: &str) -> Option<u64> {
    parse_json(stats)
        .ok()?
        .get("stats")?
        .get("queue_depth")?
        .as_u64()
}

/// Tokens covered by the plan embedded in a `plan` reply.
fn planned_tokens(line: &str) -> u64 {
    let v = parse_json(line).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
    let plan = plan_from_json(&v.get("plan").expect("plan payload").to_string())
        .expect("embedded plan parses");
    plan.placements.iter().map(|p| p.len).sum()
}

#[test]
fn connections_past_the_limit_are_refused_typed_until_a_slot_frees() {
    let (addr, handle) = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    // Both slots are taken once each connection has been answered.
    let mut first = Client::connect(addr);
    let mut second = Client::connect(addr);
    assert!(is_ok(
        &first.round_trip(&Request::Stats).expect("first served")
    ));
    assert!(is_ok(
        &second.round_trip(&Request::Stats).expect("second served")
    ));

    let mut third = Client::connect(addr);
    let refusal = third.line().expect("a refusal line, not a silent close");
    assert_eq!(
        response_error_code(&refusal),
        Some(ErrorCode::Overloaded),
        "{refusal}"
    );
    assert_eq!(third.line(), None, "the refused connection is closed");

    // Closing one connection frees its slot for a newcomer.
    drop(first);
    let deadline = Instant::now() + PATIENCE;
    loop {
        let mut next = Client::connect(addr);
        let reply = next.round_trip(&Request::Stats);
        if reply.as_deref().is_some_and(is_ok) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the freed slot was never reused: {reply:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(is_ok(
        &second
            .round_trip(&Request::Stats)
            .expect("second still served")
    ));
    drop(second);
    // The dropped clients' threads may still hold both slots, so the
    // shutdown waits for one as the reuse loop does: a refusal or a reset
    // is retried.
    let deadline = Instant::now() + PATIENCE;
    let ack = loop {
        match send_request(addr, &Request::Shutdown) {
            Ok(reply) if response_error_code(&reply) != Some(ErrorCode::Overloaded) => break reply,
            refused => assert!(
                Instant::now() < deadline,
                "the shutdown never found a free slot: {refused:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(is_ok(&ack), "{ack}");
    let report = handle.join().expect("server thread exits");
    assert!(report.metrics.rejected >= 1);
}

#[test]
fn a_stalled_job_holds_the_only_slot_one_request_waits_and_the_next_is_refused() {
    let chaos = Arc::new(PlannerChaos::new());
    let (addr, handle) = serve(ServerConfig {
        workers: 1,
        max_queue: 1,
        chaos: Some(Arc::clone(&chaos)),
        ..ServerConfig::default()
    });
    // Long enough for the waiting and refused requests below to arrive
    // while the stalled planner run still holds the only slot.
    chaos.push_stall(3_000);
    let mut stalled = Client::connect(addr);
    stalled.send(&[Request::plan(vec![9000, 500]).to_line()]);
    wait_for("the stalled planner run", || chaos.pending() == 0);

    let mut waiting = Client::connect(addr);
    waiting.send(&[Request::plan(vec![4000, 2500, 300]).to_line()]);
    let mut observer = Client::connect(addr);
    wait_for("one job waiting", || {
        queue_depth(&observer.round_trip(&Request::Stats).expect("stats reply")) == Some(1)
    });

    let mut refused = Client::connect(addr);
    let refusal = refused
        .round_trip(&Request::plan(vec![7000]))
        .expect("a refusal line");
    assert_eq!(
        response_error_code(&refusal),
        Some(ErrorCode::Overloaded),
        "{refusal}"
    );

    // The stall ends: the holder is answered, then the waiter.
    let first = stalled.line().expect("stalled plan reply");
    assert_eq!(planned_tokens(&first), 9500, "{first}");
    let second = waiting.line().expect("waiting plan reply");
    assert_eq!(planned_tokens(&second), 6800, "{second}");
    // The refusal kept its connection open, and it is served now.
    let retried = refused
        .round_trip(&Request::plan(vec![7000]))
        .expect("retried plan reply");
    assert_eq!(planned_tokens(&retried), 7000, "{retried}");
    drop((stalled, waiting, observer, refused));
    let report = shutdown(addr, handle);
    assert_eq!(report.metrics.rejected, 1);
    assert_eq!(report.metrics.plan_requests, 3);
}

#[test]
fn a_contained_planner_panic_gives_its_slot_back() {
    let chaos = Arc::new(PlannerChaos::new());
    let (addr, handle) = serve(ServerConfig {
        workers: 1,
        chaos: Some(Arc::clone(&chaos)),
        ..ServerConfig::default()
    });
    chaos.push_panic();
    let mut first = Client::connect(addr);
    let reply = first
        .round_trip(&Request::plan(vec![9000, 500]))
        .expect("a typed panic reply");
    assert_eq!(
        response_error_code(&reply),
        Some(ErrorCode::WorkerPanicked),
        "{reply}"
    );
    // With one slot, a leaked one would leave this request waiting forever.
    let mut next = Client::connect(addr);
    let plan = next
        .round_trip(&Request::plan(vec![9000, 500]))
        .expect("served after the panic");
    assert_eq!(planned_tokens(&plan), 9500, "{plan}");
    drop((first, next));
    let report = shutdown(addr, handle);
    assert_eq!(report.metrics.worker_panics, 1);
    assert_eq!(report.metrics.worker_respawns, 0);
}

#[test]
fn pipelined_lines_are_answered_in_request_order() {
    let (addr, handle) = start(ServerConfig::default());
    let batches: [Vec<u64>; 3] = [vec![9000, 500], vec![4000, 2500, 300], vec![7000]];
    let stats = Request::Stats.to_line();
    let mut lines = Vec::new();
    for seqs in &batches {
        lines.push(Request::plan(seqs.clone()).to_line());
        lines.push(stats.clone());
    }
    let mut client = Client::connect(addr);
    // Every line in one write: the server sees them all buffered at once.
    client.send(&lines);
    for seqs in &batches {
        let plan = client.line().expect("plan reply");
        assert_eq!(planned_tokens(&plan), seqs.iter().sum::<u64>(), "{plan}");
        let stats = client.line().expect("stats reply");
        let v = parse_json(&stats).expect("reply is JSON");
        assert!(v.get("stats").is_some(), "expected a stats reply: {stats}");
    }
    drop(client);
    let report = shutdown(addr, handle);
    assert_eq!(report.metrics.plan_requests, 3);
}

#[test]
fn idle_keep_alive_connections_are_closed_after_the_idle_timeout() {
    let (addr, handle) = start(ServerConfig {
        idle_timeout_ms: 400,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    assert!(is_ok(&client.round_trip(&Request::Stats).expect("served")));
    let quiet = Instant::now();
    assert_eq!(client.line(), None, "the idle connection reads EOF");
    let waited = quiet.elapsed();
    assert!(
        waited >= Duration::from_millis(200),
        "closed after {waited:?}, well before the idle timeout"
    );
    shutdown(addr, handle);
}

#[test]
fn a_client_that_stops_reading_is_disconnected_while_others_are_served() {
    let (addr, handle) = start(ServerConfig {
        write_timeout_ms: 300,
        ..ServerConfig::default()
    });
    // Far more reply bytes than the loopback socket buffers hold.
    const REQUESTS: usize = 50_000;
    let stats = Request::Stats.to_line();
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_write_timeout(Some(Duration::from_secs(3)))
        .expect("write timeout");
    let batch = format!("{stats}\n").repeat(1000);
    for _ in 0..REQUESTS / 1000 {
        if stalled.write_all(batch.as_bytes()).is_err() {
            break;
        }
    }

    // The stalled client reads nothing for several write budgets; another
    // connection is served meanwhile.
    let mut other = Client::connect(addr);
    let wait_until = Instant::now() + Duration::from_millis(1500);
    while Instant::now() < wait_until {
        let plan = other
            .round_trip(&Request::plan(vec![6000, 1200]))
            .expect("plan reply");
        assert_eq!(planned_tokens(&plan), 7200);
        assert!(is_ok(
            &other.round_trip(&Request::Stats).expect("stats reply")
        ));
        std::thread::sleep(Duration::from_millis(100));
    }

    // Reading now must hit the server's close: EOF or a reset, not a
    // connection that keeps answering and then idles.
    stalled
        .set_read_timeout(Some(PATIENCE))
        .expect("read timeout");
    let mut buf = vec![0u8; 1 << 16];
    let mut replies = 0usize;
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => replies += buf[..n].iter().filter(|&&b| b == b'\n').count(),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the stalled connection was never closed")
            }
            Err(_) => break,
        }
    }
    assert!(
        replies < REQUESTS,
        "every reply was delivered ({replies}); the stall never disconnected"
    );
    drop(other);
    shutdown(addr, handle);
}

#[test]
fn shutdown_returns_within_the_grace_with_an_idle_connection_open() {
    let grace = Duration::from_millis(300);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        grace_ms: grace.as_millis() as u64,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let report = server.run().expect("serve until shutdown");
        let _ = done.send(Instant::now());
        report
    });

    let mut idle = Client::connect(addr);
    assert!(is_ok(&idle.round_trip(&Request::Stats).expect("served")));
    let asked = Instant::now();
    send_request(addr, &Request::Shutdown).expect("shutdown ack");
    let returned = finished
        .recv_timeout(grace + Duration::from_secs(1))
        .expect("Server::run returned within the grace plus one second");
    assert!(returned.duration_since(asked) <= grace + Duration::from_secs(1));
    handle.join().expect("server thread exits");
    assert_eq!(idle.line(), None, "the idle connection was closed");
}

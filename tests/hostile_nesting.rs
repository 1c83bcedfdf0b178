//! Regression tests for hostile JSON nesting. The shared parser recurses
//! once per array or object level; unbounded, a line of a million `[`
//! overflowed the stack and aborted the whole process. Every entry point
//! that reads untrusted JSON must now answer such input with a typed
//! error, and a server that received it must keep serving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use zeppelin::cluster::trace::trace_from_json;
use zeppelin::cluster::TraceIoError;
use zeppelin::core::plan_io::{parse_json, plan_from_json, Json, PlanIoError, MAX_JSON_DEPTH};
use zeppelin::serve::protocol::{parse_request, Request};
use zeppelin::serve::{send_request, Server, ServerConfig};

/// `depth` nested arrays around a zero: `[[...[0]...]]`.
fn arrays(depth: usize) -> String {
    format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
}

/// `depth` nested objects: `{"a":{"a":...{}...}}`.
fn objects(depth: usize) -> String {
    let mut s = "{\"a\":".repeat(depth - 1);
    s.push_str("{}");
    s.push_str(&"}".repeat(depth - 1));
    s
}

#[test]
fn the_parser_accepts_the_limit_and_refuses_one_more_level() {
    for doc in [arrays(MAX_JSON_DEPTH), objects(MAX_JSON_DEPTH)] {
        assert!(parse_json(&doc).is_ok());
    }
    // The error points at the bracket that opened level 129: one byte per
    // array level, five (`{"a":`) per object level.
    for (doc, level_bytes) in [
        (arrays(MAX_JSON_DEPTH + 1), 1),
        (objects(MAX_JSON_DEPTH + 1), 5),
    ] {
        assert_eq!(
            parse_json(&doc),
            Err(PlanIoError::TooDeep {
                offset: MAX_JSON_DEPTH * level_bytes
            })
        );
    }
    // Depth counts open levels, not brackets seen: many siblings at the
    // limit parse.
    let siblings = format!("[{}]", vec![arrays(MAX_JSON_DEPTH - 1); 50].join(","));
    assert!(parse_json(&siblings).is_ok());
}

#[test]
fn a_million_open_brackets_is_a_typed_error_everywhere() {
    let hostile = "[".repeat(1_000_000);
    assert!(matches!(
        parse_json(&hostile),
        Err(PlanIoError::TooDeep { .. })
    ));
    assert!(matches!(
        plan_from_json(&hostile),
        Err(PlanIoError::TooDeep { .. })
    ));
    match trace_from_json(&hostile) {
        Err(TraceIoError::Parse { offset, message }) => {
            assert_eq!(offset, MAX_JSON_DEPTH);
            assert!(message.contains("nesting deeper"), "{message}");
        }
        other => panic!("expected a typed parse error, got {other:?}"),
    }
    let err = parse_request(&hostile).expect_err("a request must parse as an object");
    assert!(err.contains("nests deeper"), "{err}");
}

#[test]
fn a_megabyte_nesting_line_gets_bad_request_and_the_server_keeps_serving() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve until shutdown"));

    let raw = TcpStream::connect(addr).expect("connect");
    let mut writer = raw.try_clone().expect("clone for writing");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();

    // One MiB with the newline: the largest line the server reads.
    let mut line = "[".repeat((1 << 20) - 1);
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .expect("hostile line sends");
    reader.read_line(&mut reply).expect("server answers");
    let v = parse_json(reply.trim()).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("bad_request"));

    // An audit request embedding hostile nesting in its plan string: the
    // envelope parses, the plan does not.
    let audit = Request::Audit {
        plan: "{\"a\":".repeat(100_000),
    };
    writeln!(writer, "{}", audit.to_line()).unwrap();
    reply.clear();
    reader.read_line(&mut reply).expect("server answers");
    let v = parse_json(reply.trim()).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert!(reply.contains("nests deeper"), "{reply}");

    // The same connection, and a new one, still get plans.
    writeln!(writer, "{}", Request::plan(vec![9000, 500, 2500]).to_line()).unwrap();
    reply.clear();
    reader.read_line(&mut reply).expect("server answers");
    let v = parse_json(reply.trim()).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{reply}");
    let line = send_request(addr, &Request::plan(vec![700, 300])).expect("plan response");
    let v = parse_json(&line).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");

    drop(reader);
    drop(writer);
    send_request(addr, &Request::Shutdown).expect("shutdown ack");
    let report = handle.join().expect("server thread exits");
    assert_eq!(report.metrics.plan_requests, 2);
}

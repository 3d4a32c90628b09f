//! Protocol hygiene over a real socket: every malformed request class
//! gets its structured error, and the connection survives all of them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use serde_json::Value;

use cache8t_exec::{ExecOptions, TraceStore};
use cache8t_obs::OpLog;
use cache8t_serve::{codes, Client, ClientError, ServeConfig, Server, MAX_REQUEST_LINE};

fn start_server() -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        checkpoint_dir: None,
        exec: ExecOptions {
            workers: 1,
            retries: 0,
        },
        store: Arc::new(TraceStore::in_memory()),
        oplog: Arc::new(OpLog::disabled()),
        stream_chunk_ops: None,
    })
    .expect("bind");
    let addr = server.local_addr().to_owned();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn each_error_class_answers_with_its_code_and_keeps_the_connection() {
    let (addr, server) = start_server();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // One line of 100 000 `[`: the parser must refuse the nesting, not
    // overflow its stack.
    let deep = "[".repeat(100_000);
    let cases: &[(&str, &str)] = &[
        ("{oops", codes::MALFORMED_JSON),
        (&deep, codes::MALFORMED_JSON),
        ("[1,2,3]", codes::NOT_AN_OBJECT),
        (r#"{"verb":"status"}"#, codes::BAD_VERSION),
        (r#"{"v":"99","verb":"status"}"#, codes::BAD_VERSION),
        (r#"{"v":"1"}"#, codes::MISSING_VERB),
        (r#"{"v":"1","verb":"explode"}"#, codes::UNKNOWN_VERB),
        (r#"{"v":"1","verb":"results"}"#, codes::MISSING_FIELD),
        (r#"{"v":"1","verb":"results","job":3}"#, codes::BAD_FIELD),
        (
            r#"{"v":"1","verb":"results","job":"job-404"}"#,
            codes::UNKNOWN_JOB,
        ),
        (
            r#"{"v":"1","verb":"submit","plan":{"profiles":["nope"],"geometries":["baseline"],"ops":10,"seed":0}}"#,
            codes::UNKNOWN_PROFILE,
        ),
        (
            r#"{"v":"1","verb":"submit","plan":{"profiles":["gcc"],"geometries":["mega"],"ops":10,"seed":0}}"#,
            codes::UNKNOWN_GEOMETRY,
        ),
    ];
    // All on ONE connection: an error must never cost the session.
    for (line, want) in cases {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        stream.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        let value: Value = serde_json::from_str(response.trim()).expect("response parses");
        assert_eq!(
            value.get("ok"),
            Some(&Value::Bool(false)),
            "request {line} must fail"
        );
        let code = value
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str);
        assert_eq!(code, Some(*want), "wrong code for request {line}");
        assert!(
            value
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .is_some_and(|m| !m.is_empty()),
            "error for {line} must carry a message"
        );
    }

    // The same connection still serves valid requests afterwards.
    stream
        .write_all(b"{\"v\":\"1\",\"verb\":\"status\"}\n")
        .expect("write");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    let value: Value = serde_json::from_str(response.trim()).expect("response parses");
    assert_eq!(value.get("ok"), Some(&Value::Bool(true)));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn oversized_request_lines_answer_with_a_structured_error() {
    let (addr, server) = start_server();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A syntactically valid request padded past the line bound: the
    // guard must fire on size alone, before any parsing.
    let padding = "x".repeat(MAX_REQUEST_LINE);
    let line = format!("{{\"v\":\"1\",\"verb\":\"status\",\"pad\":\"{padding}\"}}\n");
    assert!(line.len() > MAX_REQUEST_LINE);
    stream.write_all(line.as_bytes()).expect("write");
    stream.flush().expect("flush");

    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    let value: Value = serde_json::from_str(response.trim()).expect("response parses");
    assert_eq!(value.get("ok"), Some(&Value::Bool(false)));
    let code = value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str);
    assert_eq!(code, Some(codes::OVERSIZED_REQUEST));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn not_finished_and_shutting_down_are_reported() {
    let (addr, server) = start_server();
    let mut client = Client::connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");

    client.shutdown().expect("shutdown accepted");
    // Submits after shutdown are refused with the dedicated code. The
    // accept loop may already be draining, so tolerate a dead socket.
    let mut probe = Client::connect(&addr);
    if let Ok(client) = probe.as_mut() {
        let spec = cache8t_serve::PlanSpec {
            profiles: vec!["gcc".into()],
            geometries: vec!["baseline".into()],
            ops: 100,
            seed: 0,
            series_cadence: None,
        };
        match client.submit(&spec) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::SHUTTING_DOWN),
            Err(ClientError::Io(_)) => {} // server already gone
            other => panic!("expected shutting-down, got {other:?}"),
        }
    }
    server.join().expect("join").expect("server run");
}

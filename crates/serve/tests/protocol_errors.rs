//! Protocol hygiene over a real socket: every malformed request class
//! gets its structured error, and the connection survives all of them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
            ..ExecOptions::default()
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

/// Reads one answer line from `reader` as a JSON object.
fn answer(reader: &mut impl BufRead) -> Value {
    let mut response = String::new();
    let n = reader.read_line(&mut response).expect("answer arrives");
    assert!(n > 0, "the server closed the connection");
    serde_json::from_str(response.trim()).expect("answer parses")
}

fn error_code(value: &Value) -> Option<&str> {
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
}

/// Sends `status` and expects it to succeed on the same connection.
fn status_still_answers(mut stream: &TcpStream, reader: &mut impl BufRead) {
    stream
        .write_all(b"{\"v\":\"1\",\"verb\":\"status\"}\n")
        .expect("write");
    let value = answer(reader);
    assert_eq!(value.get("ok"), Some(&Value::Bool(true)), "{value:?}");
}

#[test]
fn a_line_that_never_ends_is_answered_at_the_bound() {
    let (addr, server) = start_server();
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 64 KiB every 50 ms and no newline: the daemon's reads never pause
    // long enough to time out, so only the bound itself can end the line.
    let answered = Arc::new(AtomicBool::new(false));
    let sender = {
        let mut stream = stream.try_clone().expect("clone");
        let answered = Arc::clone(&answered);
        thread::spawn(move || {
            let chunk = vec![b'x'; 64 * 1024];
            let give_up = Instant::now() + Duration::from_secs(10);
            while !answered.load(Ordering::Acquire) && Instant::now() < give_up {
                if stream.write_all(&chunk).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let started = Instant::now();
    let value = answer(&mut reader);
    answered.store(true, Ordering::Release);
    sender.join().expect("sender");
    assert!(started.elapsed() < Duration::from_secs(2));
    assert_eq!(error_code(&value), Some(codes::OVERSIZED_REQUEST));

    // Once the line ends, the same connection serves requests again.
    (&stream).write_all(b"\n").expect("write");
    status_still_answers(&stream, &mut reader);

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn a_line_that_is_not_utf8_is_malformed_json() {
    let (addr, server) = start_server();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    (&stream)
        .write_all(b"{\"v\":\"1\",\"verb\":\"status\",\"x\":\"\xff\xfe\"}\n")
        .expect("write");
    let value = answer(&mut reader);
    assert_eq!(value.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(error_code(&value), Some(codes::MALFORMED_JSON));
    status_still_answers(&stream, &mut reader);

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

/// A seeded xorshift64 generator, so the fuzz lines are the same on
/// every run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One fuzz line (without its newline): random bytes, a request with a
/// byte sequence that is not UTF-8, deep brackets, a truncated valid
/// request, or a run of JSON tokens.
fn fuzz_line(rng: &mut XorShift) -> Vec<u8> {
    const REQUESTS: [&str; 4] = [
        r#"{"v":"1","verb":"status"}"#,
        r#"{"v":"1","verb":"health"}"#,
        r#"{"v":"1","verb":"results","job":"job-1"}"#,
        r#"{"v":"1","verb":"submit","plan":{"profiles":["gcc"],"geometries":["baseline"],"ops":10,"seed":0}}"#,
    ];
    const NOT_UTF8: [&[u8]; 6] = [
        b"\xff",
        b"\xfe\xff",
        b"\xc3",
        b"\xe2\x82",
        b"\xed\xa0\x80",
        b"\xc0\x80",
    ];
    const TOKENS: [&str; 16] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"v\"",
        "\"1\"",
        "\"verb\"",
        "\"job\"",
        "null",
        "true",
        "1e999",
        "-0",
        "\"\\u00\"",
        " ",
    ];
    let request = REQUESTS[rng.below(REQUESTS.len())].as_bytes();
    let mut line = match rng.below(5) {
        0 => (0..rng.below(4096)).map(|_| rng.next() as u8).collect(),
        1 => {
            let at = rng.below(request.len() + 1);
            let bad = NOT_UTF8[rng.below(NOT_UTF8.len())];
            [&request[..at], bad, &request[at..]].concat()
        }
        2 => {
            let open: &[u8] = if rng.below(2) == 0 { b"[" } else { b"{\"k\":" };
            open.repeat(1 + rng.below(600))
        }
        3 => request[..rng.below(request.len())].to_vec(),
        _ => (0..rng.below(512))
            .flat_map(|_| TOKENS[rng.below(TOKENS.len())].bytes())
            .collect(),
    };
    for byte in &mut line {
        if *byte == b'\n' {
            *byte = b' ';
        }
    }
    line
}

#[test]
fn fuzzed_request_lines_each_get_one_answer_on_one_connection() {
    let (addr, server) = start_server();
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut rng = XorShift(0x8_7a11_c0de);
    for i in 0..3_000 {
        let mut line = fuzz_line(&mut rng);
        // The daemon skips a line that is blank once decoded.
        let blank = std::str::from_utf8(&line).is_ok_and(|text| text.trim().is_empty());
        line.push(b'\n');
        (&stream).write_all(&line).expect("write");
        if blank {
            continue;
        }
        let value = answer(&mut reader);
        assert!(
            matches!(value.get("ok"), Some(Value::Bool(_))),
            "line {i}: answer without a boolean `ok`: {value:?}"
        );
    }
    (&stream)
        .write_all(b"{\"v\":\"1\",\"verb\":\"health\"}\n")
        .expect("write");
    let health = answer(&mut reader);
    assert_eq!(health.get("ok"), Some(&Value::Bool(true)), "{health:?}");
    assert_eq!(health.get("state"), Some(&Value::Str("ok".into())));

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

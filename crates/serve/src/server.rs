//! The daemon: socket listener, per-connection request loop, and the
//! `watch` event stream.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_exec::{ExecOptions, TraceStore};
use cache8t_obs::{timeline, OpLog};

use crate::protocol::{codes, ok_response, parse_request, ProtocolError, Request};
use crate::state::{JobState, ServerState};

/// Prefix selecting a unix-domain socket in `--listen` specs.
pub const UNIX_PREFIX: &str = "unix:";

/// Bound on one request line. Every legitimate request — including a
/// full-suite `submit` — is a few KB; a line this long is a confused
/// or hostile client. The daemon never holds more of a line than this:
/// a longer one is answered `oversized-request` once and the rest of it
/// is read and dropped.
pub const MAX_REQUEST_LINE: usize = 256 * 1024;

/// How long a session's read waits before it checks for shutdown, so a
/// client parked between requests does not pin the server.
const READ_POLL: Duration = Duration::from_millis(200);

/// Daemon configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// `host:port` for TCP, or `unix:/path/to.sock`.
    pub listen: String,
    /// Journal directory; `None` disables checkpoint/resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Pool configuration for every sweep.
    pub exec: ExecOptions,
    /// The trace store every job opens its traces from. It keeps no
    /// trace in memory between jobs; a disk-backed store is the cache
    /// across jobs and clients.
    pub store: Arc<TraceStore>,
    /// The operational log sink ([`OpLog::disabled`] for silence).
    pub oplog: Arc<OpLog>,
    /// Replay sweep traces as bounded-memory chunk streams of this many
    /// ops instead of materializing them (`None`: materialize). Results
    /// are byte-identical either way.
    pub stream_chunk_ops: Option<usize>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// A bound, not-yet-running server.
pub struct Server {
    state: Arc<ServerState>,
    listener: Listener,
    local: String,
}

impl Server {
    /// Binds the configured address. For TCP port 0 the resolved port
    /// is available via [`local_addr`](Server::local_addr).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, bad path, ...).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let state = Arc::new(ServerState::new(
            config.exec,
            config.store,
            config.checkpoint_dir,
            config.oplog,
            config.stream_chunk_ops,
        ));
        if let Some(path) = config.listen.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                let path = PathBuf::from(path);
                // A previous unclean shutdown leaves the socket file
                // behind; rebinding it is the expected restart path.
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
                let listener = UnixListener::bind(&path)?;
                listener.set_nonblocking(true)?;
                let local = format!("{UNIX_PREFIX}{}", path.display());
                return Ok(Server {
                    state,
                    listener: Listener::Unix(listener, path),
                    local,
                });
            }
            #[cfg(not(unix))]
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?.to_string();
        Ok(Server {
            state,
            listener: Listener::Tcp(listener),
            local,
        })
    }

    /// The bound address, in the same shape `--listen` takes.
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// The shared state (tests drive it directly).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop and the executor until a `shutdown`
    /// request arrives, then drains and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than `WouldBlock`.
    pub fn run(self) -> std::io::Result<()> {
        timeline::set_track_name("serve accept loop");
        let state = Arc::clone(&self.state);
        let executor = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                timeline::set_track_name("serve executor");
                state.run_executor();
            })
        };
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        type Session = Box<dyn FnOnce(&Arc<ServerState>) + Send>;
        loop {
            if state.is_shutting_down() {
                break;
            }
            let session: Option<Session> = match &self.listener {
                Listener::Tcp(listener) => match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        // Answers are small writes: send each at once
                        // instead of holding it for the client's delayed
                        // ACK of the one before.
                        let _unused = stream.set_nodelay(true);
                        let _unused = stream.set_read_timeout(Some(READ_POLL));
                        Some(Box::new(move |state: &Arc<ServerState>| {
                            handle_connection(state, &stream, &stream);
                        }))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                #[cfg(unix)]
                Listener::Unix(listener, _) => match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        let _unused = stream.set_read_timeout(Some(READ_POLL));
                        Some(Box::new(move |state: &Arc<ServerState>| {
                            handle_connection(state, &stream, &stream);
                        }))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match session {
                Some(session) => {
                    state.count("serve.connections");
                    state.oplog.info(
                        "accept",
                        None,
                        vec![(
                            "connections".to_owned(),
                            Value::U64(state.counter_value("serve.connections")),
                        )],
                    );
                    let state = Arc::clone(&state);
                    connections.push(thread::spawn(move || session(&state)));
                }
                None => thread::sleep(Duration::from_millis(20)),
            }
            connections.retain(|handle| !handle.is_finished());
        }
        for handle in connections {
            let _unused = handle.join();
        }
        let _unused = executor.join();
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _unused = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn write_line(out: &mut dyn Write, value: &Value) -> std::io::Result<()> {
    let mut line = serde_json::to_string(value).expect("response objects serialize");
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// One client session: read request lines, answer each, keep the
/// connection open across errors (protocol hygiene: a bad line gets a
/// structured error, never a dropped connection).
fn handle_connection(state: &Arc<ServerState>, input: impl Read, mut out: impl Write) {
    let mut reader = BufReader::new(input);
    let mut line = Vec::new();
    // Set after an oversized line is answered, until its newline.
    let mut discarding = false;
    loop {
        // Every read takes at most what is left of the bound, so a line
        // never holds more than `MAX_REQUEST_LINE` bytes. A read that
        // times out keeps the bytes it got in `line`, and the next one
        // goes on with the same line.
        let room = (MAX_REQUEST_LINE - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // peer hung up
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.is_shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let complete = line.ends_with(b"\n") || line.len() < MAX_REQUEST_LINE;
        if discarding {
            discarding = !complete;
            line.clear();
            continue;
        }
        let request = if complete {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => {
                    line.clear();
                    continue;
                }
                Ok(text) => parse_request(text),
                Err(_) => Err(ProtocolError::new(
                    codes::MALFORMED_JSON,
                    "request line is not UTF-8",
                )),
            }
        } else {
            state.oplog.warn(
                "oversized-request",
                None,
                vec![("bytes".to_owned(), Value::U64(line.len() as u64))],
            );
            discarding = true;
            Err(ProtocolError::new(
                codes::OVERSIZED_REQUEST,
                format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            ))
        };
        state.count("serve.requests");
        let started = Instant::now();
        let (verb, response) = match request {
            Ok(request) => (
                verb_name(&request),
                handle_request(state, request, &mut out),
            ),
            Err(error) => ("invalid", Err(error)),
        };
        state.observe_verb(
            verb,
            started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        let outcome = match response {
            Ok(Some(value)) => write_line(&mut out, &value),
            Ok(None) => Ok(()), // the handler streamed its own output
            Err(error) => {
                state.count("serve.errors");
                write_line(&mut out, &error.to_value())
            }
        };
        if outcome.is_err() {
            return;
        }
        line.clear();
    }
}

/// The wire name of a request, for per-verb metrics.
fn verb_name(request: &Request) -> &'static str {
    match request {
        Request::Submit(_) => "submit",
        Request::Status { .. } => "status",
        Request::Results { .. } => "results",
        Request::Watch { .. } => "watch",
        Request::Cancel { .. } => "cancel",
        Request::Health => "health",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Executes one request. `Ok(None)` means the handler already wrote
/// its response (the `watch` stream).
fn handle_request(
    state: &Arc<ServerState>,
    request: Request,
    out: &mut dyn Write,
) -> Result<Option<Value>, ProtocolError> {
    match request {
        Request::Submit(spec) => {
            if state.is_shutting_down() {
                return Err(ProtocolError::new(
                    codes::SHUTTING_DOWN,
                    "server is shutting down",
                ));
            }
            let plan = spec.resolve()?;
            let job = state.submit(plan, spec);
            Ok(Some(ok_response(vec![
                ("job".to_owned(), Value::Str(job.id.clone())),
                (
                    "fingerprint".to_owned(),
                    Value::Str(job.fingerprint.clone()),
                ),
            ])))
        }
        Request::Status { job: None } => {
            let jobs = state.jobs().iter().map(|j| j.summary()).collect();
            Ok(Some(ok_response(vec![
                ("jobs".to_owned(), Value::Array(jobs)),
                ("server".to_owned(), state.server_status()),
            ])))
        }
        Request::Status { job: Some(id) } => {
            let job = lookup(state, &id)?;
            Ok(Some(ok_response(vec![("job".to_owned(), job.summary())])))
        }
        Request::Results { job: id } => {
            let job = lookup(state, &id)?;
            match job.document() {
                Some(document) => Ok(Some(ok_response(vec![
                    ("job".to_owned(), Value::Str(job.id.clone())),
                    ("document".to_owned(), document),
                ]))),
                None => Err(ProtocolError::new(
                    codes::NOT_FINISHED,
                    format!("job `{id}` is {}, not completed", job.state_name()),
                )),
            }
        }
        Request::Watch { job: id, after } => {
            let job = lookup(state, &id)?;
            stream_watch(state, &job, after, out).map_err(|_| {
                // The watcher hung up; nothing left to answer.
                ProtocolError::new(codes::UNKNOWN_JOB, "watch stream closed")
            })?;
            Ok(None)
        }
        Request::Cancel { job: id } => {
            let job = lookup(state, &id)?;
            job.cancel.cancel();
            state.oplog.info(
                "cancel",
                Some(&job.id),
                vec![("state".to_owned(), Value::Str(job.state_name().to_owned()))],
            );
            Ok(Some(ok_response(vec![
                ("job".to_owned(), Value::Str(job.id.clone())),
                ("state".to_owned(), Value::Str(job.state_name().to_owned())),
            ])))
        }
        Request::Health => {
            let Value::Object(fields) = state.health_value() else {
                unreachable!("health_value returns an object");
            };
            Ok(Some(ok_response(fields)))
        }
        Request::Metrics => {
            let Value::Object(fields) = state.metrics_value() else {
                unreachable!("metrics_value returns an object");
            };
            Ok(Some(ok_response(fields)))
        }
        Request::Shutdown => {
            state.request_shutdown();
            Ok(Some(ok_response(vec![])))
        }
    }
}

fn lookup(state: &Arc<ServerState>, id: &str) -> Result<Arc<JobState>, ProtocolError> {
    state
        .job(id)
        .ok_or_else(|| ProtocolError::new(codes::UNKNOWN_JOB, format!("no job `{id}`")))
}

/// Streams a job's event rows until it goes terminal, then a final
/// `{"ok":true,"event":"done","state":...}` row. Every row is an
/// `ok:true` object so clients can share one line parser, and carries
/// its ring sequence number (`seq`) so a dropped watcher can resume
/// with `{"after": last_seen_seq}` instead of replaying the ring.
///
/// Server shutdown ends the stream too (with the same `done` row):
/// a watch on a job that will never run — queued behind a shutdown —
/// must not pin its connection thread forever.
fn stream_watch(
    state: &Arc<ServerState>,
    job: &Arc<JobState>,
    after: u64,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut out = BufWriter::new(out);
    let mut last_seq = after;
    loop {
        let (lines, seq, terminal) = job.events_after(last_seq);
        last_seq = seq;
        for line in lines {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
        if terminal || state.is_shutting_down() {
            write_line(
                &mut out,
                &ok_response(vec![
                    ("event".to_owned(), Value::Str("done".to_owned())),
                    ("job".to_owned(), Value::Str(job.id.clone())),
                    ("state".to_owned(), Value::Str(job.state_name().to_owned())),
                ]),
            )?;
            return Ok(());
        }
        job.wait_for_events(last_seq, Duration::from_millis(200));
    }
}

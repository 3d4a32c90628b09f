//! A thin blocking client for the serve protocol, shared by the
//! `cache8t client` subcommand and the end-to-end tests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_obs::metrics::prometheus_text;

use crate::protocol::{request_line, PlanSpec};
use crate::server::UNIX_PREFIX;

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn split(&self) -> std::io::Result<(Box<dyn BufRead>, Box<dyn Write>)> {
        Ok(match self {
            Stream::Tcp(s) => (
                Box::new(BufReader::new(s.try_clone()?)),
                Box::new(s.try_clone()?),
            ),
            #[cfg(unix)]
            Stream::Unix(s) => (
                Box::new(BufReader::new(s.try_clone()?)),
                Box::new(s.try_clone()?),
            ),
        })
    }
}

/// An error from a client call: transport trouble or a server-side
/// `{"ok": false}` answer.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with a structured error.
    Server {
        /// The machine-readable error code.
        code: String,
        /// The human-readable message.
        message: String,
    },
    /// The server's answer was not a protocol object.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Malformed(line) => write!(f, "unparseable server response: {line}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client.
pub struct Client {
    reader: Box<dyn BufRead>,
    writer: Box<dyn Write>,
}

impl Client {
    /// Connects to `addr` (`host:port` or `unix:/path`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                Stream::Unix(UnixStream::connect(path)?)
            }
            #[cfg(not(unix))]
            {
                let _unused = path;
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                )));
            }
        } else {
            Stream::Tcp(TcpStream::connect(addr)?)
        };
        let (reader, writer) = stream.split()?;
        Ok(Client { reader, writer })
    }

    /// Like [`connect`](Client::connect), retrying until the server
    /// accepts or `timeout` passes — the standard way to wait for a
    /// daemon that was just spawned.
    ///
    /// # Errors
    ///
    /// The last connection error once the deadline passes.
    pub fn connect_with_retry(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    fn read_response(&mut self) -> Result<Value, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let value: Value = serde_json::from_str(line.trim())
            .map_err(|_| ClientError::Malformed(line.trim().to_owned()))?;
        match value.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(value),
            Some(false) => {
                let error = value.get("error");
                let field = |name: &str| {
                    error
                        .and_then(|e| e.get(name))
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_owned()
                };
                Err(ClientError::Server {
                    code: field("code"),
                    message: field("message"),
                })
            }
            None => Err(ClientError::Malformed(line.trim().to_owned())),
        }
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Transport failures or an `{"ok": false}` answer.
    pub fn request(
        &mut self,
        verb: &str,
        fields: Vec<(String, Value)>,
    ) -> Result<Value, ClientError> {
        let mut line = request_line(verb, fields);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Submits a plan; returns the job id.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn submit(&mut self, spec: &PlanSpec) -> Result<String, ClientError> {
        let response = self.request("submit", vec![("plan".to_owned(), spec.to_value())])?;
        response
            .get("job")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Malformed("submit response without `job`".to_owned()))
    }

    /// Job detail (`Some(id)`) or the whole-server summary (`None`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn status(&mut self, job: Option<&str>) -> Result<Value, ClientError> {
        let fields = match job {
            Some(id) => vec![("job".to_owned(), Value::Str(id.to_owned()))],
            None => Vec::new(),
        };
        self.request("status", fields)
    }

    /// Fetches a completed job's sweep document.
    ///
    /// # Errors
    ///
    /// `not-finished` server errors until the job completes.
    pub fn results(&mut self, job: &str) -> Result<Value, ClientError> {
        let response = self.request(
            "results",
            vec![("job".to_owned(), Value::Str(job.to_owned()))],
        )?;
        response
            .get("document")
            .cloned()
            .ok_or_else(|| ClientError::Malformed("results response without `document`".to_owned()))
    }

    /// Follows `job`'s `watch` stream to its `done` row, then fetches
    /// its document.
    ///
    /// # Errors
    ///
    /// The daemon's `not-finished` error, which names the state, for a
    /// job that failed or was cancelled; transport failures.
    pub fn wait_for_results(&mut self, job: &str) -> Result<Value, ClientError> {
        self.watch(job, |_| {})?;
        self.results(job)
    }

    /// Fires a job's cancel token.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn cancel(&mut self, job: &str) -> Result<Value, ClientError> {
        self.request(
            "cancel",
            vec![("job".to_owned(), Value::Str(job.to_owned()))],
        )
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request("shutdown", Vec::new()).map(|_| ())
    }

    /// Fetches the daemon's liveness summary (`health` verb).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn health(&mut self) -> Result<Value, ClientError> {
        self.request("health", Vec::new())
    }

    /// Fetches the daemon's full metric snapshot (`metrics` verb).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.request("metrics", Vec::new())
    }

    /// Streams `watch` events to `on_event` until the terminal
    /// `"done"` row (passed to the callback last); returns the final
    /// state name.
    ///
    /// # Errors
    ///
    /// Transport failures or a structured error instead of a stream.
    pub fn watch(
        &mut self,
        job: &str,
        mut on_event: impl FnMut(&Value),
    ) -> Result<String, ClientError> {
        self.watch_from(job, 0, &mut on_event)
    }

    /// Like [`watch`](Client::watch), but resumes after ring sequence
    /// number `after` — rows with `seq <= after` are skipped
    /// server-side. `0` replays the whole retained ring.
    ///
    /// # Errors
    ///
    /// Transport failures or a structured error instead of a stream.
    pub fn watch_from(
        &mut self,
        job: &str,
        after: u64,
        mut on_event: impl FnMut(&Value),
    ) -> Result<String, ClientError> {
        let mut fields = vec![("job".to_owned(), Value::Str(job.to_owned()))];
        if after > 0 {
            fields.push(("after".to_owned(), Value::U64(after)));
        }
        let mut line = request_line("watch", fields);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        loop {
            let row = self.read_response()?;
            on_event(&row);
            if row.get("event").and_then(Value::as_str) == Some("done") {
                return Ok(row
                    .get("state")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_owned());
            }
        }
    }
}

/// Longest pause between reconnect attempts in [`watch_resumable`].
const WATCH_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Watches `job` on the daemon at `addr`, reconnecting with
/// exponential backoff (250ms doubling to 5s) whenever the transport
/// drops mid-stream. Each reconnect resumes from the last event
/// sequence number already delivered, so `on_event` sees every row at
/// most once. Returns the job's final state name.
///
/// Structured server errors (unknown job, shutdown refusals) are
/// terminal and propagate immediately — only transport failures
/// trigger a reconnect.
///
/// # Errors
///
/// A structured server error, or a transport error on the *initial*
/// connection (there is nothing to resume yet).
pub fn watch_resumable(
    addr: &str,
    job: &str,
    mut on_event: impl FnMut(&Value),
) -> Result<String, ClientError> {
    let mut last_seq = 0u64;
    let mut backoff = Duration::from_millis(250);
    let mut connected_once = false;
    loop {
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) if !connected_once => return Err(e),
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(WATCH_BACKOFF_CAP);
                continue;
            }
        };
        connected_once = true;
        let outcome = client.watch_from(job, last_seq, |row| {
            if let Some(seq) = row.get("seq").and_then(Value::as_u64) {
                last_seq = last_seq.max(seq);
            }
            on_event(row);
        });
        match outcome {
            Ok(state) => return Ok(state),
            Err(e @ ClientError::Server { .. }) => return Err(e),
            Err(_) => {
                // Transport dropped mid-stream; back off and resume
                // from the last delivered sequence number.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(WATCH_BACKOFF_CAP);
            }
        }
    }
}

/// Renders a `metrics` response (or any value containing its
/// `registry` snapshot) as Prometheus text exposition, with every
/// family prefixed `cache8t_`.
pub fn render_metrics_text(response: &Value) -> String {
    let registry = response.get("registry").unwrap_or(response);
    prometheus_text("cache8t", registry)
}

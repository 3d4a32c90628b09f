//! The versioned JSONL line protocol the daemon speaks.
//!
//! Every request is one JSON object per line with a `"v": "1"` version
//! tag and a `"verb"`; every response line is an object whose first
//! field is `"ok"`. Malformed or unknown requests are answered with a
//! structured error — `{"ok": false, "error": {"code", "message"}}` —
//! and the connection stays open, so one bad line never costs a client
//! its session. That covers lines that are not UTF-8
//! ([`codes::MALFORMED_JSON`]) and lines longer than
//! [`MAX_REQUEST_LINE`](crate::MAX_REQUEST_LINE), which are answered
//! once ([`codes::OVERSIZED_REQUEST`]) and read to their newline
//! without being kept.

use serde_json::Value;

use cache8t_exec::{GeometryPoint, SweepPlan};
use cache8t_trace::profiles;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: &str = "1";

/// Machine-readable error classes. Each is tested individually; codes
/// are part of the wire contract and must stay stable.
pub mod codes {
    /// The line is not UTF-8, or not valid JSON.
    pub const MALFORMED_JSON: &str = "malformed-json";
    /// The line parsed but is not a JSON object.
    pub const NOT_AN_OBJECT: &str = "not-an-object";
    /// `v` is missing or names a version this build does not speak.
    pub const BAD_VERSION: &str = "bad-version";
    /// The request object has no `verb`.
    pub const MISSING_VERB: &str = "missing-verb";
    /// The `verb` is not one the daemon knows.
    pub const UNKNOWN_VERB: &str = "unknown-verb";
    /// A required field is absent.
    pub const MISSING_FIELD: &str = "missing-field";
    /// A field is present but has the wrong type or an invalid value.
    pub const BAD_FIELD: &str = "bad-field";
    /// A submitted plan names a workload profile outside the suite.
    pub const UNKNOWN_PROFILE: &str = "unknown-profile";
    /// A submitted plan names a geometry outside the named set.
    pub const UNKNOWN_GEOMETRY: &str = "unknown-geometry";
    /// The `job` id does not exist on this server.
    pub const UNKNOWN_JOB: &str = "unknown-job";
    /// `results` was asked of a job that has not completed.
    pub const NOT_FINISHED: &str = "not-finished";
    /// The server is shutting down and no longer accepts work.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// A request line exceeded the server's size bound.
    pub const OVERSIZED_REQUEST: &str = "oversized-request";
}

/// A structured protocol error: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Shorthand constructor.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }

    /// The `{"ok": false, "error": {...}}` response for this error.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ok".to_owned(), Value::Bool(false)),
            (
                "error".to_owned(),
                Value::Object(vec![
                    ("code".to_owned(), Value::Str(self.code.to_owned())),
                    ("message".to_owned(), Value::Str(self.message.clone())),
                ]),
            ),
        ])
    }
}

/// The sweep a `submit` request describes, still by name: profiles and
/// geometries are resolved against the built-in tables when the job is
/// admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Workload profile names, in output order.
    pub profiles: Vec<String>,
    /// Named geometry labels, in output order.
    pub geometries: Vec<String>,
    /// Measured operations per benchmark.
    pub ops: usize,
    /// Generator seed.
    pub seed: u64,
    /// Telemetry-sampler cadence in ops (`None`: run unsampled).
    pub series_cadence: Option<usize>,
}

impl PlanSpec {
    /// Resolves the named plan against the built-in profile and
    /// geometry tables.
    ///
    /// # Errors
    ///
    /// [`codes::UNKNOWN_PROFILE`] / [`codes::UNKNOWN_GEOMETRY`] naming
    /// the first offender.
    pub fn resolve(&self) -> Result<SweepPlan, ProtocolError> {
        let profiles = self
            .profiles
            .iter()
            .map(|name| {
                profiles::by_name(name).ok_or_else(|| {
                    ProtocolError::new(
                        codes::UNKNOWN_PROFILE,
                        format!("unknown workload profile `{name}`"),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let geometries = self
            .geometries
            .iter()
            .map(|label| {
                GeometryPoint::named(label).ok_or_else(|| {
                    ProtocolError::new(
                        codes::UNKNOWN_GEOMETRY,
                        format!("unknown geometry `{label}` (want baseline/blocks64/small/large)"),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepPlan {
            profiles,
            geometries,
            ops: self.ops,
            seed: self.seed,
        })
    }

    /// The spec as a JSON object (the shape `submit` accepts).
    pub fn to_value(&self) -> Value {
        let strings =
            |v: &[String]| Value::Array(v.iter().map(|s| Value::Str(s.clone())).collect());
        let mut fields = vec![
            ("profiles".to_owned(), strings(&self.profiles)),
            ("geometries".to_owned(), strings(&self.geometries)),
            ("ops".to_owned(), Value::U64(self.ops as u64)),
            ("seed".to_owned(), Value::U64(self.seed)),
        ];
        if let Some(cadence) = self.series_cadence {
            fields.push(("series_cadence".to_owned(), Value::U64(cadence as u64)));
        }
        Value::Object(fields)
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue a sweep; answered with the new job id.
    Submit(PlanSpec),
    /// Job detail (`job` set) or a whole-server summary.
    Status {
        /// The job to describe, or `None` for the server summary.
        job: Option<String>,
    },
    /// Fetch a completed job's sweep document.
    Results {
        /// The job whose document to fetch.
        job: String,
    },
    /// Stream progress / benchmark / series events until the job ends.
    Watch {
        /// The job to follow.
        job: String,
        /// Resume point: only events with sequence numbers beyond this
        /// are streamed (0 replays everything the ring still holds).
        /// Reconnecting watchers pass the last `seq` they saw.
        after: u64,
    },
    /// Fire the job's cancel token.
    Cancel {
        /// The job to cancel.
        job: String,
    },
    /// Liveness probe: uptime, queue depth, active job count.
    Health,
    /// Full operational snapshot: job/queue/journal/trace-store
    /// figures plus the server metric registry (per-verb request
    /// counters and latency histograms included).
    Metrics,
    /// Stop accepting work and exit once the queue drains.
    Shutdown,
}

fn required_str(object: &Value, field: &str) -> Result<String, ProtocolError> {
    match object.get(field) {
        None => Err(ProtocolError::new(
            codes::MISSING_FIELD,
            format!("request is missing `{field}`"),
        )),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(ProtocolError::new(
            codes::BAD_FIELD,
            format!("`{field}` must be a string, got {other:?}"),
        )),
    }
}

fn required_u64(object: &Value, field: &str) -> Result<u64, ProtocolError> {
    match object.get(field) {
        None => Err(ProtocolError::new(
            codes::MISSING_FIELD,
            format!("request is missing `{field}`"),
        )),
        Some(value) => value.as_u64().ok_or_else(|| {
            ProtocolError::new(
                codes::BAD_FIELD,
                format!("`{field}` must be a non-negative integer, got {value:?}"),
            )
        }),
    }
}

fn string_array(object: &Value, field: &str) -> Result<Vec<String>, ProtocolError> {
    let values = match object.get(field) {
        None => {
            return Err(ProtocolError::new(
                codes::MISSING_FIELD,
                format!("request is missing `{field}`"),
            ))
        }
        Some(Value::Array(values)) => values,
        Some(other) => {
            return Err(ProtocolError::new(
                codes::BAD_FIELD,
                format!("`{field}` must be an array of strings, got {other:?}"),
            ))
        }
    };
    if values.is_empty() {
        return Err(ProtocolError::new(
            codes::BAD_FIELD,
            format!("`{field}` must not be empty"),
        ));
    }
    values
        .iter()
        .map(|v| {
            v.as_str().map(str::to_owned).ok_or_else(|| {
                ProtocolError::new(
                    codes::BAD_FIELD,
                    format!("`{field}` must contain only strings, got {v:?}"),
                )
            })
        })
        .collect()
}

fn parse_plan(object: &Value) -> Result<PlanSpec, ProtocolError> {
    let plan = object
        .get("plan")
        .ok_or_else(|| ProtocolError::new(codes::MISSING_FIELD, "submit is missing `plan`"))?;
    if plan.as_object().is_none() {
        return Err(ProtocolError::new(
            codes::BAD_FIELD,
            "`plan` must be an object",
        ));
    }
    let ops = required_u64(plan, "ops")?;
    if ops == 0 {
        return Err(ProtocolError::new(codes::BAD_FIELD, "`ops` must be >= 1"));
    }
    let series_cadence = match plan.get("series_cadence") {
        None | Some(Value::Null) => None,
        Some(value) => {
            let cadence = value.as_u64().ok_or_else(|| {
                ProtocolError::new(
                    codes::BAD_FIELD,
                    format!("`series_cadence` must be a positive integer, got {value:?}"),
                )
            })?;
            if cadence == 0 {
                return Err(ProtocolError::new(
                    codes::BAD_FIELD,
                    "`series_cadence` must be >= 1",
                ));
            }
            Some(cadence as usize)
        }
    };
    Ok(PlanSpec {
        profiles: string_array(plan, "profiles")?,
        geometries: string_array(plan, "geometries")?,
        ops: ops as usize,
        seed: required_u64(plan, "seed")?,
        series_cadence,
    })
}

/// Parses one request line.
///
/// # Errors
///
/// A [`ProtocolError`] naming the first violated rule; the caller
/// answers it on the wire and keeps the connection open.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let value: Value = serde_json::from_str(line.trim())
        .map_err(|e| ProtocolError::new(codes::MALFORMED_JSON, format!("invalid JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(ProtocolError::new(
            codes::NOT_AN_OBJECT,
            "a request must be a JSON object",
        ));
    }
    match value.get("v").and_then(Value::as_str) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(ProtocolError::new(
                codes::BAD_VERSION,
                format!("protocol version `{other}` not supported (want \"{PROTOCOL_VERSION}\")"),
            ))
        }
        None => {
            return Err(ProtocolError::new(
                codes::BAD_VERSION,
                format!("request is missing `v` (want \"{PROTOCOL_VERSION}\")"),
            ))
        }
    }
    let verb = match value.get("verb") {
        None => {
            return Err(ProtocolError::new(
                codes::MISSING_VERB,
                "request has no `verb`",
            ))
        }
        Some(Value::Str(verb)) => verb.clone(),
        Some(other) => {
            return Err(ProtocolError::new(
                codes::MISSING_VERB,
                format!("`verb` must be a string, got {other:?}"),
            ))
        }
    };
    match verb.as_str() {
        "submit" => Ok(Request::Submit(parse_plan(&value)?)),
        "status" => {
            let job = match value.get("job") {
                None | Some(Value::Null) => None,
                Some(_) => Some(required_str(&value, "job")?),
            };
            Ok(Request::Status { job })
        }
        "results" => Ok(Request::Results {
            job: required_str(&value, "job")?,
        }),
        "watch" => {
            let after = match value.get("after") {
                None | Some(Value::Null) => 0,
                Some(_) => required_u64(&value, "after")?,
            };
            Ok(Request::Watch {
                job: required_str(&value, "job")?,
                after,
            })
        }
        "cancel" => Ok(Request::Cancel {
            job: required_str(&value, "job")?,
        }),
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::new(
            codes::UNKNOWN_VERB,
            format!("unknown verb `{other}`"),
        )),
    }
}

/// An `{"ok": true, ...fields}` response object.
pub fn ok_response(fields: Vec<(String, Value)>) -> Value {
    let mut object = vec![("ok".to_owned(), Value::Bool(true))];
    object.extend(fields);
    Value::Object(object)
}

/// A versioned request line for `verb` with extra `fields` — what the
/// client writes on the wire (newline appended by the sender).
pub fn request_line(verb: &str, fields: Vec<(String, Value)>) -> String {
    let mut object = vec![
        ("v".to_owned(), Value::Str(PROTOCOL_VERSION.to_owned())),
        ("verb".to_owned(), Value::Str(verb.to_owned())),
    ];
    object.extend(fields);
    serde_json::to_string(&Value::Object(object)).expect("request objects serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_code(line: &str) -> &'static str {
        parse_request(line).expect_err(line).code
    }

    #[test]
    fn valid_requests_parse() {
        let submit = r#"{"v":"1","verb":"submit","plan":{"profiles":["gcc"],"geometries":["baseline"],"ops":1000,"seed":7}}"#;
        let Request::Submit(spec) = parse_request(submit).expect("submit") else {
            panic!("wrong variant");
        };
        assert_eq!(spec.profiles, ["gcc"]);
        assert_eq!(spec.ops, 1000);
        assert_eq!(spec.series_cadence, None);
        assert!(spec.resolve().is_ok());

        assert_eq!(
            parse_request(r#"{"v":"1","verb":"status"}"#),
            Ok(Request::Status { job: None })
        );
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"status","job":"job-3"}"#),
            Ok(Request::Status {
                job: Some("job-3".to_owned())
            })
        );
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"cancel","job":"job-1"}"#),
            Ok(Request::Cancel {
                job: "job-1".to_owned()
            })
        );
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"health"}"#),
            Ok(Request::Health)
        );
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"metrics"}"#),
            Ok(Request::Metrics)
        );
    }

    #[test]
    fn watch_resume_sequence_parses() {
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"watch","job":"job-1"}"#),
            Ok(Request::Watch {
                job: "job-1".to_owned(),
                after: 0
            })
        );
        assert_eq!(
            parse_request(r#"{"v":"1","verb":"watch","job":"job-1","after":17}"#),
            Ok(Request::Watch {
                job: "job-1".to_owned(),
                after: 17
            })
        );
        assert_eq!(
            err_code(r#"{"v":"1","verb":"watch","job":"job-1","after":"x"}"#),
            codes::BAD_FIELD
        );
    }

    #[test]
    fn every_error_class_has_a_code() {
        assert_eq!(err_code("{not json"), codes::MALFORMED_JSON);
        assert_eq!(err_code("[1, 2]"), codes::NOT_AN_OBJECT);
        assert_eq!(err_code(r#"{"verb":"status"}"#), codes::BAD_VERSION);
        assert_eq!(err_code(r#"{"v":"9","verb":"status"}"#), codes::BAD_VERSION);
        assert_eq!(err_code(r#"{"v":"1"}"#), codes::MISSING_VERB);
        assert_eq!(
            err_code(r#"{"v":"1","verb":"frobnicate"}"#),
            codes::UNKNOWN_VERB
        );
        assert_eq!(
            err_code(r#"{"v":"1","verb":"results"}"#),
            codes::MISSING_FIELD
        );
        assert_eq!(
            err_code(r#"{"v":"1","verb":"results","job":17}"#),
            codes::BAD_FIELD
        );
        assert_eq!(
            err_code(
                r#"{"v":"1","verb":"submit","plan":{"profiles":[],"geometries":["baseline"],"ops":1,"seed":0}}"#
            ),
            codes::BAD_FIELD
        );
        assert_eq!(
            err_code(
                r#"{"v":"1","verb":"submit","plan":{"profiles":["gcc"],"geometries":["baseline"],"ops":0,"seed":0}}"#
            ),
            codes::BAD_FIELD
        );
        assert_eq!(
            err_code(r#"{"v":"1","verb":"submit"}"#),
            codes::MISSING_FIELD
        );
    }

    #[test]
    fn unknown_names_surface_at_resolution() {
        let spec = PlanSpec {
            profiles: vec!["gcc".into(), "notabench".into()],
            geometries: vec!["baseline".into()],
            ops: 100,
            seed: 0,
            series_cadence: None,
        };
        let err = spec.resolve().expect_err("unknown profile");
        assert_eq!(err.code, codes::UNKNOWN_PROFILE);
        assert!(err.message.contains("notabench"));

        let spec = PlanSpec {
            profiles: vec!["gcc".into()],
            geometries: vec!["enormous".into()],
            ops: 100,
            seed: 0,
            series_cadence: None,
        };
        let err = spec.resolve().expect_err("unknown geometry");
        assert_eq!(err.code, codes::UNKNOWN_GEOMETRY);
    }

    #[test]
    fn error_values_carry_code_and_message() {
        let err = ProtocolError::new(codes::UNKNOWN_JOB, "no job `job-9`");
        let value = err.to_value();
        assert_eq!(value.get("ok"), Some(&Value::Bool(false)));
        let error = value.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Value::as_str),
            Some(codes::UNKNOWN_JOB)
        );
        assert_eq!(
            error.get("message").and_then(Value::as_str),
            Some("no job `job-9`")
        );
    }

    #[test]
    fn request_lines_round_trip_through_the_parser() {
        let line = request_line(
            "results",
            vec![("job".to_owned(), Value::Str("job-2".to_owned()))],
        );
        assert_eq!(
            parse_request(&line),
            Ok(Request::Results {
                job: "job-2".to_owned()
            })
        );
        let spec = PlanSpec {
            profiles: vec!["gcc".into()],
            geometries: vec!["baseline".into()],
            ops: 500,
            seed: 3,
            series_cadence: Some(100),
        };
        let line = request_line("submit", vec![("plan".to_owned(), spec.to_value())]);
        assert_eq!(parse_request(&line), Ok(Request::Submit(spec)));
    }
}

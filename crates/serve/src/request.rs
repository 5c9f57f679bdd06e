//! The wire request and the response envelope.
//!
//! Every transport — [`QueryEngine`](crate::engine::QueryEngine),
//! [`RefreshableEngine`](crate::refresh::RefreshableEngine), the TCP
//! front-end and the stdio binary — parses a request line once with
//! [`Json::parse`] and decodes it here into a [`Request`]: the echoed
//! `"id"` plus a typed [`Op`] whose fields borrow from the parsed
//! [`Json`]. The variant alone decides where a request runs: `stats`,
//! `refresh`, `refresh_status` and committed fold-ins
//! ([`Request::takes_lane`]) go through the refresh layer's single
//! writer; everything else, decode errors included, is answered from the
//! read-only core.
//!
//! Decoding checks only the fields every op checks first: the `"op"`, a
//! membership's or top-k's `"object"`, and `refresh_status`'s `"wait"`.
//! Fields whose errors rank behind a name lookup (similarities, `"k"`,
//! candidate types, link triples, commit targets) stay borrowed and are
//! validated by the op itself, in a fixed order, so a request with two
//! faults reports the same one on every transport.
//!
//! Every response goes through [`respond`]: `{"id"?, "ok":true, body…}`
//! or `{"id"?, "ok":false, "error":…}`, recorded into the op's latency
//! histogram once rendered ([`Rendered::record`]).

use crate::error::ServeError;
use crate::json::{render_obj, Json};
use crate::metrics::ServeMetrics;
use genclus_core::Similarity;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// The fields of a successful response, after `"ok":true`.
pub(crate) type Body = Vec<(&'static str, Json)>;

/// One decoded request line.
pub(crate) struct Request<'a> {
    /// The request's `"id"`, echoed verbatim in the response.
    id: Option<&'a Json>,
    /// The metrics label: the op's name, or `"other"` when the line names
    /// no known op.
    label: &'static str,
    /// The decoded op, or why the line does not decode.
    op: Result<Op<'a>, ServeError>,
}

/// What a request asks for.
pub(crate) enum Op<'a> {
    /// `{"op":"membership","object":…}`.
    Membership {
        object: &'a str,
    },
    /// `{"op":"top_k","object":…,"k"?,"sim"?,"type"?}`.
    TopK {
        object: &'a str,
        ranking: Ranking<'a>,
    },
    /// A fold-in without a `"commit"` field.
    FoldIn(FoldIn<'a>),
    /// A fold-in with a `"commit"` field (of any value).
    Commit(Commit<'a>),
    Stats,
    Metrics,
    Refresh,
    RefreshStatus {
        wait: bool,
    },
}

/// The optional ranking fields. A non-string `"sim"` or `"type"` counts
/// as absent.
pub(crate) struct Ranking<'a> {
    k: Option<&'a Json>,
    sim: Option<&'a str>,
    /// Candidate object type name.
    pub ty: Option<&'a str>,
}

/// The body of a fold-in: evidence plus the optional ranking.
pub(crate) struct FoldIn<'a> {
    pub links: Option<&'a Json>,
    pub terms: Option<&'a Json>,
    pub values: Option<&'a Json>,
    pub ranking: Ranking<'a>,
}

/// A fold-in to stage for the next refresh.
pub(crate) struct Commit<'a> {
    pub fold_in: FoldIn<'a>,
    /// Links into the new object, `[[relation, source, weight], …]`.
    pub in_links: Option<&'a Json>,
    /// The `"commit"` field: a name, or `{"name", "type"?}`.
    pub target: &'a Json,
}

impl<'a> Request<'a> {
    /// Decodes a parsed line; `parsed` is [`Json::parse`]'s result.
    pub fn decode(parsed: &'a Result<Json, String>) -> Self {
        let json = match parsed {
            Ok(json) => json,
            Err(e) => {
                let e = ServeError::BadRequest(format!("invalid JSON: {e}"));
                return Self {
                    id: None,
                    label: "other",
                    op: Err(e),
                };
            }
        };
        let bad = |msg: String| Err(ServeError::BadRequest(msg));
        let (label, op) = match json.get("op").and_then(Json::as_str) {
            Some("membership") => (
                "membership",
                object(json).map(|object| Op::Membership { object }),
            ),
            Some("top_k") => (
                "top_k",
                object(json).map(|object| Op::TopK {
                    object,
                    ranking: Ranking::of(json),
                }),
            ),
            Some("fold_in") => {
                let fold_in = FoldIn {
                    links: json.get("links"),
                    terms: json.get("terms"),
                    values: json.get("values"),
                    ranking: Ranking::of(json),
                };
                match json.get("commit") {
                    Some(target) => (
                        "commit",
                        Ok(Op::Commit(Commit {
                            fold_in,
                            in_links: json.get("in_links"),
                            target,
                        })),
                    ),
                    None => ("fold_in", Ok(Op::FoldIn(fold_in))),
                }
            }
            Some("stats") => ("stats", Ok(Op::Stats)),
            Some("metrics") => ("metrics", Ok(Op::Metrics)),
            Some("refresh") => ("refresh", Ok(Op::Refresh)),
            Some("refresh_status") => (
                "refresh_status",
                match json.get("wait") {
                    None => Ok(Op::RefreshStatus { wait: false }),
                    Some(j) => match j.as_bool() {
                        Some(wait) => Ok(Op::RefreshStatus { wait }),
                        None => bad("\"wait\" must be a boolean".into()),
                    },
                },
            ),
            Some(other) => ("other", bad(format!("unknown op {other:?}"))),
            None => (
                "other",
                bad("request must carry a string \"op\" field".into()),
            ),
        };
        Self {
            id: json.get("id"),
            label,
            op,
        }
    }

    /// Whether the request goes through the refresh layer's single
    /// writer rather than the read-only core.
    pub fn takes_lane(&self) -> bool {
        matches!(
            self.op,
            Ok(Op::Commit(_) | Op::Stats | Op::Refresh | Op::RefreshStatus { .. })
        )
    }

    /// Whether the response depends on nothing but the serving core, so
    /// a batch may answer it ahead of the lane requests before it.
    /// `metrics` reads counters that every request moves.
    pub fn reads_core_only(&self) -> bool {
        !self.takes_lane() && !matches!(self.op, Ok(Op::Metrics))
    }

    /// Renders the response through [`respond`]: `run` executes a decoded
    /// op; a line that did not decode is answered with its error.
    pub fn render(&self, run: impl FnOnce(&Op<'a>) -> Result<Body, ServeError>) -> Rendered {
        match &self.op {
            Ok(op) => respond(self.id, self.label, run(op)),
            Err(e) => respond(self.id, self.label, Err(e)),
        }
    }
}

/// A rendered response whose op metric is not recorded yet. The latency
/// is taken once rendered, so it covers what the client waits for.
pub(crate) struct Rendered {
    text: String,
    label: &'static str,
    ok: bool,
}

impl Rendered {
    /// Records the op's latency since `started` and returns the line.
    pub fn record(self, metrics: &ServeMetrics, started: Option<Instant>) -> String {
        self.record_elapsed(metrics, started.map(|t| t.elapsed()))
    }

    /// [`Self::record`] with the latency already measured.
    pub fn record_elapsed(self, metrics: &ServeMetrics, elapsed: Option<Duration>) -> String {
        metrics.record_op(self.label, elapsed, self.ok);
        self.text
    }
}

impl<'a> Ranking<'a> {
    fn of(json: &'a Json) -> Self {
        Self {
            k: json.get("k"),
            sim: json.get("sim").and_then(Json::as_str),
            ty: json.get("type").and_then(Json::as_str),
        }
    }

    /// `"k"`, when present.
    pub fn k(&self) -> Result<Option<usize>, ServeError> {
        self.k
            .map(|j| {
                j.as_usize().ok_or_else(|| {
                    ServeError::BadRequest("\"k\" must be a non-negative integer".into())
                })
            })
            .transpose()
    }

    /// `"sim"`; cross-entropy when absent.
    pub fn similarity(&self) -> Result<Similarity, ServeError> {
        match self.sim {
            None | Some("cross_entropy") => Ok(Similarity::NegCrossEntropy),
            Some("cosine") => Ok(Similarity::Cosine),
            Some("euclidean") => Ok(Similarity::NegEuclidean),
            Some(other) => Err(ServeError::BadRequest(format!(
                "unknown similarity {other:?} (expected cosine | euclidean | cross_entropy)"
            ))),
        }
    }
}

/// The `"object"` name of a membership or top-k request.
fn object(json: &Json) -> Result<&str, ServeError> {
    json.get("object")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string \"object\" field".into()))
}

/// The one response envelope: `{"id"?, "ok":true, body…}` on success,
/// `{"id"?, "ok":false, "error":…}` on failure, to be recorded under
/// `label` by [`Rendered::record`].
pub(crate) fn respond<E: Display>(
    id: Option<&Json>,
    label: &'static str,
    result: Result<Body, E>,
) -> Rendered {
    let ok = result.is_ok();
    let mut fields: Body = Vec::with_capacity(4);
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    match result {
        Ok(mut body) => {
            fields.push(("ok", Json::Bool(true)));
            fields.append(&mut body);
        }
        Err(e) => {
            fields.push(("ok", Json::Bool(false)));
            fields.push(("error", Json::str(e.to_string())));
        }
    }
    Rendered {
        text: render_obj(&fields),
        label,
        ok,
    }
}

//! The batched query engine behind the `genclus_serve` binary.
//!
//! Requests are JSON-lines objects; each gets exactly one JSON-lines
//! response carrying the echoed `id` (when present) and `"ok"`
//! ([`crate::request`] decodes the line and renders the envelope).
//! Supported operations:
//!
//! * `{"op":"membership","object":<name>}` — the stored `Θ` row and hard
//!   label of an existing object;
//! * `{"op":"top_k","object":<name>,"k":<n>,"sim":<sim>,"type":<name>}` —
//!   §5.2.2 link-prediction ranking: the `k` most similar candidates
//!   (optionally restricted to one object type, the query object
//!   excluded), with `sim` one of `"cosine"`, `"euclidean"`,
//!   `"cross_entropy"` (default);
//! * `{"op":"fold_in","links":[[rel,target,w],…],"terms":{attr:[[t,c],…]},`
//!   `"values":{attr:[x,…]},"k":<n>,"sim":…}` — online assignment of a new
//!   object with arbitrary subsets of attributes missing; with `"k"` the
//!   folded row is additionally ranked against the network (top-k from the
//!   inferred membership);
//! * `{"op":"stats"}` — snapshot geometry and the learned `γ`.
//!
//! Rankings (`top_k`, and `fold_in`/commit with `"k"`) search one
//! [`CandidateIndex`] per object type, built when the core is constructed
//! — at load, and by the refresh that publishes a new core — so no
//! request copies a candidate list or recomputes a norm. Each index holds
//! the members' row norms and splits them into one partition per dominant
//! cluster, each sorted along its own coordinate of the normalised row. A
//! cosine query walks its own dominant partition outward from its own
//! value of that coordinate, then every other partition from its value of
//! that partition's coordinate, and leaves each where no remaining member
//! can reach the current `k`-th score; a confident query leaves the other
//! partitions after one binary search each. The walk is exact and its
//! scores are bit-identical to `Similarity::score` (see
//! `genclus_core::prediction::CandidateIndex`); other similarities scan
//! the same arrays in place, and an untyped request searches every type's
//! index into one best-`k` buffer.
//!
//! Batches are executed across the persistent
//! [`WorkerPool`] (one chunk per worker,
//! responses in request order). Requests are independent and the engine is
//! read-only, so this parallelism is safe by construction; names are
//! resolved through [`HinGraph::require_object_by_name`], so unknown names
//! come back as structured errors — serving input is untrusted.

use crate::error::ServeError;
use crate::foldin::{FoldInEngine, FoldInRequest, FoldInResult};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::request::{Body, FoldIn, Op, Ranking, Request};
use crate::snapshot::Snapshot;
use genclus_core::pool::WorkerPool;
use genclus_core::prediction::{search, CandidateIndex};
use genclus_core::Similarity;
use genclus_hin::{HinGraph, ObjectId, ObjectTypeId};
use genclus_stats::simplex::argmax;
use std::sync::{Arc, Mutex};

/// A loaded snapshot plus everything needed to answer queries.
///
/// Split in two: [`QueryCore`] (the read-only, `Sync` request handler the
/// worker closures borrow) and the `QueryEngine` wrapper that owns the
/// worker pool — the pool's channels are deliberately not `Sync`, so it
/// cannot live inside the part the workers capture.
pub struct QueryEngine {
    /// `Arc`'d so the TCP front-end ([`crate::net`]) can hand every
    /// connection a pinnable reference to the *current* core while a
    /// refresh builds the next one — the PR 5 swap discipline generalized
    /// from "one serving thread" to "N connections, lock-free reads".
    core: Arc<QueryCore>,
    pool: Option<WorkerPool>,
    threads: usize,
}

/// The shareable request handler: snapshot + candidate indexes, no pool.
pub struct QueryCore {
    snapshot: Snapshot,
    /// One [`CandidateIndex`] per object type, built with the core — at
    /// load and by the refresh that publishes it, off the request path.
    indexes: Vec<CandidateIndex>,
    /// Shared observability registry — `Arc`'d so a refreshed engine keeps
    /// accumulating into the same process-lifetime counters.
    metrics: Arc<ServeMetrics>,
}

impl QueryEngine {
    /// Builds an engine over `snapshot` with `threads` workers (1 =
    /// serial) and a fresh metrics registry.
    pub fn new(snapshot: Snapshot, threads: usize) -> Self {
        Self::with_metrics(snapshot, threads, Arc::new(ServeMetrics::new()))
    }

    /// [`Self::new`] wired to an existing registry — how a refresh keeps
    /// counters cumulative across snapshot swaps, and how the `metrics`
    /// gate of `bench_gates` A/Bs a [`ServeMetrics::disabled`] registry.
    pub fn with_metrics(snapshot: Snapshot, threads: usize, metrics: Arc<ServeMetrics>) -> Self {
        let threads = threads.max(1);
        let graph = snapshot.graph();
        let mut members = vec![Vec::new(); graph.schema().n_object_types()];
        for v in graph.objects() {
            members[graph.object_type(v).index()].push(v);
        }
        let theta = &snapshot.model().theta;
        let indexes = members
            .iter()
            .map(|m| CandidateIndex::build(theta, m))
            .collect();
        Self {
            core: Arc::new(QueryCore {
                snapshot,
                indexes,
                metrics,
            }),
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
            threads,
        }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.core.snapshot
    }

    /// The shared observability registry.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.core.metrics
    }

    /// The shareable request handler (no pool) — the core the refresh
    /// layer's lane answers reads from.
    pub(crate) fn core(&self) -> &QueryCore {
        &self.core
    }

    /// A shared handle to the current core. Cloning the `Arc` is how the
    /// TCP front-end publishes a snapshot to all connections: readers pin
    /// the handle per request and keep answering from it even while the
    /// mutation lane swaps in a refreshed engine.
    pub fn core_shared(&self) -> Arc<QueryCore> {
        Arc::clone(&self.core)
    }

    /// Worker threads this engine was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying graph.
    pub fn graph(&self) -> &HinGraph {
        self.core.graph()
    }

    /// Handles one request line, producing one response line (never
    /// panics on malformed input; the error goes into the response).
    pub fn handle_line(&self, line: &str) -> String {
        self.core.handle_line(line)
    }

    /// Handles a batch of request lines concurrently across the worker
    /// pool; each worker parses and answers its own lines, and responses
    /// come back in request order.
    pub fn handle_batch(&self, lines: &[String]) -> Vec<String> {
        let core = &*self.core;
        self.par_map(lines, |line| core.handle_line(line))
    }

    /// Maps `f` over `items` across the worker pool, one contiguous chunk
    /// per worker, results in input order.
    pub(crate) fn par_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        let workers = self.threads.min(n.max(1));
        // `threads > 1` implies a pool was built; if that invariant ever
        // breaks, degrade to sequential handling rather than panic mid-batch.
        let pool = match &self.pool {
            Some(pool) if workers > 1 && n > 1 => pool,
            _ => return items.iter().map(f).collect(),
        };
        let chunk = n.div_ceil(workers);
        let slots: Vec<Mutex<Vec<R>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        pool.broadcast(workers, &|i| {
            // Both bounds clamp to n: with chunk = ceil(n / workers), the
            // last workers' ranges can start past the end (e.g. 5 lines on
            // 4 workers → chunk 2 → worker 3 starts at 6) and must come
            // out empty, not out of bounds.
            let lo = (i * chunk).min(n);
            let hi = ((i + 1) * chunk).min(n);
            let out: Vec<R> = items[lo..hi].iter().map(&f).collect();
            // Poison recovery: each slot is written exactly once by one
            // worker; a poisoned lock still holds a valid (empty or full)
            // result vector.
            *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = out;
        });
        slots
            .into_iter()
            .flat_map(|s| s.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    }
}

/// A validated ranking request: `k`, the similarity, and the candidate
/// type (`None` for every type).
pub(crate) type Ranked = (usize, Similarity, Option<ObjectTypeId>);

impl QueryCore {
    /// The underlying graph.
    fn graph(&self) -> &HinGraph {
        self.snapshot.graph()
    }

    /// One request line → one response line, timed from before the parse.
    fn handle_line(&self, line: &str) -> String {
        let started = self.metrics.timer();
        let parsed = Json::parse(line);
        Request::decode(&parsed)
            .render(|op| self.execute(op))
            .record(&self.metrics, started)
    }

    /// Runs a decoded op. The read-only core refuses the three ops that
    /// need the refresh layer: a commit (it would stage nothing), and
    /// `refresh` and `refresh_status`, which it does not know.
    pub(crate) fn execute(&self, op: &Op<'_>) -> Result<Body, ServeError> {
        match op {
            Op::Membership { object } => self.op_membership(object),
            Op::TopK { object, ranking } => self.op_top_k(object, ranking),
            Op::FoldIn(fold_in) => self.op_fold_in(fold_in),
            Op::Commit(_) => Err(ServeError::BadRequest(
                "\"commit\" needs a refreshable engine; this one is read-only".into(),
            )),
            Op::Stats => self.op_stats(),
            Op::Metrics => Ok(self.metrics.to_fields()),
            Op::Refresh => Err(ServeError::BadRequest("unknown op \"refresh\"".into())),
            Op::RefreshStatus { .. } => Err(ServeError::BadRequest(
                "unknown op \"refresh_status\"".into(),
            )),
        }
    }

    /// Candidate type: `None` (every type) unless a type name is given.
    fn candidate_type(&self, name: Option<&str>) -> Result<Option<ObjectTypeId>, ServeError> {
        name.map(|name| {
            self.graph()
                .schema()
                .object_type_by_name(name)
                .ok_or_else(|| ServeError::BadRequest(format!("unknown object type {name:?}")))
        })
        .transpose()
    }

    /// The ranking a fold-in or commit asks for. `"k"`, `"sim"` and
    /// `"type"` are validated in that order whenever present; a ranking
    /// is returned only when `"k"` is.
    pub(crate) fn ranking(&self, ranking: &Ranking<'_>) -> Result<Option<Ranked>, ServeError> {
        let k = ranking.k()?;
        let sim = ranking.similarity()?;
        let t = self.candidate_type(ranking.ty)?;
        Ok(k.map(|k| (k, sim, t)))
    }

    /// The `k` candidates of type `t` (every type when `None`) most similar
    /// to `query_row`, `exclude` left out, rendered as `[[name, score], …]`.
    fn ranked_json(
        &self,
        query_row: &[f64],
        (k, sim, t): Ranked,
        exclude: Option<ObjectId>,
    ) -> Json {
        let indexes = match t {
            Some(t) => std::slice::from_ref(&self.indexes[t.index()]),
            None => &self.indexes[..],
        };
        let theta = &self.snapshot.model().theta;
        let ranked = search(theta, indexes, query_row, sim, k, exclude);
        Json::Arr(
            ranked
                .iter()
                .map(|&(c, score)| {
                    Json::Arr(vec![
                        Json::str(self.graph().object_name(c)),
                        Json::Num(score),
                    ])
                })
                .collect(),
        )
    }

    fn op_membership(&self, object: &str) -> Result<Body, ServeError> {
        let v = self.graph().require_object_by_name(object)?;
        let row = self.snapshot.model().membership(v);
        Ok(vec![
            ("object", Json::str(self.graph().object_name(v))),
            ("theta", Json::nums(row)),
            ("cluster", Json::Num(argmax(row) as f64)),
        ])
    }

    fn op_top_k(&self, object: &str, ranking: &Ranking<'_>) -> Result<Body, ServeError> {
        let v = self.graph().require_object_by_name(object)?;
        let sim = ranking.similarity()?;
        let k = ranking.k()?.unwrap_or(10);
        let t = self.candidate_type(ranking.ty)?;
        let row = self.snapshot.model().membership(v);
        Ok(vec![
            ("object", Json::str(self.graph().object_name(v))),
            ("results", self.ranked_json(row, (k, sim, t), Some(v))),
        ])
    }

    pub(crate) fn op_stats(&self) -> Result<Body, ServeError> {
        let g = self.graph();
        let model = self.snapshot.model();
        let gamma = Json::Obj(
            g.schema()
                .relations()
                .map(|(r, def)| (def.name.clone(), Json::Num(model.strength(r))))
                .collect(),
        );
        Ok(vec![
            ("n_objects", Json::Num(g.n_objects() as f64)),
            ("n_links", Json::Num(g.n_links() as f64)),
            ("k", Json::Num(model.n_clusters() as f64)),
            ("gamma", gamma),
            (
                "snapshot_version",
                Json::Num(self.snapshot.header().version as f64),
            ),
            // The payload checksum identifies *which* snapshot answered —
            // hex-rendered because a u64 does not survive an f64 JSON
            // number. Clients use it to observe the atomic swap of a
            // background refresh (consistent reads: old until swap, new
            // after).
            (
                "checksum",
                Json::str(format!("{:016x}", self.snapshot.header().checksum)),
            ),
        ])
    }

    /// Decodes a `[[relation, endpoint-name, weight], …]` array, resolving
    /// endpoint names through `resolve` (plain fold-in resolves against the
    /// snapshot graph; the refresh layer widens resolution to snapshot ∪
    /// staged names for commit links and `in_links`).
    pub(crate) fn decode_link_triples(
        &self,
        links: &Json,
        field: &str,
        resolve: &dyn Fn(&str) -> Result<ObjectId, ServeError>,
    ) -> Result<Vec<(genclus_hin::RelationId, ObjectId, f64)>, ServeError> {
        let schema = self.graph().schema();
        let links = links
            .as_arr()
            .ok_or_else(|| ServeError::BadRequest(format!("{field:?} must be an array")))?;
        let mut out = Vec::with_capacity(links.len());
        for entry in links {
            let triple = entry.as_arr().filter(|a| a.len() == 3).ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "each entry of {field:?} must be [relation, name, weight]"
                ))
            })?;
            let rel_name = triple[0]
                .as_str()
                .ok_or_else(|| ServeError::BadRequest("link relation must be a string".into()))?;
            let rel = schema
                .relation_by_name(rel_name)
                .ok_or_else(|| ServeError::BadRequest(format!("unknown relation {rel_name:?}")))?;
            let endpoint_name = triple[1]
                .as_str()
                .ok_or_else(|| ServeError::BadRequest("link endpoint must be a string".into()))?;
            let endpoint = resolve(endpoint_name)?;
            let weight = triple[2]
                .as_f64()
                .ok_or_else(|| ServeError::BadRequest("link weight must be a number".into()))?;
            out.push((rel, endpoint, weight));
        }
        Ok(out)
    }

    /// Decodes a fold-in's evidence: link relations and targets by name
    /// (targets through `resolve`), attributes by name.
    pub(crate) fn decode_fold_in(
        &self,
        fold_in: &FoldIn<'_>,
        resolve: &dyn Fn(&str) -> Result<ObjectId, ServeError>,
    ) -> Result<FoldInRequest, ServeError> {
        let schema = self.graph().schema();
        let mut out = FoldInRequest::default();
        if let Some(links) = fold_in.links {
            out.links = self.decode_link_triples(links, "links", resolve)?;
        }
        let attr_by_name = |name: &str| {
            schema
                .attribute_by_name(name)
                .ok_or_else(|| ServeError::BadRequest(format!("unknown attribute {name:?}")))
        };
        if let Some(terms) = fold_in.terms {
            let fields = terms
                .as_obj()
                .ok_or_else(|| ServeError::BadRequest("\"terms\" must be an object".into()))?;
            for (name, bag) in fields {
                let a = attr_by_name(name)?;
                let bag = bag.as_arr().ok_or_else(|| {
                    ServeError::BadRequest(format!("terms of {name:?} must be an array"))
                })?;
                let mut decoded = Vec::with_capacity(bag.len());
                for pair in bag {
                    let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        ServeError::BadRequest("each term must be [index, count]".into())
                    })?;
                    let term = pair[0].as_usize().ok_or_else(|| {
                        ServeError::BadRequest("term index must be a non-negative integer".into())
                    })?;
                    let count = pair[1].as_f64().ok_or_else(|| {
                        ServeError::BadRequest("term count must be a number".into())
                    })?;
                    decoded.push((term as u32, count));
                }
                out.terms.push((a, decoded));
            }
        }
        if let Some(values) = fold_in.values {
            let fields = values
                .as_obj()
                .ok_or_else(|| ServeError::BadRequest("\"values\" must be an object".into()))?;
            for (name, list) in fields {
                let a = attr_by_name(name)?;
                let list = list.as_arr().ok_or_else(|| {
                    ServeError::BadRequest(format!("values of {name:?} must be an array"))
                })?;
                let mut decoded = Vec::with_capacity(list.len());
                for x in list {
                    decoded.push(x.as_f64().ok_or_else(|| {
                        ServeError::BadRequest("observation values must be numbers".into())
                    })?);
                }
                out.values.push((a, decoded));
            }
        }
        Ok(out)
    }

    /// The body of a fold-in or commit response: the inferred row, its
    /// hard label and convergence, the committed name, and the row's
    /// ranking when one was asked for.
    pub(crate) fn fold_in_body(
        &self,
        folded: &FoldInResult,
        committed: Option<&str>,
        ranked: Option<Ranked>,
    ) -> Body {
        let mut fields = vec![
            ("theta", Json::nums(&folded.theta)),
            ("cluster", Json::Num(argmax(&folded.theta) as f64)),
            ("iterations", Json::Num(folded.iterations as f64)),
            ("converged", Json::Bool(folded.converged)),
        ];
        if let Some(name) = committed {
            fields.push(("committed", Json::str(name)));
        }
        if let Some(ranked) = ranked {
            fields.push(("results", self.ranked_json(&folded.theta, ranked, None)));
        }
        fields
    }

    fn op_fold_in(&self, fold_in: &FoldIn<'_>) -> Result<Body, ServeError> {
        let req = self.decode_fold_in(fold_in, &|name| {
            Ok(self.graph().require_object_by_name(name)?)
        })?;
        let folded = FoldInEngine::new(self.snapshot.model(), self.graph()).assign(&req)?;
        let ranked = self.ranking(&fold_in.ranking)?;
        Ok(self.fold_in_body(&folded, None, ranked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genclus_core::{GenClus, GenClusConfig};
    use genclus_hin::{HinBuilder, Schema};

    /// Two planted sensor clusters; sensors s0/s3 carry readings, the rest
    /// rely on links.
    fn snapshot() -> Snapshot {
        let mut s = Schema::new();
        let sensor = s.add_object_type("sensor");
        let nn = s.add_relation("nn", sensor, sensor);
        let reading = s.add_numerical_attribute("reading");
        let mut b = HinBuilder::new(s);
        let vs: Vec<_> = (0..6)
            .map(|i| b.add_object(sensor, format!("s{i}")))
            .collect();
        for group in [[0usize, 1, 2], [3, 4, 5]] {
            for &i in &group {
                for &j in &group {
                    if i != j {
                        b.add_link(vs[i], vs[j], nn, 1.0).unwrap();
                    }
                }
            }
        }
        for x in [-5.0, -5.1, -4.9] {
            b.add_numeric(vs[0], reading, x).unwrap();
        }
        for x in [5.0, 5.1, 4.9] {
            b.add_numeric(vs[3], reading, x).unwrap();
        }
        let graph = b.build().unwrap();
        let cfg = GenClusConfig::new(2, vec![reading]).with_seed(7);
        let fit = GenClus::new(cfg).unwrap().fit(&graph).unwrap();
        let bytes = crate::snapshot::to_bytes(&graph, &fit.model);
        Snapshot::from_bytes(&bytes).unwrap()
    }

    fn ok(response: &str) -> Json {
        let v = Json::parse(response).unwrap();
        assert_eq!(
            v.get("ok"),
            Some(&Json::Bool(true)),
            "expected success, got {response}"
        );
        v
    }

    #[test]
    fn membership_and_stats_round_trip() {
        let engine = QueryEngine::new(snapshot(), 1);
        let v = ok(&engine.handle_line(r#"{"id": 1, "op": "membership", "object": "s1"}"#));
        assert_eq!(v.get("id").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("theta").unwrap().as_arr().unwrap().len(), 2);
        let v = ok(&engine.handle_line(r#"{"op": "stats"}"#));
        assert_eq!(v.get("n_objects").unwrap().as_f64(), Some(6.0));
        assert!(v.get("gamma").unwrap().get("nn").is_some());
    }

    #[test]
    fn top_k_ranks_same_cluster_first() {
        let engine = QueryEngine::new(snapshot(), 1);
        let v = ok(&engine.handle_line(
            r#"{"op": "top_k", "object": "s1", "k": 2, "sim": "cosine", "type": "sensor"}"#,
        ));
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        for entry in results {
            let name = entry.as_arr().unwrap()[0].as_str().unwrap();
            assert!(
                ["s0", "s2"].contains(&name),
                "same-cluster sensors must rank first, got {name}"
            );
        }
    }

    #[test]
    fn fold_in_with_missing_readings_lands_in_the_linked_cluster() {
        let engine = QueryEngine::new(snapshot(), 1);
        // A brand-new sensor with no readings, linked into the s3 cluster.
        let v = ok(&engine.handle_line(
            r#"{"op": "fold_in", "links": [["nn","s3",1.0],["nn","s4",1.0]], "k": 2}"#,
        ));
        assert_eq!(v.get("converged"), Some(&Json::Bool(true)));
        let member = ok(&engine.handle_line(r#"{"op": "membership", "object": "s3"}"#));
        assert_eq!(v.get("cluster"), member.get("cluster"));
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        // And one with a reading: cluster follows the evidence.
        let v = ok(&engine.handle_line(r#"{"op": "fold_in", "values": {"reading": [-5.05]}}"#));
        let member0 = ok(&engine.handle_line(r#"{"op": "membership", "object": "s0"}"#));
        assert_eq!(v.get("cluster"), member0.get("cluster"));
    }

    #[test]
    fn errors_are_structured_not_panics() {
        let engine = QueryEngine::new(snapshot(), 1);
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (r#"{"op": "nope"}"#, "unknown op"),
            (r#"{"op": "membership"}"#, "missing string"),
            (r#"{"op": "membership", "object": "ghost"}"#, "ghost"),
            (
                r#"{"op": "top_k", "object": "s0", "sim": "hamming"}"#,
                "unknown similarity",
            ),
            (
                r#"{"op": "top_k", "object": "s0", "type": "router"}"#,
                "unknown object type",
            ),
            (
                r#"{"op": "fold_in", "links": [["nn","ghost",1.0]]}"#,
                "ghost",
            ),
            (
                r#"{"op": "fold_in", "links": [["xx","s0",1.0]]}"#,
                "unknown relation",
            ),
            (
                r#"{"op": "fold_in", "values": {"reading": [1e9999]}}"#,
                "non-finite",
            ),
            (
                r#"{"op": "fold_in", "terms": {"reading": [[0, 1]]}}"#,
                "cannot store",
            ),
            // Ranking fields are validated whenever present, `"k"` or not.
            (
                r#"{"op": "fold_in", "links": [["nn","s0",1.0]], "sim": "hamming"}"#,
                "unknown similarity",
            ),
            // A read-only engine stages nothing, so it must not ack a commit.
            (
                r#"{"op": "fold_in", "links": [["nn","s0",1.0]], "commit": "s9"}"#,
                "read-only",
            ),
        ] {
            let resp = engine.handle_line(line);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} → {resp}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} → {err:?} (wanted {needle:?})");
        }
    }

    #[test]
    fn batches_preserve_order_and_match_serial_at_any_thread_count() {
        let snap_bytes = crate::snapshot::to_bytes(snapshot().graph(), snapshot().model());
        let lines: Vec<String> = (0..40)
            .map(|i| match i % 4 {
                0 => format!(r#"{{"id":{i},"op":"membership","object":"s{}"}}"#, i % 6),
                1 => format!(
                    r#"{{"id":{i},"op":"top_k","object":"s{}","k":3,"sim":"cosine"}}"#,
                    i % 6
                ),
                2 => format!(
                    r#"{{"id":{i},"op":"fold_in","links":[["nn","s{}",1.0]],"values":{{"reading":[{}]}}}}"#,
                    i % 6,
                    if i % 8 == 2 { -5.0 } else { 5.0 }
                ),
                _ => format!(r#"{{"id":{i},"op":"stats"}}"#),
            })
            .collect();
        let serial =
            QueryEngine::new(Snapshot::from_bytes(&snap_bytes).unwrap(), 1).handle_batch(&lines);
        assert_eq!(serial.len(), lines.len());
        for threads in [2, 4] {
            let engine = QueryEngine::new(Snapshot::from_bytes(&snap_bytes).unwrap(), threads);
            let par = engine.handle_batch(&lines);
            assert_eq!(par, serial, "{threads} threads changed responses");
        }
        // Every response echoes its request id, in order.
        for (i, resp) in serial.iter().enumerate() {
            let v = Json::parse(resp).unwrap();
            assert_eq!(v.get("id").unwrap().as_usize(), Some(i));
        }
    }

    #[test]
    fn batches_smaller_than_or_awkwardly_split_across_workers_are_fine() {
        // Regression: chunk = ceil(n / workers) can leave trailing workers
        // with a start index past the end (5 lines on 4 workers → worker 3
        // starts at 6); that must yield empty chunks, not a slice panic.
        let engine = QueryEngine::new(snapshot(), 4);
        for n in 1..=9usize {
            let lines: Vec<String> = (0..n)
                .map(|i| format!(r#"{{"id":{i},"op":"stats"}}"#))
                .collect();
            let responses = engine.handle_batch(&lines);
            assert_eq!(responses.len(), n, "batch of {n} on 4 workers");
            for (i, resp) in responses.iter().enumerate() {
                assert_eq!(
                    Json::parse(resp).unwrap().get("id").unwrap().as_usize(),
                    Some(i)
                );
            }
        }
    }
}

//! Warm-start refresh: re-fitting a served model from its own snapshot.
//!
//! Fold-in (PR 2) freezes `(β, γ)` at serving time, so a long-running
//! process drifts as appended objects accumulate: the components were
//! estimated on the *original* population and the strengths on the
//! original topology. This module closes the fit → serve → grow → re-fit
//! loop:
//!
//! * every fold-in request carrying a `"commit"` field is **staged** —
//!   its inferred `Θ` row is kept and its links/observations accumulate in
//!   a [`GraphDelta`] against the current snapshot graph;
//! * a [`RefreshPolicy`] triggers a refresh automatically after
//!   `max_pending_objects` staged objects or `max_pending_links` staged
//!   links (either `0` disables that trigger), and the `refresh` op
//!   triggers one on demand at any time — including with an **empty**
//!   delta, which makes the refresh a pure warm re-fit (and, from a
//!   converged snapshot, a numerical fixed point — property-tested);
//! * a refresh appends the delta to a copy of the snapshot graph, extends
//!   `Θ` with the staged fold-in rows, and runs
//!   [`GenClus::fit_warm`] — EM seeded from the served `(Θ, β, γ)`,
//!   skipping `InitStrategy` entirely, reusing the cached-log kernel and
//!   the persistent worker pool — then **atomically swaps** the new
//!   snapshot into the engine (requests see either the old model or the
//!   new one, never a half-built state) and optionally persists it
//!   ([`RefreshPolicy::persist_path`]; same schema v2, new checksum);
//! * a failed refresh leaves the engine serving the previous snapshot and
//!   the staged delta intact.
//!
//! Wire protocol additions over [`crate::engine`]:
//!
//! * `{"op":"fold_in", …, "commit":"<name>"}` or
//!   `…, "commit":{"name":"<name>","type":"<object type>"}` — fold the
//!   object in *and* stage it for the next refresh. The object type is
//!   taken from `commit.type` or inferred from the link relations' source
//!   type (an error if the request has no links and no explicit type, or
//!   if the links disagree). The response carries the usual fold-in
//!   fields plus `"committed"`, `"pending_objects"`, `"pending_links"`,
//!   and — when the policy fired — the refresh outcome;
//! * `"in_links":[[rel, source-name, w], …]` on a commit — links
//!   **into** the committed object from pre-existing or staged sources
//!   (the DBLP-style "an old author writes the new paper" direction).
//!   They are staged alongside the commit and appended at refresh as
//!   old-source overflow links (see `genclus_hin::graph`); they do not
//!   influence the commit's own fold-in row (Eq. 10 drives a membership
//!   through *out*-links) but do shape the warm re-fit;
//! * `{"op":"refresh"}` — refresh now, regardless of thresholds. Inline
//!   mode responds with `"objects_added"`, `"links_added"`,
//!   `"outer_iterations"`, `"em_iterations"`, `"n_objects"`, `"n_links"`,
//!   `"persisted"`, `"refreshes"`; background mode responds with
//!   `"started"` / `"in_flight"` (the outcome arrives via
//!   `refresh_status` once the re-fit lands);
//! * `{"op":"refresh_status"}` — refresh observability in both modes:
//!   `"mode"`, `"in_flight"`, `"refreshes"`, the pending and in-flight
//!   object/link counts, and the last outcome (`"last_outcome"` object on
//!   success, `"last_error"` string on failure). With `"wait":true` in
//!   background mode it blocks until any in-flight re-fit lands and swaps
//!   first — the quiesce point scripted clients use;
//!
//! # One refresh path, two modes
//!
//! Every refresh runs the same way. The engine snapshots the staged window
//! plus a compacted copy of the served graph into a [`RefitInput`], hands
//! it to the dedicated [`RefitWorker`] thread, and opens the next staging
//! window; when the re-fit lands, the refreshed snapshot is swapped in
//! atomically between requests — every response is produced under exactly
//! one snapshot, old until the swap, new after. A re-fit that panics is
//! contained on the worker and lands as a failed refresh.
//!
//! [`RefreshPolicy::background`] only decides whether the serving thread
//! waits. Inline mode (the default) waits for the swap
//! ([`RefreshableEngine::finish`] right after the hand-off), so `refresh`
//! and a triggering commit answer with the outcome. Background mode
//! returns at once and keeps serving reads from the old engine for the
//! entire warm-EM wall time; the serving thread polls the worker at the
//! top of every `handle_line`/`handle_batch` and lands the re-fit when it
//! is done.
//!
//! Commits arriving while a background re-fit is in flight neither error
//! nor block: they stage into the **next** delta window, based on the
//! *future* graph ([`GraphDelta::new_after`]), so their ids remain valid
//! after the swap — and they may link to objects of the in-flight window
//! by name. A failed re-fit leaves the old snapshot serving and re-merges
//! the in-flight window with the next one ([`GraphDelta::stack`]), so the
//! staged delta survives intact for a retry.
//!
//! Commit link names — `links` targets and `in_links` sources alike —
//! resolve against the **snapshot ∪ staged** namespace: a commit may
//! reference any served object *or* any object staged earlier in the same
//! refresh window (fold-in for a staged target reads that target's staged
//! `Θ` row). Plain (uncommitted) fold-ins still resolve against the
//! snapshot only — staged objects are not served until the refresh lands.
//! At refresh the pending delta is appended (old-source links extend the
//! graph's overflow segments), the warm re-fit runs on the grown graph —
//! the EM kernels traverse base + overflow bit-identically to a compacted
//! CSR — and the graph is compacted back into a canonical CSR before the
//! new snapshot is serialized.
//!
//! # Durability (commit WAL)
//!
//! An engine opened via [`RefreshableEngine::with_wal`] pairs the staging
//! windows with an on-disk commit log ([`crate::wal`]): every accepted
//! commit is appended and **fsynced before the ack** — a commit whose log
//! append fails is rejected with nothing staged — and a refresh that
//! *persists* its snapshot atomically truncates the log down to the
//! still-staged next window, rebased onto the new snapshot. Startup
//! replays log-after-snapshot, rebuilding the staged delta and each
//! commit's fold-in `Θ` row **bit-identically** (the row is adopted from
//! the log verbatim, never re-derived). A refresh without
//! [`RefreshPolicy::persist_path`] never truncates: the log keeps
//! covering every commit since the snapshot on disk, which is the one
//! recovery will reload. A failed truncation is *not* fatal — the log
//! merely stays longer than needed (recovery skips already-persisted
//! records) — and is surfaced via `refresh_status` as `"wal_error"`
//! alongside the `"wal_records"` count.

use crate::background::{RefitInput, RefitOutput, RefitWorker};
use crate::engine::{QueryCore, QueryEngine};
use crate::error::ServeError;
use crate::foldin::{FoldInEngine, FoldInRequest, FoldInResult};
use crate::json::Json;
use crate::metrics::RefreshSpan;
use crate::request::{Body, Commit, Op, Request};
use crate::session::{route, Lane};
use crate::snapshot::Snapshot;
use crate::wal::{CommitRecord, Wal, WalRecoveryReport};
use genclus_core::{GenClusConfig, GenClusModel};
use genclus_hin::{GraphDelta, HinError, ObjectId, ObjectTypeId, RelationId};
use genclus_stats::MembershipMatrix;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When and how the engine re-fits from its snapshot.
#[derive(Debug, Clone)]
pub struct RefreshPolicy {
    /// Auto-refresh after this many staged (committed) objects; `0`
    /// disables the object trigger.
    pub max_pending_objects: usize,
    /// Auto-refresh after this many staged links; `0` disables the link
    /// trigger.
    pub max_pending_links: usize,
    /// Outer alternations of the warm re-fit (cluster optimization +
    /// strength learning). At least 2 — the outer loop needs one
    /// iteration to measure a `γ` change.
    pub outer_iters: usize,
    /// EM iteration cap per outer alternation.
    pub em_iters: usize,
    /// EM stopping tolerance (max-abs `Θ` change).
    pub em_tol: f64,
    /// Outer stopping tolerance (max-abs `γ` change).
    pub gamma_tol: f64,
    /// Base configuration of the re-fit. The snapshot format does not
    /// record the original fit's hyperparameters (`σ`, floors, Newton
    /// options), so a deployment fitted with non-default values must pass
    /// its fitting config here — otherwise the warm re-fit silently runs
    /// under paper defaults and the model drifts toward a different fixed
    /// point. `K`, the attribute subset, and the `ε` smoothing are always
    /// realigned with the served model (via
    /// [`GenClusConfig::with_warm_start`]), and the iteration knobs above
    /// override the config's, so a stale value in those fields cannot
    /// break a refresh.
    pub base_config: Option<GenClusConfig>,
    /// Where to persist each refreshed snapshot (atomic temp-file +
    /// rename, like [`crate::snapshot::save`]); `None` keeps refreshes
    /// in-memory only.
    pub persist_path: Option<PathBuf>,
    /// Whether `refresh`, or a commit that triggers a refresh, returns
    /// before the re-fit lands. Every re-fit runs on the [`RefitWorker`]
    /// thread; `false` — the default — waits for the swap and answers
    /// with the outcome, `true` keeps serving from the old snapshot until
    /// it lands (see the module docs' *One refresh path, two modes*).
    pub background: bool,
}

impl Default for RefreshPolicy {
    /// Manual-only refresh (no auto triggers), paper-default fit knobs,
    /// no persistence.
    fn default() -> Self {
        Self {
            max_pending_objects: 0,
            max_pending_links: 0,
            outer_iters: 4,
            em_iters: 30,
            em_tol: 1e-4,
            gamma_tol: 1e-4,
            base_config: None,
            persist_path: None,
            background: false,
        }
    }
}

/// What one refresh did.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshOutcome {
    /// Staged objects appended to the network.
    pub objects_added: usize,
    /// Staged links appended to the network.
    pub links_added: usize,
    /// Outer alternations the warm re-fit used.
    pub outer_iterations: usize,
    /// Total EM iterations across all outer alternations.
    pub em_iterations: usize,
    /// Objects of the refreshed snapshot.
    pub n_objects: usize,
    /// Links of the refreshed snapshot.
    pub n_links: usize,
    /// Whether the refreshed snapshot was written to
    /// [`RefreshPolicy::persist_path`].
    pub persisted: bool,
}

/// The staged growth since the last refresh: the delta plus the fold-in
/// `Θ` row of each staged object (in the delta's id order).
struct Pending {
    delta: GraphDelta,
    rows: Vec<Vec<f64>>,
    /// Types of the staged objects, parallel to `rows` (fed to
    /// [`FoldInEngine::with_staged`] so later commits can link to them).
    types: Vec<ObjectTypeId>,
    /// Staged name → index into `rows`/`types`, for O(1) duplicate-commit
    /// rejection *and* staged-target resolution (a linear scan of the
    /// delta's names would make filling a large refresh window quadratic).
    names: std::collections::HashMap<String, u32>,
    /// The WAL payload of each staged commit, parallel to `rows` (empty
    /// when the engine runs without a WAL). This is the window's log
    /// *segment*: when a refresh persists, [`Wal::truncate`] keeps exactly
    /// the still-staged windows' payloads verbatim.
    records: Vec<Vec<u8>>,
}

impl Pending {
    /// An empty window staging into `delta`.
    fn new(delta: GraphDelta) -> Self {
        Self {
            delta,
            rows: Vec::new(),
            types: Vec::new(),
            names: std::collections::HashMap::new(),
            records: Vec::new(),
        }
    }

    /// Stages one object at `slot`: the delta's new object with its
    /// out-links, `in_links` and observations, then its fold-in row, type
    /// and name. Stops at the first link or observation the delta rejects.
    fn stage(
        &mut self,
        slot: u32,
        object_type: ObjectTypeId,
        name: &str,
        req: &FoldInRequest,
        in_links: &[(RelationId, ObjectId, f64)],
        theta: Vec<f64>,
    ) -> Result<ObjectId, HinError> {
        let v = self.delta.add_object(object_type, name);
        for &(r, target, w) in &req.links {
            self.delta.add_link(v, target, r, w)?;
        }
        for &(r, source, w) in in_links {
            self.delta.add_link(source, v, r, w)?;
        }
        for (a, bag) in &req.terms {
            for &(term, count) in bag {
                self.delta.add_term_count(v, *a, term, count)?;
            }
        }
        for (a, values) in &req.values {
            for &x in values {
                self.delta.add_numeric(v, *a, x)?;
            }
        }
        self.rows.push(theta);
        self.types.push(object_type);
        self.names.insert(name.to_string(), slot);
        Ok(v)
    }
}

/// A [`QueryEngine`] that can grow: stages committed fold-ins and re-fits
/// itself from its snapshot, warm-started, under a [`RefreshPolicy`].
///
/// Read-only requests delegate to the inner engine (batched across the
/// worker pool); the requests that [take the lane](Request::takes_lane)
/// (`commit`ed fold-ins, `refresh`, `refresh_status`, `stats`) are applied
/// in stream order, so a batch's responses reflect a single consistent
/// interleaving.
pub struct RefreshableEngine {
    engine: QueryEngine,
    policy: RefreshPolicy,
    /// The staging window commits land in. In background mode, while a
    /// re-fit is in flight this is the *next* window, based on the future
    /// graph (see [`Self::start_background_refresh`]).
    pending: Pending,
    refreshes: usize,
    /// Runs every re-fit, inline or background; its thread starts with the
    /// first one.
    worker: RefitWorker,
    /// The window the worker is re-fitting.
    inflight: Option<InFlight>,
    /// Outcome of the most recent refresh attempt, inline or background —
    /// what `refresh_status` reports.
    last_refresh: Option<Result<RefreshOutcome, String>>,
    /// The commit log ([`Self::with_wal`]); `None` runs without
    /// durability, exactly as before.
    wal: Option<Wal>,
    /// The most recent WAL truncation failure (non-fatal — see the module
    /// docs' *Durability* section); cleared by the next successful
    /// truncation.
    wal_error: Option<String>,
}

/// A window handed to the re-fit worker. It is kept for name resolution
/// (its objects stay addressable by commits), for re-merging on a failed
/// re-fit, and for the metrics span.
struct InFlight {
    window: Pending,
    /// When the window was handed over.
    started: Instant,
    /// What fired the re-fit: `"manual"`, `"objects"` or `"links"`.
    trigger: &'static str,
}

impl RefreshableEngine {
    /// Wraps `snapshot` in a refreshable engine with `threads` workers.
    pub fn new(snapshot: Snapshot, threads: usize, policy: RefreshPolicy) -> Self {
        let engine = QueryEngine::new(snapshot, threads);
        let pending = Pending::new(GraphDelta::new(engine.graph()));
        Self {
            engine,
            policy,
            pending,
            refreshes: 0,
            worker: RefitWorker::new(),
            inflight: None,
            last_refresh: None,
            wal: None,
            wal_error: None,
        }
    }

    /// [`Self::new`] plus a commit write-ahead log at `wal_path`: opens
    /// (or creates) the log, recovers it against `snapshot` — replaying
    /// logged commits into the staging window bit-identically, skipping
    /// records the snapshot already absorbed, truncating a torn tail —
    /// and from then on appends + fsyncs every accepted commit before the
    /// ack. Returns the engine and a [`WalRecoveryReport`] describing
    /// what recovery found.
    ///
    /// # Errors
    /// [`ServeError::Wal`] when the log does not belong to `snapshot`
    /// (wrong checksum or lineage, or the log is *ahead* of the snapshot)
    /// or a replayed record fails validation — corruption past the
    /// checksums, which a well-formed writer cannot produce.
    pub fn with_wal(
        snapshot: Snapshot,
        threads: usize,
        policy: RefreshPolicy,
        wal_path: &Path,
    ) -> Result<(Self, WalRecoveryReport), ServeError> {
        let mut engine = Self::new(snapshot, threads, policy);
        let base_checksum = engine.engine.snapshot().header().checksum;
        let (mut wal, replay) =
            Wal::open_or_create(wal_path, base_checksum, engine.engine.graph())?;
        let replayed = replay.records.len();
        for (record, payload) in replay.records.into_iter().zip(replay.payloads) {
            engine.replay_record(record, payload)?;
        }
        // Canonicalize the log when recovery found it out of step with the
        // snapshot: records already absorbed (crash between a persisted
        // refresh and its truncation), or a header bound to an ancestor
        // snapshot. Rewriting now means the next recovery is exact.
        let n = engine.engine.graph().n_objects();
        let rewritten =
            replay.skipped > 0 || wal.base_objects() != n || wal.base_checksum() != base_checksum;
        if rewritten {
            wal.truncate(base_checksum, n, &engine.pending.records)?;
        }
        engine.wal = Some(wal);
        // Surface what recovery found through the metrics registry too —
        // after a crash restart, `{"op":"metrics"}` reports the replay.
        {
            let m = engine.engine.metrics();
            m.record_wal_recovery(
                replayed as u64,
                replay.skipped as u64,
                replay.torn_bytes as u64,
            );
            m.set_wal_records(engine.wal.as_ref().map_or(0, Wal::n_records) as u64);
            m.set_pending(
                engine.pending_objects() as u64,
                engine.pending_links() as u64,
            );
        }
        Ok((
            engine,
            WalRecoveryReport {
                replayed,
                skipped: replay.skipped,
                torn_bytes: replay.torn_bytes,
                rewritten,
            },
        ))
    }

    /// Rebuilds one logged commit's staged state: validates it against
    /// the current window (sequential absolute id, fresh name, known
    /// type, a sane `Θ` row), stages its delta mutations, and adopts its
    /// `Θ` row verbatim — fold-in is **not** re-run, which is what makes
    /// recovery bit-identical to the uninterrupted run.
    fn replay_record(&mut self, record: CommitRecord, payload: Vec<u8>) -> Result<(), ServeError> {
        let CommitRecord {
            object,
            object_type,
            name,
            links,
            in_links,
            terms,
            values,
            theta,
        } = record;
        let bad = |what: String| {
            ServeError::Wal(format!("cannot replay the logged commit {name:?}: {what}"))
        };
        let staged_index = Self::staged_slot(self.pending.rows.len())?;
        let graph = self.engine.graph();
        let expected = graph.n_objects() + self.pending.rows.len();
        if object.index() != expected {
            return Err(bad(format!(
                "it carries object id {} where {expected} was expected",
                object.index()
            )));
        }
        if graph.object_by_name(&name).is_some() || self.pending.names.contains_key(&name) {
            return Err(bad("an object of that name already exists".into()));
        }
        if object_type.index() >= graph.schema().n_object_types() {
            return Err(bad(format!("unknown object type {object_type}")));
        }
        let k = self.engine.snapshot().model().n_clusters();
        if theta.len() != k || theta.iter().any(|x| !x.is_finite()) {
            return Err(bad(format!(
                "its Θ row has {} entries (need {k}, all finite)",
                theta.len()
            )));
        }
        let req = FoldInRequest {
            links,
            terms,
            values,
        };
        let v = self
            .pending
            .stage(staged_index, object_type, &name, &req, &in_links, theta)
            .map_err(|e| bad(e.to_string()))?;
        debug_assert_eq!(v, object, "sequential-id check above");
        self.pending.records.push(payload);
        Ok(())
    }

    /// The current (most recently swapped-in) read engine.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The policy in force.
    pub fn policy(&self) -> &RefreshPolicy {
        &self.policy
    }

    /// Staged objects awaiting the next refresh (the current staging
    /// window; objects of an in-flight re-fit are counted by
    /// [`Self::in_flight_objects`] instead).
    pub fn pending_objects(&self) -> usize {
        self.pending.delta.n_new_objects()
    }

    /// Staged links awaiting the next refresh.
    pub fn pending_links(&self) -> usize {
        self.pending.delta.n_new_links()
    }

    /// Refreshes completed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Whether a background re-fit is currently running.
    pub fn refresh_in_flight(&self) -> bool {
        self.worker.in_flight()
    }

    /// The window currently being re-fitted, if any.
    fn inflight_window(&self) -> Option<&Pending> {
        self.inflight.as_ref().map(|f| &f.window)
    }

    /// Objects of the window currently being re-fitted (0 when none).
    pub fn in_flight_objects(&self) -> usize {
        self.inflight_window()
            .map_or(0, |w| w.delta.n_new_objects())
    }

    /// Links of the window currently being re-fitted (0 when none).
    pub fn in_flight_links(&self) -> usize {
        self.inflight_window().map_or(0, |w| w.delta.n_new_links())
    }

    /// The most recent refresh attempt's outcome (inline or background):
    /// `Ok` with the bookkeeping, or `Err` with the failure message.
    pub fn last_refresh(&self) -> Option<&Result<RefreshOutcome, String>> {
        self.last_refresh.as_ref()
    }

    /// Records currently in the commit log; `None` when the engine runs
    /// without a WAL.
    pub fn wal_records(&self) -> Option<usize> {
        self.wal.as_ref().map(Wal::n_records)
    }

    /// The most recent (non-fatal) WAL truncation failure, if any.
    pub fn wal_error(&self) -> Option<&str> {
        self.wal_error.as_deref()
    }

    /// Test seam — see [`Wal::set_kill_hook`].
    ///
    /// # Panics
    /// Panics when the engine has no WAL.
    #[doc(hidden)]
    pub fn set_wal_kill_hook(
        &mut self,
        hook: impl Fn(&'static str) -> bool + Send + Sync + 'static,
    ) {
        self.wal
            .as_mut()
            // lint: allow(no-panic-in-serve) -- #[doc(hidden)] fault-injection seam; the documented contract is "panics when the engine has no WAL"
            .expect("kill hooks require a WAL")
            .set_kill_hook(hook);
    }

    /// A byte-exact serialization of the staged state: every window's
    /// objects (names, types), links, observations, and fold-in `Θ` rows
    /// as IEEE-754 bit patterns, in id order — the in-flight window (if
    /// any) first, then the current one. Two engines staging the same
    /// commits produce identical bytes; this is what the crash-recovery
    /// property tests compare (recovered == uninterrupted, bit for bit).
    /// Note recovery rebuilds a *single* window, so compare after
    /// [`Self::finish`] has drained any in-flight re-fit.
    pub fn staged_state_bytes(&self) -> Vec<u8> {
        use genclus_stats::bytesio::{put_f64, put_f64_slice, put_str, put_u64};
        fn window(out: &mut Vec<u8>, w: &Pending) {
            put_u64(out, w.delta.n_new_objects() as u64);
            for name in w.delta.new_object_names() {
                put_str(out, name);
            }
            for t in w.delta.new_object_types() {
                put_u64(out, t.index() as u64);
            }
            put_u64(out, w.delta.n_new_links() as u64);
            for (s, t, r, weight) in w.delta.staged_links() {
                put_u64(out, s.index() as u64);
                put_u64(out, t.index() as u64);
                put_u64(out, r.index() as u64);
                put_f64(out, weight);
            }
            for (v, a, term, count) in w.delta.staged_term_counts() {
                put_u64(out, v.index() as u64);
                put_u64(out, a.index() as u64);
                put_u64(out, u64::from(term));
                put_f64(out, count);
            }
            for (v, a, x) in w.delta.staged_numeric_obs() {
                put_u64(out, v.index() as u64);
                put_u64(out, a.index() as u64);
                put_f64(out, x);
            }
            for row in &w.rows {
                put_f64_slice(out, row);
            }
        }
        let mut out = Vec::new();
        if let Some(w) = self.inflight_window() {
            window(&mut out, w);
        }
        window(&mut out, &self.pending);
        out
    }

    /// Test seam — see [`RefitWorker::set_refit_hook`]. Every re-fit runs
    /// on the worker, so the hook sees inline refreshes too.
    #[doc(hidden)]
    pub fn set_background_refit_hook(&mut self, hook: impl Fn() + Send + Sync + 'static) {
        self.worker.set_refit_hook(hook);
    }

    /// Stages one new object (programmatic equivalent of a `commit`ed
    /// fold-in): folds it in against the current snapshot, records its
    /// links/observations in the pending delta, and returns the inferred
    /// row. Does **not** auto-trigger a refresh — wire commits do that via
    /// the policy; library callers decide themselves.
    ///
    /// Link targets in `req` may name staged objects of the current
    /// refresh window (ids `graph.n_objects()..`); see
    /// [`Self::commit_with_links`] for links *into* the new object.
    pub fn commit(
        &mut self,
        name: &str,
        object_type: ObjectTypeId,
        req: &FoldInRequest,
    ) -> Result<FoldInResult, ServeError> {
        self.commit_with_links(name, object_type, req, &[])
    }

    /// [`Self::commit`] plus `in_links`: links `(relation, source, weight)`
    /// **into** the new object from pre-existing or staged sources — the
    /// old → new direction the overflow adjacency exists for. They are
    /// staged with the commit (counted by [`Self::pending_links`]) and
    /// appended at refresh; the fold-in row is unaffected (Eq. 10 reads
    /// out-links only).
    pub fn commit_with_links(
        &mut self,
        name: &str,
        object_type: ObjectTypeId,
        req: &FoldInRequest,
        in_links: &[(genclus_hin::RelationId, genclus_hin::ObjectId, f64)],
    ) -> Result<FoldInResult, ServeError> {
        // The staged-id space is u32 (the names map and `ObjectId` alike);
        // checked up front so staging below is all-or-nothing.
        let staged_index = Self::staged_slot(self.pending.rows.len())?;
        let graph = self.engine.graph();
        if graph.object_by_name(name).is_some() {
            return Err(ServeError::BadRequest(format!(
                "object {name:?} already exists in the snapshot"
            )));
        }
        if self.pending.names.contains_key(name) {
            return Err(ServeError::BadRequest(format!(
                "object {name:?} is already staged for the next refresh"
            )));
        }
        if self
            .inflight_window()
            .is_some_and(|w| w.names.contains_key(name))
        {
            return Err(ServeError::BadRequest(format!(
                "object {name:?} is already being refreshed into the next snapshot"
            )));
        }
        if object_type.index() >= graph.schema().n_object_types() {
            return Err(ServeError::BadRequest(format!(
                "unknown object type {object_type}"
            )));
        }
        // Endpoint-type checks up front so staging below is all-or-nothing
        // (`GraphDelta::add_link` would reject mid-way otherwise). The
        // addressable id space is snapshot ∪ in-flight window ∪ current
        // window, in that id order.
        let inflight_types: &[ObjectTypeId] = self.inflight_window().map_or(&[], |w| &w.types);
        let inflight_len = inflight_types.len();
        let n_known = graph.n_objects() + inflight_len + self.pending.rows.len();
        let type_of = |v: genclus_hin::ObjectId| {
            if v.index() < graph.n_objects() {
                graph.object_type(v)
            } else if v.index() < graph.n_objects() + inflight_len {
                inflight_types[v.index() - graph.n_objects()]
            } else {
                self.pending.types[v.index() - graph.n_objects() - inflight_len]
            }
        };
        for &(r, _, _) in &req.links {
            if r.index() >= graph.schema().n_relations() {
                return Err(genclus_hin::HinError::UnknownRelation(r).into());
            }
            let def = graph.schema().relation(r);
            if def.source != object_type {
                return Err(ServeError::BadRequest(format!(
                    "relation {:?} does not originate at type {:?}",
                    def.name,
                    graph.schema().object_type_name(object_type)
                )));
            }
        }
        for &(r, source, w) in in_links {
            if r.index() >= graph.schema().n_relations() {
                return Err(genclus_hin::HinError::UnknownRelation(r).into());
            }
            if source.index() >= n_known {
                return Err(genclus_hin::HinError::UnknownObject(source).into());
            }
            if !(w > 0.0 && w.is_finite()) {
                return Err(genclus_hin::HinError::InvalidWeight { weight: w }.into());
            }
            let def = graph.schema().relation(r);
            if def.target != object_type {
                return Err(ServeError::BadRequest(format!(
                    "relation {:?} does not target type {:?}",
                    def.name,
                    graph.schema().object_type_name(object_type)
                )));
            }
            if type_of(source) != def.source {
                return Err(ServeError::BadRequest(format!(
                    "in_link source {source} has the wrong type for relation {:?}",
                    def.name
                )));
            }
        }
        // `assign` validates everything else (targets — snapshot or
        // staged, weights, attribute kinds/vocab, finiteness, purpose
        // membership) before we mutate. The staged view covers the
        // in-flight window too: their rows continue the graph's id space
        // first, then the current window's.
        let combined: (Vec<Vec<f64>>, Vec<ObjectTypeId>);
        let (staged_rows, staged_types): (&[Vec<f64>], &[ObjectTypeId]) =
            match self.inflight_window() {
                Some(w) => {
                    combined = (
                        [w.rows.as_slice(), self.pending.rows.as_slice()].concat(),
                        [w.types.as_slice(), self.pending.types.as_slice()].concat(),
                    );
                    (&combined.0, &combined.1)
                }
                None => (&self.pending.rows, &self.pending.types),
            };
        let folded = FoldInEngine::new(self.engine.snapshot().model(), graph)
            .with_staged(staged_rows, staged_types)
            .assign(req)?;

        // Durability point: the commit reaches the log — and the disk —
        // before anything is staged, so an append failure rejects the
        // commit with the engine untouched, and a crash after this line
        // replays it. `n_known` is the absolute id the object will own
        // once every window ahead of it lands.
        let wal_payload = match &mut self.wal {
            Some(wal) => {
                let record = CommitRecord {
                    object: genclus_hin::ObjectId::from_index(n_known),
                    object_type,
                    name: name.to_string(),
                    links: req.links.clone(),
                    in_links: in_links.to_vec(),
                    terms: req.terms.clone(),
                    values: req.values.clone(),
                    theta: folded.theta.clone(),
                };
                let payload = record.to_bytes();
                let append_started = self.engine.metrics().timer();
                wal.append(&payload)?;
                if let Some(t) = append_started {
                    self.engine.metrics().record_wal_append(t.elapsed());
                }
                Some(payload)
            }
            None => None,
        };

        // The `.expect` below is deliberate: it runs *after* the WAL append
        // (the durability point). `assign` and the checks above validated
        // every link/term/value before the record hit disk, so a failure
        // here is a staging/validation desync — returning an error would
        // leave a logged commit that was never staged, and stopping loudly
        // beats replaying that divergence forever.
        self.pending
            .stage(
                staged_index,
                object_type,
                name,
                req,
                in_links,
                folded.theta.clone(),
            )
            // lint: allow(no-panic-in-serve) -- post-durability-point invariant: the commit was validated before the WAL append; erroring out now would desync log and window
            .expect("the commit was validated before staging");
        if let Some(payload) = wal_payload {
            self.pending.records.push(payload);
        }
        let metrics = self.engine.metrics();
        metrics.set_pending(self.pending_objects() as u64, self.pending_links() as u64);
        if let Some(n) = self.wal_records() {
            metrics.set_wal_records(n as u64);
        }
        Ok(folded)
    }

    /// The staged-object slot for the next commit, as the `u32` the
    /// staged-id space uses throughout (`ObjectId`, the names map). A
    /// window can in principle outgrow it on a 64-bit host; the overflow
    /// must surface as a structured request error, not an `as`-cast
    /// truncation that silently aliases two staged objects.
    fn staged_slot(n_staged: usize) -> Result<u32, ServeError> {
        u32::try_from(n_staged).map_err(|_| {
            ServeError::BadRequest(format!(
                "refresh window already holds {n_staged} staged objects — the staged-id \
                 space is u32; refresh before committing more"
            ))
        })
    }

    /// Resolves a commit link name against the snapshot ∪ staged
    /// namespace: served objects win (staged duplicates of served names are
    /// rejected at commit time anyway), then objects of the in-flight
    /// refresh window (background mode — they will own the ids directly
    /// past the snapshot once the swap lands), then objects staged in the
    /// current window, addressed past both.
    fn resolve_committed(&self, name: &str) -> Result<genclus_hin::ObjectId, ServeError> {
        let graph = self.engine.graph();
        if let Some(v) = graph.object_by_name(name) {
            return Ok(v);
        }
        let mut base = graph.n_objects();
        for w in self.inflight_window().into_iter().chain([&self.pending]) {
            if let Some(&i) = w.names.get(name) {
                return Ok(genclus_hin::ObjectId::from_index(base + i as usize));
            }
            base += w.rows.len();
        }
        Err(genclus_hin::HinError::UnknownName(name.to_string()).into())
    }

    /// Which policy threshold the current window has crossed, or `None`
    /// when no auto-refresh is due. The object threshold wins when both
    /// are crossed; the result names the metrics span's `trigger`.
    fn due_trigger(&self) -> Option<&'static str> {
        let p = &self.policy;
        if p.max_pending_objects > 0 && self.pending_objects() >= p.max_pending_objects {
            Some("objects")
        } else if p.max_pending_links > 0 && self.pending_links() >= p.max_pending_links {
            Some("links")
        } else {
            None
        }
    }

    /// Staleness pre-check: the pending delta must have been staged
    /// against exactly this snapshot. `append` would catch the mismatch
    /// too, but only after the graph clone — and this invariant breaking
    /// means a bug in the swap logic, worth its own message.
    fn check_window_freshness(&self) -> Result<(), ServeError> {
        let n = self.engine.graph().n_objects();
        if self.pending.delta.base_objects() != n {
            return Err(ServeError::Refresh(format!(
                "pending delta was staged against a {}-object snapshot but the engine serves {}",
                self.pending.delta.base_objects(),
                n
            )));
        }
        Ok(())
    }

    /// Packages the current window + served snapshot into the owned input
    /// [`run_refit`](crate::background::run_refit) consumes — the warm
    /// seed (`Θ` extended with the staged fold-in rows), the resolved
    /// config, and cloned graph/delta.
    fn build_refit_input(&self) -> RefitInput {
        let snapshot = self.engine.snapshot();
        let model = snapshot.model();
        let warm = GenClusModel {
            theta: warm_seed_theta(&model.theta, &self.pending.rows),
            gamma: model.gamma.clone(),
            components: model.components.clone(),
            attributes: model.attributes.clone(),
            theta_smoothing: model.theta_smoothing,
        };
        let mut cfg = self
            .policy
            .base_config
            .clone()
            .unwrap_or_else(|| GenClusConfig::new(model.n_clusters(), model.attributes.clone()))
            .with_warm_start(&warm);
        cfg.outer_iters = self.policy.outer_iters.max(2);
        cfg.em_iters = self.policy.em_iters;
        cfg.em_tol = self.policy.em_tol;
        cfg.gamma_tol = self.policy.gamma_tol;
        cfg.threads = self.engine.threads();
        RefitInput {
            graph: snapshot.graph().clone(),
            delta: self.pending.delta.clone(),
            warm,
            cfg,
            persist_path: self.policy.persist_path.clone(),
            threads: self.engine.threads(),
            metrics: self.engine.metrics().clone(),
        }
    }

    /// Applies the pending delta (possibly empty), warm-refits, and waits
    /// for the swap: [`Self::start_background_refresh`] followed by the
    /// landing [`Self::finish`] performs. This is what the `refresh` op and
    /// a triggering commit run in inline mode. It errors when a background
    /// re-fit is already in flight, since two re-fits of one base snapshot
    /// cannot both land.
    ///
    /// On success the refreshed snapshot replaces the engine's atomically
    /// (and is persisted first if the policy asks for it); on error the
    /// engine keeps serving the previous snapshot and the pending delta is
    /// untouched.
    pub fn refresh(&mut self) -> Result<RefreshOutcome, ServeError> {
        self.refresh_now("manual")
    }

    fn refresh_now(&mut self, trigger: &'static str) -> Result<RefreshOutcome, ServeError> {
        if self.refresh_in_flight() {
            return Err(ServeError::Refresh(
                "a background re-fit is already in flight; wait for it via refresh_status".into(),
            ));
        }
        if let Err(e) = self.start_refit(trigger) {
            // A window that cannot be handed off is a failed refresh.
            self.last_refresh = Some(Err(e.to_string()));
            return Err(e);
        }
        match self.worker.join() {
            Some(result) => self.land(result),
            None => Err(ServeError::Refresh("the re-fit did not start".into())),
        }
    }

    /// Truncates the commit log down to the still-staged window after a
    /// refresh — but only when the refreshed snapshot was *persisted*:
    /// until it reaches disk, the log is the only durable record of the
    /// commits it absorbed, and recovery reloads the old on-disk snapshot
    /// plus the full log. A truncation failure is non-fatal (the log
    /// merely stays longer than needed; recovery skips absorbed records)
    /// and is surfaced through [`Self::wal_error`] / `refresh_status`.
    fn truncate_wal_after_refresh(&mut self, persisted: bool) {
        if !persisted {
            return;
        }
        let base_checksum = self.engine.snapshot().header().checksum;
        let n = self.engine.graph().n_objects();
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let result = wal.truncate(base_checksum, n, &self.pending.records);
        self.wal_error = result.err().map(|e| e.to_string());
        let metrics = self.engine.metrics();
        metrics.record_wal_truncation(self.wal_error.clone());
        metrics.set_wal_records(self.wal.as_ref().map_or(0, Wal::n_records) as u64);
    }

    /// Hands the current window to the re-fit worker and opens the next
    /// one; reads keep answering from the old engine until the swap.
    /// `Ok(false)` when a re-fit is already in flight (the window simply
    /// keeps accumulating — the landing re-checks the policy).
    ///
    /// # Errors
    /// [`ServeError::Refresh`] when the window fails the staleness check;
    /// nothing is staged or lost.
    pub fn start_background_refresh(&mut self) -> Result<bool, ServeError> {
        self.start_refit("manual")
    }

    fn start_refit(&mut self, trigger: &'static str) -> Result<bool, ServeError> {
        if self.refresh_in_flight() {
            return Ok(false);
        }
        self.check_window_freshness()?;
        let input = self.build_refit_input();
        // The next window is based on the *future* graph (the served one
        // plus this window's objects), so everything staged there stays
        // valid verbatim once the refreshed snapshot swaps in.
        let next = Pending::new(GraphDelta::new_after(
            self.engine.graph(),
            &self.pending.delta,
        )?);
        let window = std::mem::replace(&mut self.pending, next);
        // Clock before the handoff: the span's wall time must cover the
        // worker's own refit timer, which starts ticking on submit.
        self.inflight = Some(InFlight {
            window,
            started: Instant::now(),
            trigger,
        });
        self.worker.start(input);
        let metrics = self.engine.metrics();
        metrics.set_refresh_in_flight(true);
        metrics.set_pending(self.pending_objects() as u64, self.pending_links() as u64);
        Ok(true)
    }

    /// Non-blocking completion check: lands a finished re-fit (snapshot
    /// swap) if one is ready, otherwise returns immediately.
    /// `handle_line`/`handle_batch` call it first, so the swap happens
    /// between requests, never under one; the TCP front-end also calls it
    /// from idle connection ticks so a finished re-fit is published
    /// promptly even when no mutations arrive.
    pub fn poll_refresh(&mut self) {
        if let Some(result) = self.worker.poll() {
            let _ = self.land(result);
        }
    }

    /// Blocks until any in-flight re-fit lands (swapping it in, or
    /// restoring the window on failure). A chained re-fit started by the
    /// landing is waited out too.
    pub fn finish(&mut self) {
        while let Some(result) = self.worker.join() {
            let _ = self.land(result);
        }
    }

    /// Lands one finished re-fit and records its span: swap on success
    /// (then start the next window's re-fit if it is already due), merge
    /// the windows back together on failure. Returns the refresh's result.
    fn land(
        &mut self,
        result: Result<RefitOutput, ServeError>,
    ) -> Result<RefreshOutcome, ServeError> {
        let Some(inflight) = self.inflight.take() else {
            return Err(ServeError::Refresh(
                "a re-fit landed without a window".into(),
            ));
        };
        let staged_objects = inflight.window.delta.n_new_objects() as u64;
        let staged_links = inflight.window.delta.n_new_links() as u64;
        let (result, refit_seconds) = match result {
            Ok(RefitOutput {
                engine,
                outcome,
                seconds,
            }) => {
                self.engine = engine;
                debug_assert_eq!(
                    self.pending.delta.base_objects(),
                    self.engine.graph().n_objects(),
                    "the next window was staged against exactly this graph"
                );
                self.refreshes += 1;
                // The in-flight window's log segment is spent (its commits
                // are in the new snapshot); the next window's records are
                // what the rebased log keeps.
                self.truncate_wal_after_refresh(outcome.persisted);
                (Ok(outcome), seconds)
            }
            Err(e) => {
                self.restore(inflight.window);
                (Err(e), 0.0)
            }
        };
        let outcome = result.as_ref().ok();
        let metrics = self.engine.metrics().clone();
        metrics.record_refresh_span(RefreshSpan {
            mode: self.mode(),
            trigger: inflight.trigger,
            staged_objects,
            staged_links,
            outer_iterations: outcome.map_or(0, |o| o.outer_iterations as u64),
            em_iterations: outcome.map_or(0, |o| o.em_iterations as u64),
            refit_seconds,
            // Trigger → swap, as the client experiences it: the hand-off,
            // the re-fit, and (in background mode) the poll delay.
            wall_seconds: inflight.started.elapsed().as_secs_f64(),
            persisted: outcome.is_some_and(|o| o.persisted),
            ok: result.is_ok(),
            error: result.as_ref().err().map(ToString::to_string),
        });
        metrics.set_refresh_in_flight(false);
        metrics.set_pending(self.pending_objects() as u64, self.pending_links() as u64);
        self.last_refresh = Some(match &result {
            Ok(outcome) => Ok(outcome.clone()),
            Err(e) => Err(e.to_string()),
        });
        // The next window may have crossed the thresholds while the re-fit
        // ran; chain immediately rather than waiting for the next commit.
        // A chained-*start* failure must not overwrite the landed
        // refresh's outcome — the swap DID succeed, and `refresh_status`
        // must say so; the un-started window stays pending, so the failure
        // resurfaces on the next trigger or explicit refresh.
        if result.is_ok() {
            if let Some(trigger) = self.due_trigger() {
                let _ = self.start_refit(trigger);
            }
        }
        result
    }

    /// The failure path of a re-fit: the old snapshot keeps serving, and
    /// the in-flight window is merged with the next one so the staged
    /// delta survives intact for a retry (ids line up by construction —
    /// the next window was staged on the future base).
    fn restore(&mut self, window: Pending) {
        let next = std::mem::replace(&mut self.pending, window);
        let offset = u32::try_from(self.pending.rows.len())
            // lint: allow(no-panic-in-serve) -- every staged id passed the u32 staged_slot bound at commit time, so the window length fits
            .expect("window sizes passed staged_slot at commit time");
        self.pending
            .delta
            .stack(next.delta)
            // lint: allow(no-panic-in-serve) -- failure-retry merge of two windows this engine itself staged back-to-back; a mismatch is unrecoverable state desync
            .expect("the next window was staged directly on top");
        self.pending.rows.extend(next.rows);
        self.pending.types.extend(next.types);
        for (name, i) in next.names {
            self.pending.names.insert(name, offset + i);
        }
        // Log segments merge exactly like the windows: the in-flight
        // window's records come first (lower absolute ids), matching the
        // order they already hold on disk.
        self.pending.records.extend(next.records);
    }

    /// One request line → one response line, commit/refresh aware: a
    /// batch of one ([`Self::handle_batch`]).
    pub fn handle_line(&mut self, line: &str) -> String {
        self.handle_batch(&[line.to_owned()])
            .pop()
            .unwrap_or_default()
    }

    /// Handles a batch, preserving order, through the router every
    /// session uses ([`crate::session`]): every line is parsed on the worker
    /// pool, and the reads are answered there too, from the engine serving
    /// when the batch starts; the lane requests then run here in stream
    /// order, and a read behind a lane request that swapped the engine is
    /// answered again.
    pub fn handle_batch(&mut self, lines: &[String]) -> Vec<String> {
        let metrics = self.engine.metrics().clone();
        let mut responses = Vec::with_capacity(lines.len());
        route(self, &metrics, lines, |response| responses.push(response));
        responses
    }

    /// The inner engine's `stats` body extended with the WAL state only
    /// this layer knows — `wal_records` / `wal_error` used to be visible
    /// through `refresh_status` alone, which made the one-stop `stats`
    /// view silently incomplete on durable deployments.
    fn op_stats(&self) -> Result<Body, ServeError> {
        let mut fields = self.engine.core().op_stats()?;
        self.push_wal_fields(&mut fields);
        Ok(fields)
    }

    /// `wal_records` and the last truncation's `wal_error`, when present.
    fn push_wal_fields(&self, fields: &mut Body) {
        if let Some(n) = self.wal_records() {
            fields.push(("wal_records", Json::Num(n as f64)));
        }
        if let Some(e) = self.wal_error() {
            fields.push(("wal_error", Json::str(e.to_string())));
        }
    }

    /// `"inline"` or `"background"`, per [`RefreshPolicy::background`].
    fn mode(&self) -> &'static str {
        if self.policy.background {
            "background"
        } else {
            "inline"
        }
    }

    fn outcome_pairs(outcome: &RefreshOutcome) -> Body {
        vec![
            ("objects_added", Json::Num(outcome.objects_added as f64)),
            ("links_added", Json::Num(outcome.links_added as f64)),
            (
                "outer_iterations",
                Json::Num(outcome.outer_iterations as f64),
            ),
            ("em_iterations", Json::Num(outcome.em_iterations as f64)),
            ("n_objects", Json::Num(outcome.n_objects as f64)),
            ("n_links", Json::Num(outcome.n_links as f64)),
            ("persisted", Json::Bool(outcome.persisted)),
        ]
    }

    /// What an inline refresh reports: `"refreshed":true`, the outcome,
    /// and the refresh count.
    fn refreshed_fields(&self, outcome: &RefreshOutcome) -> Body {
        let mut fields = vec![("refreshed", Json::Bool(true))];
        fields.extend(Self::outcome_pairs(outcome));
        fields.push(("refreshes", Json::Num(self.refreshes as f64)));
        fields
    }

    fn op_refresh(&mut self) -> Result<Body, ServeError> {
        if !self.policy.background {
            let outcome = self.refresh()?;
            return Ok(self.refreshed_fields(&outcome));
        }
        // Background mode: kick the re-fit off and return immediately — the
        // outcome arrives via `refresh_status` once it lands.
        // `started:false` means one was already in flight.
        let started = self.start_background_refresh()?;
        Ok(vec![
            ("refreshed", Json::Bool(false)),
            ("started", Json::Bool(started)),
            ("in_flight", Json::Bool(true)),
            ("refreshes", Json::Num(self.refreshes as f64)),
            ("pending_objects", Json::Num(self.pending_objects() as f64)),
            ("pending_links", Json::Num(self.pending_links() as f64)),
        ])
    }

    fn op_refresh_status(&mut self, wait: bool) -> Result<Body, ServeError> {
        if wait {
            self.finish();
        }
        let mut fields = vec![
            ("mode", Json::str(self.mode())),
            ("in_flight", Json::Bool(self.refresh_in_flight())),
            ("refreshes", Json::Num(self.refreshes as f64)),
            ("pending_objects", Json::Num(self.pending_objects() as f64)),
            ("pending_links", Json::Num(self.pending_links() as f64)),
            (
                "in_flight_objects",
                Json::Num(self.in_flight_objects() as f64),
            ),
            ("in_flight_links", Json::Num(self.in_flight_links() as f64)),
        ];
        self.push_wal_fields(&mut fields);
        match &self.last_refresh {
            Some(Ok(outcome)) => {
                fields.push(("last_outcome", Json::obj(Self::outcome_pairs(outcome))))
            }
            Some(Err(e)) => fields.push(("last_error", Json::str(e.clone()))),
            None => {}
        }
        Ok(fields)
    }

    /// Decodes the `commit` field — a bare name, or `{name, type}` — into
    /// the new object's name and type. Without an explicit type it is
    /// inferred from the links' relations.
    fn decode_commit<'a>(
        &self,
        target: &'a Json,
        fold_req: &FoldInRequest,
    ) -> Result<(&'a str, ObjectTypeId), ServeError> {
        let (name, type_name) = match target {
            Json::Str(name) => (name.as_str(), None),
            Json::Obj(_) => {
                let name = target.get("name").and_then(Json::as_str).ok_or_else(|| {
                    ServeError::BadRequest("\"commit\" object needs a string \"name\"".into())
                })?;
                let type_name = target
                    .get("type")
                    .map(|t| {
                        t.as_str().ok_or_else(|| {
                            ServeError::BadRequest("\"commit\".\"type\" must be a string".into())
                        })
                    })
                    .transpose()?;
                (name, type_name)
            }
            _ => {
                return Err(ServeError::BadRequest(
                    "\"commit\" must be a name or {\"name\", \"type\"}".into(),
                ))
            }
        };
        let schema = self.engine.graph().schema();
        let object_type = match type_name {
            Some(t) => schema
                .object_type_by_name(t)
                .ok_or_else(|| ServeError::BadRequest(format!("unknown object type {t:?}")))?,
            None => {
                // Infer from the link relations' source type; they must
                // all agree and at least one link must exist.
                let mut inferred: Option<ObjectTypeId> = None;
                for &(r, _, _) in &fold_req.links {
                    let src = schema.relation(r).source;
                    match inferred {
                        None => inferred = Some(src),
                        Some(prev) if prev != src => {
                            return Err(ServeError::BadRequest(
                                "link relations disagree on the new object's type; \
                                 pass \"commit\":{\"name\",\"type\"} explicitly"
                                    .into(),
                            ))
                        }
                        Some(_) => {}
                    }
                }
                inferred.ok_or_else(|| {
                    ServeError::BadRequest(
                        "cannot infer the new object's type without links; \
                         pass \"commit\":{\"name\",\"type\"} explicitly"
                            .into(),
                    )
                })?
            }
        };
        Ok((name, object_type))
    }

    fn op_commit(&mut self, commit: &Commit<'_>) -> Result<Body, ServeError> {
        // Commit link names resolve against snapshot ∪ staged — a commit
        // may cite an object staged earlier in this refresh window.
        let core = self.engine.core();
        let resolve = |name: &str| self.resolve_committed(name);
        let fold_req = core.decode_fold_in(&commit.fold_in, &resolve)?;
        let in_links = match commit.in_links {
            Some(links) => core.decode_link_triples(links, "in_links", &resolve)?,
            None => Vec::new(),
        };
        let (name, object_type) = self.decode_commit(commit.target, &fold_req)?;
        // Validate the ranking *before* staging — a commit is not
        // repeatable, so nothing may fail after it.
        let ranked = core.ranking(&commit.fold_in.ranking)?;
        let folded = self.commit_with_links(name, object_type, &fold_req, &in_links)?;
        // Ranked against the *current* (pre-refresh) model — the same one
        // the folded row was inferred under, matching plain fold_in.
        let mut fields = self.engine.core().fold_in_body(&folded, Some(name), ranked);
        if let Some(trigger) = self.due_trigger() {
            // Exactly-one-fire semantics: `due_trigger` is a single
            // predicate over both thresholds, and acting on it drains the
            // window (inline swap, or hand-off to the worker) — so a
            // commit crossing the object AND link thresholds at once still
            // triggers one refresh, never one per threshold. The commit
            // itself already succeeded and is staged, so a refresh that
            // fails to run or start must not turn this response into an
            // error — the client would retry a commit that cannot be
            // repeated ("already staged"). The failure is reported
            // alongside; the engine keeps serving the previous snapshot and
            // the staged delta stays intact for the next trigger.
            if !self.policy.background {
                match self.refresh_now(trigger) {
                    Ok(outcome) => fields.extend(self.refreshed_fields(&outcome)),
                    Err(e) => {
                        fields.push(("refreshed", Json::Bool(false)));
                        fields.push(("refresh_error", Json::str(e.to_string())));
                    }
                }
            } else if self.refresh_in_flight() {
                // The previous window is still re-fitting; this one keeps
                // accumulating and the landing re-checks the thresholds.
                fields.push(("refresh_in_flight", Json::Bool(true)));
            } else {
                match self.start_refit(trigger) {
                    Ok(_) => fields.push(("refresh_started", Json::Bool(true))),
                    Err(e) => {
                        fields.push(("refresh_started", Json::Bool(false)));
                        fields.push(("refresh_error", Json::str(e.to_string())));
                    }
                }
            }
        }
        // Emitted after any refresh so clients throttling on the backlog
        // see the post-refresh (drained) counts, not the trigger-time ones.
        fields.push(("pending_objects", Json::Num(self.pending_objects() as f64)));
        fields.push(("pending_links", Json::Num(self.pending_links() as f64)));
        Ok(fields)
    }
}

/// The lane of [`RefreshableEngine::handle_batch`] and the stdio session:
/// reads run on the engine's worker pool against its own core, which
/// moves only when a re-fit lands.
impl Lane for RefreshableEngine {
    fn repin(&mut self) -> u64 {
        self.poll_refresh();
        self.refreshes as u64
    }

    fn core(&self) -> &QueryCore {
        self.engine.core()
    }

    fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        self.engine.par_map(items, f)
    }

    /// Answers a decoded request — the lane ops here, every other op from
    /// the current engine's core — after landing a finished re-fit, so
    /// the response is produced under exactly one snapshot.
    fn answer(&mut self, req: &Request<'_>, started: Option<Instant>) -> String {
        self.poll_refresh();
        // Cloned up front: a refresh may swap `self.engine`, but the
        // replacement is wired to the same registry, so timing against the
        // pre-swap Arc records into the same histograms.
        let metrics = self.engine.metrics().clone();
        req.render(|op| match op {
            Op::Commit(commit) => self.op_commit(commit),
            Op::Stats => self.op_stats(),
            Op::Refresh => self.op_refresh(),
            Op::RefreshStatus { wait } => self.op_refresh_status(*wait),
            read => self.engine.core().execute(read),
        })
        .record(&metrics, started)
    }
}

/// The warm seed's `Θ` over the grown network: the served rows for old
/// objects, then the staged fold-in rows for new ones, each floored and
/// normalized as [`MembershipMatrix::from_rows`] would — built in one flat
/// buffer instead of a `Vec` per row. Staged rows have `K` entries (checked
/// when they are staged).
fn warm_seed_theta(served: &MembershipMatrix, staged: &[Vec<f64>]) -> MembershipMatrix {
    let k = served.n_clusters();
    let mut flat = Vec::with_capacity(served.as_slice().len() + staged.len() * k);
    flat.extend_from_slice(served.as_slice());
    for row in staged {
        debug_assert_eq!(row.len(), k, "staged Θ rows have K entries");
        flat.extend_from_slice(row);
    }
    MembershipMatrix::from_flat(flat, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::to_bytes;
    use genclus_core::{GenClus, GenClusConfig};
    use genclus_hin::{HinBuilder, Schema};

    /// The engine.rs fixture: two planted sensor clusters, readings on the
    /// anchors only.
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
        Snapshot::from_bytes(&to_bytes(&graph, &fit.model)).unwrap()
    }

    #[test]
    fn warm_seed_is_bit_identical_to_the_per_row_construction() {
        let served = snapshot().model().theta.clone();
        let k = served.n_clusters();
        let staged = vec![
            vec![0.7, 0.3],
            vec![2.0, -1.0],
            vec![0.0, 0.0],
            vec![1e-20, 1.0],
        ];
        // The construction the flat buffer replaced: one `Vec` per row.
        let mut rows: Vec<Vec<f64>> = (0..served.n_objects())
            .map(|i| served.row(i).to_vec())
            .collect();
        rows.extend(staged.iter().cloned());
        let old = MembershipMatrix::from_rows(&rows, k);
        let new = warm_seed_theta(&served, &staged);
        assert_eq!(new.n_objects(), served.n_objects() + staged.len());
        let bits =
            |m: &MembershipMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&new), bits(&old));
        assert_eq!(
            bits(&warm_seed_theta(&served, &[])),
            bits(&MembershipMatrix::from_rows(&rows[..6], k))
        );
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
    fn commit_then_refresh_makes_the_object_queryable() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        let v = ok(&e.handle_line(
            r#"{"op":"fold_in","links":[["nn","s3",1.0],["nn","s4",1.0]],"commit":"s6"}"#,
        ));
        assert_eq!(v.get("committed").unwrap().as_str(), Some("s6"));
        assert_eq!(v.get("pending_objects").unwrap().as_usize(), Some(1));
        assert_eq!(e.pending_links(), 2);
        // Not yet part of the snapshot …
        let miss = e.handle_line(r#"{"op":"membership","object":"s6"}"#);
        assert!(miss.contains("\"ok\":false"), "{miss}");

        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("objects_added").unwrap().as_usize(), Some(1));
        assert_eq!(r.get("links_added").unwrap().as_usize(), Some(2));
        assert_eq!(r.get("n_objects").unwrap().as_usize(), Some(7));
        assert_eq!(e.refreshes(), 1);
        assert_eq!(e.pending_objects(), 0);

        // … but queryable afterwards, in the cluster it was linked into.
        let m = ok(&e.handle_line(r#"{"op":"membership","object":"s6"}"#));
        let m3 = ok(&e.handle_line(r#"{"op":"membership","object":"s3"}"#));
        assert_eq!(m.get("cluster"), m3.get("cluster"));
        // Old objects answer too, and top_k sees the new arrival.
        let t = ok(
            &e.handle_line(r#"{"op":"top_k","object":"s4","k":6,"sim":"cosine","type":"sensor"}"#)
        );
        let names: Vec<&str> = t
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.as_arr().unwrap()[0].as_str().unwrap())
            .collect();
        assert!(names.contains(&"s6"), "top_k must rank the new object");
    }

    #[test]
    fn policy_triggers_auto_refresh() {
        let policy = RefreshPolicy {
            max_pending_objects: 2,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s0",1.0]],"commit":"n0"}"#));
        assert!(v.get("refreshed").is_none());
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s1",1.0]],"commit":"n1"}"#));
        assert_eq!(v.get("refreshed"), Some(&Json::Bool(true)));
        assert_eq!(v.get("objects_added").unwrap().as_usize(), Some(2));
        // The reported backlog reflects the post-refresh (drained) state.
        assert_eq!(v.get("pending_objects").unwrap().as_usize(), Some(0));
        assert_eq!(v.get("pending_links").unwrap().as_usize(), Some(0));
        assert_eq!(e.refreshes(), 1);
        assert_eq!(e.pending_objects(), 0);
        ok(&e.handle_line(r#"{"op":"membership","object":"n0"}"#));
        ok(&e.handle_line(r#"{"op":"membership","object":"n1"}"#));
    }

    #[test]
    fn batches_interleave_reads_and_mutations_in_order() {
        let mut e = RefreshableEngine::new(snapshot(), 2, RefreshPolicy::default());
        let lines: Vec<String> = vec![
            r#"{"id":0,"op":"stats"}"#.into(),
            r#"{"id":1,"op":"fold_in","links":[["nn","s3",1.0]],"commit":"x"}"#.into(),
            r#"{"id":2,"op":"membership","object":"x"}"#.into(), // still unknown
            r#"{"id":3,"op":"refresh"}"#.into(),
            r#"{"id":4,"op":"membership","object":"x"}"#.into(), // known now
        ];
        let responses = e.handle_batch(&lines);
        assert_eq!(responses.len(), 5);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(
                Json::parse(r).unwrap().get("id").unwrap().as_usize(),
                Some(i)
            );
        }
        assert!(responses[2].contains("\"ok\":false"), "{}", responses[2]);
        assert!(responses[4].contains("\"ok\":true"), "{}", responses[4]);
    }

    #[test]
    fn staged_to_staged_commit_links_resolve_within_the_window() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        ok(&e.handle_line(
            r#"{"op":"fold_in","links":[["nn","s3",1.0],["nn","s4",1.0]],"commit":"s6"}"#,
        ));
        // s6 is staged, not served — but a later commit in the same window
        // may link to it; its fold-in uses s6's staged Θ row.
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s6",2.0]],"commit":"s7"}"#));
        assert_eq!(v.get("committed").unwrap().as_str(), Some("s7"));
        assert_eq!(e.pending_objects(), 2);
        assert_eq!(e.pending_links(), 3);
        // Plain (uncommitted) fold-ins still resolve against the snapshot
        // only.
        let miss = e.handle_line(r#"{"op":"fold_in","links":[["nn","s6",1.0]]}"#);
        assert!(
            miss.contains("\"ok\":false") && miss.contains("s6"),
            "{miss}"
        );

        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("objects_added").unwrap().as_usize(), Some(2));
        assert_eq!(r.get("links_added").unwrap().as_usize(), Some(3));
        // Both arrivals land in s3's cluster — s7 purely through its
        // staged→staged link.
        let m3 = ok(&e.handle_line(r#"{"op":"membership","object":"s3"}"#));
        for name in ["s6", "s7"] {
            let m = ok(&e.handle_line(&format!(r#"{{"op":"membership","object":"{name}"}}"#)));
            assert_eq!(m.get("cluster"), m3.get("cluster"), "{name}");
        }
    }

    #[test]
    fn in_links_stage_old_source_links_and_refresh_applies_them() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        // s6 arrives with a link *from* old s3 and *from* old s4 — the
        // old→new direction GraphDelta used to reject — plus one ordinary
        // out-link.
        let v = ok(&e.handle_line(
            r#"{"op":"fold_in","links":[["nn","s3",1.0]],"in_links":[["nn","s3",1.0],["nn","s4",2.0]],"commit":"s6"}"#,
        ));
        assert_eq!(v.get("pending_links").unwrap().as_usize(), Some(3));
        // A second commit can point an in_link at the *staged* s6 too.
        ok(&e.handle_line(
            r#"{"op":"fold_in","links":[["nn","s6",1.0]],"in_links":[["nn","s6",1.0]],"commit":"s7"}"#,
        ));
        assert_eq!(e.pending_links(), 5);
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("links_added").unwrap().as_usize(), Some(5));
        assert_eq!(r.get("n_links").unwrap().as_usize(), Some(12 + 5));
        // The refreshed (compacted) snapshot serves everyone.
        let m3 = ok(&e.handle_line(r#"{"op":"membership","object":"s3"}"#));
        let m6 = ok(&e.handle_line(r#"{"op":"membership","object":"s6"}"#));
        assert_eq!(m6.get("cluster"), m3.get("cluster"));
        // And the old source really carries the new out-links.
        let g = e.engine().graph();
        let s3 = g.object_by_name("s3").unwrap();
        assert_eq!(g.out_links(s3).count(), 3, "s3 gained an old→new link");
        assert!(!g.has_overflow(), "the served snapshot is compacted");
    }

    #[test]
    fn in_link_errors_are_rejected_before_staging() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        for (line, needle) in [
            (
                r#"{"op":"fold_in","links":[["nn","s3",1.0]],"in_links":[["nn","ghost",1.0]],"commit":"x"}"#,
                "ghost",
            ),
            (
                r#"{"op":"fold_in","links":[["nn","s3",1.0]],"in_links":[["xx","s3",1.0]],"commit":"x"}"#,
                "unknown relation",
            ),
            (
                r#"{"op":"fold_in","links":[["nn","s3",1.0]],"in_links":[["nn","s3",-1.0]],"commit":"x"}"#,
                "positive",
            ),
            (
                r#"{"op":"fold_in","links":[["nn","s3",1.0]],"in_links":"nope","commit":"x"}"#,
                "must be an array",
            ),
        ] {
            let resp = e.handle_line(line);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} → {resp}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} → {err:?} (wanted {needle:?})");
        }
        assert_eq!(e.pending_objects(), 0, "failed commits must stage nothing");
        assert_eq!(e.pending_links(), 0);
    }

    #[test]
    fn commit_errors_are_structured_and_stage_nothing() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        for (line, needle) in [
            (
                r#"{"op":"fold_in","links":[["nn","s0",1.0]],"commit":"s0"}"#,
                "already exists",
            ),
            (
                r#"{"op":"fold_in","values":{"reading":[1.0]},"commit":"y"}"#,
                "cannot infer",
            ),
            (
                r#"{"op":"fold_in","commit":{"name":"y","type":"router"}}"#,
                "unknown object type",
            ),
            (r#"{"op":"fold_in","commit":7}"#, "must be a name"),
            (
                r#"{"op":"fold_in","links":[["nn","ghost",1.0]],"commit":"y"}"#,
                "ghost",
            ),
            // Ranking fields are validated whenever present, `"k"` or not.
            (
                r#"{"op":"fold_in","links":[["nn","s0",1.0]],"type":"router","commit":"y"}"#,
                "unknown object type",
            ),
        ] {
            let resp = e.handle_line(line);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} → {resp}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} → {err:?} (wanted {needle:?})");
        }
        assert_eq!(e.pending_objects(), 0, "failed commits must stage nothing");
        // Duplicate staging is rejected on the second commit.
        ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s0",1.0]],"commit":"dup"}"#));
        let resp = e.handle_line(r#"{"op":"fold_in","links":[["nn","s0",1.0]],"commit":"dup"}"#);
        assert!(resp.contains("already staged"), "{resp}");
        assert_eq!(e.pending_objects(), 1);
    }

    #[test]
    fn duplicate_commit_keys_are_rejected_not_disambiguated() {
        // Regression for the duplicate-key ambiguity: the backslash-aware
        // substring fast path scans raw bytes while `Json::get` used to
        // return the first occurrence, so `{"commit":…,"commit":…}` could
        // be validated against one value and detected via the other. The
        // parser now rejects duplicate keys outright, so the line comes
        // back as a structured error and nothing is staged.
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        let resp = e
            .handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"a","commit":"b"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{resp}");
        assert!(
            v.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("duplicate object key"),
            "{resp}"
        );
        assert_eq!(e.pending_objects(), 0);
    }

    #[test]
    fn escaped_mutation_keys_are_not_missed_by_the_fast_path() {
        // `\uXXXX` escapes can spell "commit"/"refresh" without the
        // literal bytes appearing in the line; the substring fast path
        // must not let such lines slip through to the read-only engine
        // (which would silently drop the commit).
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        let v =
            ok(&e
                .handle_line(r#"{"op":"fold_in","links":[["nn","s0",1.0]],"\u0063ommit":"esc0"}"#));
        assert_eq!(v.get("committed").unwrap().as_str(), Some("esc0"));
        assert_eq!(e.pending_objects(), 1);
        let r = ok(&e.handle_line(r#"{"op":"refre\u0073h"}"#));
        assert_eq!(r.get("objects_added").unwrap().as_usize(), Some(1));
        ok(&e.handle_line(r#"{"op":"membership","object":"esc0"}"#));
    }

    #[test]
    fn failed_auto_refresh_does_not_fail_the_commit() {
        // An unwritable persist path makes the policy-triggered refresh
        // fail; the commit that triggered it must still succeed (it is
        // staged and cannot be retried), with the refresh error reported
        // alongside, the old snapshot still serving, and the staged delta
        // intact for a later refresh.
        let policy = RefreshPolicy {
            max_pending_objects: 1,
            persist_path: Some(PathBuf::from("/nonexistent-genclus-dir/refreshed.gcsnap")),
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"q0"}"#));
        assert_eq!(v.get("committed").unwrap().as_str(), Some("q0"));
        assert_eq!(v.get("refreshed"), Some(&Json::Bool(false)));
        assert!(v.get("refresh_error").is_some(), "{v:?}");
        assert_eq!(e.refreshes(), 0);
        assert_eq!(e.pending_objects(), 1, "the staged delta must survive");
        // Still serving the old snapshot.
        ok(&e.handle_line(r#"{"op":"membership","object":"s0"}"#));
        // Fixing the policy lets an explicit refresh drain the backlog.
        e.policy.persist_path = None;
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("objects_added").unwrap().as_usize(), Some(1));
        ok(&e.handle_line(r#"{"op":"membership","object":"q0"}"#));
    }

    #[test]
    fn refresh_persists_when_asked() {
        let dir = std::env::temp_dir().join("genclus-serve-refresh-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("refreshed.gcsnap");
        std::fs::remove_file(&path).ok();
        let policy = RefreshPolicy {
            persist_path: Some(path.clone()),
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"p0"}"#));
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("persisted"), Some(&Json::Bool(true)));
        // The persisted file is a loadable v1 snapshot of the grown net,
        // and matches what the engine now serves byte for byte.
        let reloaded = Snapshot::load(&path).unwrap();
        assert_eq!(reloaded.graph().n_objects(), 7);
        assert_eq!(reloaded.raw_bytes(), e.engine().snapshot().raw_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn staged_slot_overflow_is_a_structured_bad_request() {
        // The staged-id space is u32; a window that somehow outgrew it must
        // surface a structured error, not an `as`-cast truncation that
        // aliases two staged objects. (Pinned on the helper — 4 billion
        // real commits would take a while.)
        assert_eq!(RefreshableEngine::staged_slot(0).unwrap(), 0);
        assert_eq!(
            RefreshableEngine::staged_slot(u32::MAX as usize).unwrap(),
            u32::MAX
        );
        let err = RefreshableEngine::staged_slot(u32::MAX as usize + 1).unwrap_err();
        match &err {
            ServeError::BadRequest(msg) => {
                assert!(msg.contains("staged-id space is u32"), "{msg}");
                assert!(msg.contains("4294967296"), "counts the window: {msg}");
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert!(err.to_string().starts_with("bad request:"), "{err}");
    }

    #[test]
    fn crossing_both_thresholds_fires_exactly_one_refresh() {
        // Regression (wire path): one batch whose commits cross the object
        // AND link thresholds — at the same commit, even — must trigger
        // exactly one refresh, not one per threshold.
        let policy = RefreshPolicy {
            max_pending_objects: 2,
            max_pending_links: 3,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let lines: Vec<String> = vec![
            r#"{"id":0,"op":"fold_in","links":[["nn","s0",1.0]],"commit":"d0"}"#.into(),
            // Second commit crosses objects (2 ≥ 2) and links (3 ≥ 3) at once.
            r#"{"id":1,"op":"fold_in","links":[["nn","s1",1.0],["nn","s2",1.0]],"commit":"d1"}"#
                .into(),
            r#"{"id":2,"op":"membership","object":"d1"}"#.into(),
        ];
        let responses = e.handle_batch(&lines);
        let fired: usize = responses
            .iter()
            .filter(|r| r.contains("\"refreshed\":true"))
            .count();
        assert_eq!(fired, 1, "exactly one refresh: {responses:?}");
        assert_eq!(e.refreshes(), 1);
        assert_eq!(e.pending_objects(), 0);
        assert!(responses[2].contains("\"ok\":true"), "{}", responses[2]);
    }

    #[test]
    fn crossing_both_thresholds_starts_exactly_one_background_refit() {
        let policy = RefreshPolicy {
            max_pending_objects: 2,
            max_pending_links: 3,
            background: true,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let lines: Vec<String> = vec![
            r#"{"id":0,"op":"fold_in","links":[["nn","s0",1.0]],"commit":"d0"}"#.into(),
            r#"{"id":1,"op":"fold_in","links":[["nn","s1",1.0],["nn","s2",1.0]],"commit":"d1"}"#
                .into(),
        ];
        let responses = e.handle_batch(&lines);
        let started: usize = responses
            .iter()
            .filter(|r| r.contains("\"refresh_started\":true"))
            .count();
        assert_eq!(started, 1, "exactly one start: {responses:?}");
        e.finish();
        assert_eq!(e.refreshes(), 1, "exactly one refresh landed");
        assert_eq!(e.pending_objects(), 0);
        ok(&e.handle_line(r#"{"op":"membership","object":"d0"}"#));
        ok(&e.handle_line(r#"{"op":"membership","object":"d1"}"#));
    }

    #[test]
    fn background_refresh_serves_old_snapshot_until_the_swap() {
        let policy = RefreshPolicy {
            max_pending_objects: 1,
            background: true,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        // Gate the re-fit so "in flight" is a deterministic state, not a
        // race against a fast fit.
        let gate = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let in_job = gate.clone();
        e.set_background_refit_hook(move || {
            let (lock, cvar) = &*in_job;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
        });
        let old_checksum = ok(&e.handle_line(r#"{"op":"stats"}"#))
            .get("checksum")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"b0"}"#));
        assert_eq!(v.get("refresh_started"), Some(&Json::Bool(true)));
        assert_eq!(v.get("pending_objects").unwrap().as_usize(), Some(0));
        assert!(e.refresh_in_flight());
        assert_eq!(e.in_flight_objects(), 1);

        // Reads during the (gated) re-fit all answer from the old snapshot.
        for _ in 0..5 {
            let s = ok(&e.handle_line(r#"{"op":"stats"}"#));
            assert_eq!(s.get("checksum").unwrap().as_str(), Some(&*old_checksum));
            assert_eq!(s.get("n_objects").unwrap().as_usize(), Some(6));
        }
        let status = ok(&e.handle_line(r#"{"op":"refresh_status"}"#));
        assert_eq!(status.get("mode").unwrap().as_str(), Some("background"));
        assert_eq!(status.get("in_flight"), Some(&Json::Bool(true)));
        assert_eq!(status.get("in_flight_objects").unwrap().as_usize(), Some(1));
        // The staged object is not served yet.
        let miss = e.handle_line(r#"{"op":"membership","object":"b0"}"#);
        assert!(miss.contains("\"ok\":false"), "{miss}");

        // An explicit refresh op while one is in flight does not start a
        // second, and an inline fallback refresh refuses outright.
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("started"), Some(&Json::Bool(false)));
        assert_eq!(r.get("in_flight"), Some(&Json::Bool(true)));
        let err = e.refresh().unwrap_err();
        assert!(err.to_string().contains("in flight"), "{err}");

        // Release the gate; wait lands and swaps the new snapshot in.
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        let status = ok(&e.handle_line(r#"{"op":"refresh_status","wait":true}"#));
        assert_eq!(status.get("in_flight"), Some(&Json::Bool(false)));
        let outcome = status.get("last_outcome").unwrap();
        assert_eq!(outcome.get("objects_added").unwrap().as_usize(), Some(1));
        assert_eq!(outcome.get("n_objects").unwrap().as_usize(), Some(7));
        let s = ok(&e.handle_line(r#"{"op":"stats"}"#));
        assert_ne!(s.get("checksum").unwrap().as_str(), Some(&*old_checksum));
        assert_eq!(e.refreshes(), 1);
        ok(&e.handle_line(r#"{"op":"membership","object":"b0"}"#));
    }

    #[test]
    fn commits_mid_flight_stage_into_the_next_window_and_may_cite_inflight_objects() {
        let policy = RefreshPolicy {
            background: true,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let gate = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let in_job = gate.clone();
        e.set_background_refit_hook(move || {
            let (lock, cvar) = &*in_job;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
        });
        ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"w0"}"#));
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("started"), Some(&Json::Bool(true)));

        // Mid-flight commit: stages into the NEXT window, may link to the
        // in-flight w0 by name (its staged Θ row backs the fold-in), and
        // duplicating an in-flight name is rejected.
        let v = ok(&e.handle_line(
            r#"{"op":"fold_in","links":[["nn","w0",1.0]],"in_links":[["nn","s4",1.0]],"commit":"w1"}"#,
        ));
        assert_eq!(v.get("committed").unwrap().as_str(), Some("w1"));
        assert_eq!(e.pending_objects(), 1);
        assert_eq!(e.pending_links(), 2);
        assert_eq!(e.in_flight_objects(), 1);
        let dup = e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"w0"}"#);
        assert!(dup.contains("already being refreshed"), "{dup}");

        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        let status = ok(&e.handle_line(r#"{"op":"refresh_status","wait":true}"#));
        assert_eq!(status.get("refreshes").unwrap().as_usize(), Some(1));
        // w0 is served; w1 still pending, staged against the NEW snapshot.
        ok(&e.handle_line(r#"{"op":"membership","object":"w0"}"#));
        assert_eq!(e.pending_objects(), 1);
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("started"), Some(&Json::Bool(true)));
        ok(&e.handle_line(r#"{"op":"refresh_status","wait":true}"#));
        assert_eq!(e.refreshes(), 2);
        let m1 = ok(&e.handle_line(r#"{"op":"membership","object":"w1"}"#));
        let m3 = ok(&e.handle_line(r#"{"op":"membership","object":"s3"}"#));
        assert_eq!(m1.get("cluster"), m3.get("cluster"));
        // The old→new in_link landed: s4 gained an out-link to w1.
        let g = e.engine().graph();
        let s4 = g.object_by_name("s4").unwrap();
        assert_eq!(g.out_links(s4).count(), 3);
    }

    #[test]
    fn failed_background_refit_restores_both_windows_for_retry() {
        let dir = std::env::temp_dir().join("genclus-serve-bg-fail-test");
        std::fs::remove_dir_all(&dir).ok();
        let policy = RefreshPolicy {
            max_pending_objects: 1,
            // Unwritable persist target (parent of a file): the re-fit
            // itself succeeds, persistence fails → the job errors.
            persist_path: Some(PathBuf::from("/dev/null/refreshed.gcsnap")),
            background: true,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let gate = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let in_job = gate.clone();
        e.set_background_refit_hook(move || {
            let (lock, cvar) = &*in_job;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
        });
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"f0"}"#));
        assert_eq!(v.get("refresh_started"), Some(&Json::Bool(true)));
        // A second commit lands in the next window while f0 is in flight.
        ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","f0",1.0]],"commit":"f1"}"#));
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        let status = ok(&e.handle_line(r#"{"op":"refresh_status","wait":true}"#));
        assert_eq!(status.get("in_flight"), Some(&Json::Bool(false)));
        let err = status.get("last_error").unwrap().as_str().unwrap();
        assert!(err.contains("I/O") || err.contains("refresh"), "{err}");
        // Nothing lost: old snapshot serves, both windows merged back.
        assert_eq!(e.refreshes(), 0);
        assert_eq!(e.pending_objects(), 2, "f0 and f1 both staged again");
        assert_eq!(e.pending_links(), 2);
        ok(&e.handle_line(r#"{"op":"membership","object":"s0"}"#));
        // Fix the policy; the merged window refreshes in one go.
        e.policy.persist_path = None;
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("started"), Some(&Json::Bool(true)));
        let status = ok(&e.handle_line(r#"{"op":"refresh_status","wait":true}"#));
        let outcome = status.get("last_outcome").unwrap();
        assert_eq!(outcome.get("objects_added").unwrap().as_usize(), Some(2));
        for name in ["f0", "f1"] {
            ok(&e.handle_line(&format!(r#"{{"op":"membership","object":"{name}"}}"#)));
        }
    }

    #[test]
    fn chained_refresh_fires_when_the_next_window_crossed_thresholds_mid_flight() {
        let policy = RefreshPolicy {
            max_pending_objects: 1,
            background: true,
            ..RefreshPolicy::default()
        };
        let mut e = RefreshableEngine::new(snapshot(), 1, policy);
        let gate = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let in_job = gate.clone();
        e.set_background_refit_hook(move || {
            let (lock, cvar) = &*in_job;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
        });
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"c0"}"#));
        assert_eq!(v.get("refresh_started"), Some(&Json::Bool(true)));
        // The next window crosses the threshold while c0 is in flight; the
        // response flags the in-flight re-fit instead of starting another.
        let v = ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s4",1.0]],"commit":"c1"}"#));
        assert_eq!(v.get("refresh_in_flight"), Some(&Json::Bool(true)));
        assert!(v.get("refresh_started").is_none());
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        // finish() drains the chained re-fit too: both windows land.
        e.finish();
        assert_eq!(e.refreshes(), 2, "completion chains the due window");
        assert_eq!(e.pending_objects(), 0);
        ok(&e.handle_line(r#"{"op":"membership","object":"c0"}"#));
        ok(&e.handle_line(r#"{"op":"membership","object":"c1"}"#));
    }

    /// A re-fit hook that panics on its first call only.
    fn panic_once(e: &mut RefreshableEngine) {
        let armed = std::sync::atomic::AtomicBool::new(true);
        e.set_background_refit_hook(move || {
            if armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected re-fit failure");
            }
        });
    }

    #[test]
    fn inline_refit_panic_is_contained_and_keeps_the_window() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        panic_once(&mut e);
        ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"h0"}"#));
        let staged = e.staged_state_bytes();
        let resp = e.handle_line(r#"{"op":"refresh"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{resp}");
        assert!(resp.contains("re-fit panicked"), "{resp}");
        assert_eq!(
            e.staged_state_bytes(),
            staged,
            "the staged window is intact"
        );
        assert_eq!(e.refreshes(), 0);
        let status = ok(&e.handle_line(r#"{"op":"refresh_status"}"#));
        assert!(status.get("last_error").is_some(), "{status:?}");
        // The next refresh succeeds and lands the window.
        let r = ok(&e.handle_line(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("objects_added").unwrap().as_usize(), Some(1));
        ok(&e.handle_line(r#"{"op":"membership","object":"h0"}"#));
    }

    #[test]
    fn inline_refit_panic_does_not_poison_the_tcp_lane() {
        use std::io::{BufRead, BufReader, Write};
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        panic_once(&mut e);
        let server = crate::net::NetServer::bind("127.0.0.1:0", e, Default::default()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            writeln!(stream, "{line}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp
        };
        ok(&send(
            r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"t0"}"#,
        ));
        let resp = send(r#"{"op":"refresh"}"#);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("re-fit panicked"), "{resp}");
        // The lane is not poisoned: later commits and a refresh succeed.
        ok(&send(
            r#"{"op":"fold_in","links":[["nn","t0",1.0]],"commit":"t1"}"#,
        ));
        let r = ok(&send(r#"{"op":"refresh"}"#));
        assert_eq!(r.get("objects_added").unwrap().as_usize(), Some(2));
        ok(&send(r#"{"op":"membership","object":"t1"}"#));
        drop((stream, reader));
        assert_eq!(server.shutdown().refreshes(), 1);
    }

    #[test]
    fn refresh_status_in_inline_mode_reports_last_outcome() {
        let mut e = RefreshableEngine::new(snapshot(), 1, RefreshPolicy::default());
        let s = ok(&e.handle_line(r#"{"op":"refresh_status"}"#));
        assert_eq!(s.get("mode").unwrap().as_str(), Some("inline"));
        assert_eq!(s.get("in_flight"), Some(&Json::Bool(false)));
        assert!(s.get("last_outcome").is_none());
        assert!(s.get("last_error").is_none());
        ok(&e.handle_line(r#"{"op":"fold_in","links":[["nn","s3",1.0]],"commit":"i0"}"#));
        ok(&e.handle_line(r#"{"op":"refresh"}"#));
        let s = ok(&e.handle_line(r#"{"op":"refresh_status"}"#));
        let outcome = s.get("last_outcome").unwrap();
        assert_eq!(outcome.get("objects_added").unwrap().as_usize(), Some(1));
        assert_eq!(s.get("refreshes").unwrap().as_usize(), Some(1));
        // Bad `wait` values are structured errors in both modes.
        let bad = e.handle_line(r#"{"op":"refresh_status","wait":1}"#);
        assert!(bad.contains("must be a boolean"), "{bad}");
    }
}

//! The off-thread half of a refresh.
//!
//! Every re-fit of a [`crate::refresh::RefreshableEngine`] runs here: the
//! heavy part — append the staged delta, run [`GenClus::fit_warm`],
//! encode the refreshed snapshot once from the graph and model in hand,
//! optionally persist those bytes, then index it into a ready
//! [`QueryEngine`] — goes to a dedicated one-worker [`WorkerPool`] via
//! [`WorkerPool::submit`], and the finished engine comes back through a
//! [`JobHandle`]. In background mode the serving thread polls the handle
//! between requests and reads keep answering from the old engine the whole
//! time; in inline mode the caller joins it at once. Either way the swap
//! itself is a plain move on the serving thread (everything O(snapshot) —
//! encode, checksum, candidate indexes, pool spawn — was paid on the
//! worker).
//!
//! The split of responsibilities:
//!
//! * `RefitInput` owns everything the job needs (a copy of the served
//!   graph, the staged [`GraphDelta`], the warm-seed model, the
//!   resolved config) so the job borrows nothing from the engine;
//! * `run_refit` is the *pure* re-fit the worker runs;
//! * [`RefitWorker`] wraps the pool + at-most-one in-flight handle, maps a
//!   panicked job into a [`ServeError::Refresh`] (the worker thread
//!   survives, in both modes), and exposes poll/join so the engine decides
//!   *when* the swap happens.
//!
//! Failure contract: a job that errors returns the [`ServeError`]; the
//! engine keeps serving the old snapshot and restores the staged window,
//! so nothing committed is lost.

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::refresh::RefreshOutcome;
use crate::snapshot::{save_bytes, Snapshot};
use genclus_core::pool::{JobHandle, WorkerPool};
use genclus_core::{GenClus, GenClusConfig, GenClusModel};
use genclus_hin::{GraphDelta, HinGraph};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Everything one warm re-fit consumes, owned — the job runs on another
/// thread and must not borrow the serving engine.
pub(crate) struct RefitInput {
    /// Copy of the served snapshot's graph, grown in place by the append.
    pub graph: HinGraph,
    /// The refresh window being applied.
    pub delta: GraphDelta,
    /// Warm seed over the grown network: served `Θ` rows extended with the
    /// staged fold-in rows, plus the served `(β, γ)`.
    pub warm: GenClusModel,
    /// Fully resolved re-fit configuration (already aligned via
    /// `with_warm_start`, iteration knobs applied).
    pub cfg: GenClusConfig,
    /// Persist the refreshed snapshot here before reporting success.
    pub persist_path: Option<PathBuf>,
    /// Worker threads of the replacement [`QueryEngine`].
    pub threads: usize,
    /// The process-lifetime registry: the replacement engine is wired to
    /// it (counters stay cumulative across the swap), and the warm EM
    /// streams its per-iteration trace events into it mid-re-fit.
    pub metrics: Arc<ServeMetrics>,
}

/// What a finished re-fit hands back to the serving thread.
pub(crate) struct RefitOutput {
    /// The replacement engine, fully built (snapshot encoded, candidate
    /// indexes rebuilt, query pool spawned) on the re-fit thread — the
    /// serving thread's swap is a plain move, not O(snapshot) work.
    pub engine: QueryEngine,
    /// The bookkeeping the wire protocol reports.
    pub outcome: RefreshOutcome,
    /// Wall time of the re-fit itself (append → fit → snapshot → engine).
    pub seconds: f64,
}

/// Appends `delta`, warm re-fits, serializes, (optionally)
/// persists, and builds the replacement [`QueryEngine`] — the entire
/// refresh except the swap itself. Pure with respect to the serving
/// engine.
pub(crate) fn run_refit(input: RefitInput) -> Result<RefitOutput, ServeError> {
    let RefitInput {
        mut graph,
        delta,
        warm,
        cfg,
        persist_path,
        threads,
        metrics,
    } = input;
    let started = Instant::now();
    // The warm EM reports its convergence live: one `em_outer_iteration`
    // trace event per outer iteration lands in the shared registry, so a
    // concurrent `{"op":"metrics"}` watches the re-fit progress.
    let cfg = if metrics.is_enabled() {
        cfg.with_trace(metrics.clone())
    } else {
        cfg
    };
    let objects_added = delta.n_new_objects();
    let links_added = delta.n_new_links();

    // The append merges every staged link, old sources included, into the
    // canonical CSR: the warm re-fit steps exactly the graph a from-scratch
    // build of the same history would give.
    graph.append(delta)?;
    let refit = |e: genclus_core::GenClusError| ServeError::Refresh(e.to_string());
    let fit = GenClus::new(cfg)
        .map_err(refit)?
        .fit_warm(&graph, &warm)
        .map_err(refit)?;

    // `from_parts` encodes once and keeps the graph and model in hand —
    // no second checksum pass, no decode.
    // The candidate-index rebuild and (threads > 1) the query-pool spawn
    // also run here, off the serving thread: paying them at swap time
    // would reintroduce a serving stall proportional to the model size.
    let snap = Snapshot::from_parts(graph, fit.model)?;
    let persisted = if let Some(path) = &persist_path {
        save_bytes(path, snap.raw_bytes())?;
        true
    } else {
        false
    };
    let outcome = RefreshOutcome {
        objects_added,
        links_added,
        outer_iterations: fit.history.n_iterations(),
        em_iterations: fit.history.total_em_iterations(),
        n_objects: snap.graph().n_objects(),
        n_links: snap.graph().n_links(),
        persisted,
    };
    Ok(RefitOutput {
        engine: QueryEngine::with_metrics(snap, threads, metrics),
        outcome,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// A dedicated one-worker pool running at most one re-fit at a time.
///
/// Owning its pool (rather than sharing the query engine's) is load-
/// bearing: a re-fit takes the full warm-EM wall time, and parking it on a
/// query worker would stall every batch dispatched to that worker — the
/// exact latency bug this module removes. The pool's thread is spawned by
/// the first re-fit.
#[derive(Default)]
pub struct RefitWorker {
    pool: Option<WorkerPool>,
    handle: Option<JobHandle<Result<RefitOutput, ServeError>>>,
    /// Test seam: runs at the start of the job, on the worker thread.
    /// Lets deterministic tests hold a re-fit "in flight" on a gate.
    hook: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl RefitWorker {
    /// A worker with no thread yet; `Self::start` spawns it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a re-fit is currently queued or running.
    pub fn in_flight(&self) -> bool {
        self.handle.is_some()
    }

    /// Hands `input` to the worker. The caller must have checked
    /// [`Self::in_flight`] — two concurrent re-fits of one engine would
    /// race on the same base snapshot.
    pub(crate) fn start(&mut self, input: RefitInput) {
        assert!(
            self.handle.is_none(),
            "a background re-fit is already in flight"
        );
        let hook = self.hook.clone();
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(1));
        self.handle = Some(pool.submit(move || {
            if let Some(hook) = &hook {
                hook();
            }
            run_refit(input)
        }));
    }

    fn unpack(
        result: std::thread::Result<Result<RefitOutput, ServeError>>,
    ) -> Result<RefitOutput, ServeError> {
        result.unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "re-fit worker panicked".to_string());
            Err(ServeError::Refresh(format!("re-fit panicked: {msg}")))
        })
    }

    /// Non-blocking: `Some(result)` once the in-flight re-fit finished
    /// (clearing it), `None` while it is still running or none was
    /// started.
    pub(crate) fn poll(&mut self) -> Option<Result<RefitOutput, ServeError>> {
        let done = self.handle.as_ref()?.try_join()?;
        self.handle = None;
        Some(Self::unpack(done))
    }

    /// Blocks until the in-flight re-fit finishes; `None` when none is in
    /// flight.
    pub(crate) fn join(&mut self) -> Option<Result<RefitOutput, ServeError>> {
        let handle = self.handle.take()?;
        Some(Self::unpack(handle.join()))
    }

    /// Test seam: `hook` runs at the start of every subsequent job, on the
    /// worker thread. Not part of the public API contract.
    #[doc(hidden)]
    pub fn set_refit_hook(&mut self, hook: impl Fn() + Send + Sync + 'static) {
        self.hook = Some(Arc::new(hook));
    }
}

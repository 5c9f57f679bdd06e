//! **genclus-serve** — the serving layer over fitted GenClus models.
//!
//! The fit produces exactly what downstream queries need — memberships
//! `Θ`, link-type strengths `γ`, attribute components `β` (§2.2 of the
//! paper) — but a model that only exists inside one `fit` call cannot
//! serve traffic. This crate adds the three layers between a fit and a
//! query stream:
//!
//! * [`snapshot`] — a versioned, dependency-free binary format
//!   (magic + schema version + checksum) that round-trips a
//!   [`GenClusModel`](genclus_core::GenClusModel) together with its
//!   [`HinGraph`](genclus_hin::HinGraph) byte-identically, with an
//!   mmap-style zero-copy view of the `Θ` matrix straight out of the file
//!   buffer;
//! * [`foldin`] — online assignment of **new** objects, with arbitrary
//!   subsets of attributes missing, by iterating the frozen-(`β`, `γ`)
//!   EM row update against their neighbors' fixed memberships — the same
//!   cached-log kernel the fit uses, so folding a training object back in
//!   reproduces its fitted row; pair it with
//!   [`GraphDelta`](genclus_hin::delta::GraphDelta) to commit folded
//!   objects into the network incrementally;
//! * [`engine`] — a JSON-lines query engine ([`engine::QueryEngine`])
//!   that batches concurrent fold-in, membership, and §5.2.2 top-k
//!   link-prediction queries across the persistent worker pool; the
//!   `genclus_serve` binary serves it over stdin/stdout or TCP;
//! * [`refresh`] — the warm-start refresh loop
//!   ([`refresh::RefreshableEngine`]): fold-in requests carrying a
//!   `"commit"` field are staged into a
//!   [`GraphDelta`](genclus_hin::delta::GraphDelta). Commit link names
//!   resolve against the **snapshot ∪ staged** namespace (an arrival may
//!   link to an earlier arrival of the same refresh window), and an
//!   optional `"in_links"` field carries links *into* the arrival from
//!   pre-existing or staged sources — merged into those sources' out-link
//!   segments at append. After `max_pending_objects`
//!   objects / `max_pending_links` links (or on an explicit
//!   `{"op":"refresh"}`) the engine appends the delta (one canonical
//!   merge: the grown graph equals a from-scratch build), re-fits with EM
//!   **warm-started** from the served `(Θ, β, γ)`
//!   ([`genclus_core::algorithm::GenClus::fit_warm`] — no `InitStrategy`,
//!   no best-of-seeds warmup), atomically swaps the refreshed snapshot
//!   in, and optionally persists it (same schema v2, new checksum).
//!   Policy knobs live on [`refresh::RefreshPolicy`];
//! * [`background`] — the double-buffered refresh
//!   ([`background::RefitWorker`]): every warm re-fit runs on a dedicated
//!   worker thread. With [`refresh::RefreshPolicy::background`] reads keep
//!   answering from the old engine meanwhile; the serving thread swaps the
//!   finished snapshot in between requests, commits arriving mid-re-fit
//!   stage into the *next* delta window, and a failed re-fit restores the
//!   staged window intact. Without it, `refresh` waits for the swap. The
//!   `refresh_status` op (optionally `"wait":true`) reports in-flight
//!   state and the last outcome;
//! * [`request`] — the wire request: each line is parsed once into a
//!   typed `request::Request`, and every response, on every transport,
//!   goes through one envelope;
//! * [`wal`] — the commit write-ahead log
//!   ([`refresh::RefreshableEngine::with_wal`], `--wal` on the binary):
//!   every accepted commit is appended + fsynced **before** the ack, a
//!   persisted refresh truncates the log atomically down to the
//!   still-staged window, and startup replays log-after-snapshot to
//!   rebuild the staged delta and fold-in `Θ` rows bit-identically — no
//!   acknowledged commit is ever lost. Torn tails are truncated and
//!   reported, never fatal;
//! * [`metrics`] — the always-on observability registry
//!   ([`metrics::ServeMetrics`]): per-op latency histograms, WAL
//!   append/fsync timings and replay counters, refresh lifecycle spans,
//!   and live EM convergence (the registry is a
//!   [`TraceSink`](genclus_obs::TraceSink) for warm re-fits), served as
//!   `{"op":"metrics"}` in a byte-stable JSON schema or Prometheus text;
//! * [`session`] — the one session loop both transports run: it reads
//!   through the byte-capped [`lines::CappedLineReader`] (so untrusted
//!   input cannot buffer unbounded memory), coalesces the lines already
//!   buffered into a batch, answers it through one router that sends each
//!   request to the mutation lane or a read core, and writes the batch
//!   with one flush. The binary's stdio mode is one session
//!   ([`session::serve_stdio`]);
//! * [`net`] — the multi-client TCP front-end ([`net::NetServer`],
//!   `--listen` on the binary): one session per connection, where reads
//!   share the snapshot lock-free (an atomically swappable `Arc` of the
//!   read core, pinned per batch per connection) and all mutations
//!   serialize through one lane, so the WAL's *ack ⇒ replayable* contract
//!   holds under concurrency.
//!
//! # Quickstart
//!
//! ```
//! use genclus_core::prelude::*;
//! use genclus_hin::prelude::*;
//! use genclus_serve::prelude::*;
//!
//! // Fit a tiny two-cluster sensor network (see genclus-core's docs).
//! let mut schema = Schema::new();
//! let sensor = schema.add_object_type("sensor");
//! let nn = schema.add_relation("nn", sensor, sensor);
//! let reading = schema.add_numerical_attribute("reading");
//! let mut b = HinBuilder::new(schema);
//! let vs: Vec<_> = (0..6).map(|i| b.add_object(sensor, format!("s{i}"))).collect();
//! for group in [[0usize, 1, 2], [3, 4, 5]] {
//!     for &i in &group {
//!         for &j in &group {
//!             if i != j { b.add_link(vs[i], vs[j], nn, 1.0).unwrap(); }
//!         }
//!     }
//! }
//! b.add_numeric(vs[0], reading, -5.0).unwrap();
//! b.add_numeric(vs[3], reading, 5.0).unwrap();
//! let network = b.build().unwrap();
//! let fit = GenClus::new(GenClusConfig::new(2, vec![reading]).with_seed(7))
//!     .unwrap()
//!     .fit(&network)
//!     .unwrap();
//!
//! // Persist, reload, and fold in a never-seen sensor with no readings.
//! let bytes = genclus_serve::snapshot::to_bytes(&network, &fit.model);
//! let snap = Snapshot::from_bytes(&bytes).unwrap();
//! let foldin = FoldInEngine::new(snap.model(), snap.graph());
//! let req = FoldInRequest {
//!     links: vec![(nn, vs[3], 1.0), (nn, vs[4], 1.0)],
//!     ..Default::default()
//! };
//! let assigned = foldin.assign(&req).unwrap();
//! assert_eq!(
//!     genclus_stats::simplex::argmax(&assigned.theta),
//!     snap.model().hard_labels()[3],
//! );
//! ```

pub mod background;
pub mod engine;
pub mod error;
pub mod foldin;
pub mod json;
pub mod lines;
pub mod metrics;
pub mod net;
pub mod refresh;
pub mod request;
pub mod session;
pub mod snapshot;
pub mod wal;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::background::RefitWorker;
    pub use crate::engine::{QueryCore, QueryEngine};
    pub use crate::error::ServeError;
    pub use crate::foldin::{FoldInEngine, FoldInOptions, FoldInRequest, FoldInResult};
    pub use crate::json::Json;
    pub use crate::lines::{CappedLineReader, LineEvent};
    pub use crate::metrics::{RefreshSpan, ServeMetrics};
    pub use crate::net::{NetConfig, NetServer};
    pub use crate::refresh::{RefreshOutcome, RefreshPolicy, RefreshableEngine};
    pub use crate::snapshot::{Snapshot, SCHEMA_VERSION};
    pub use crate::wal::{CommitRecord, Wal, WalRecoveryReport};
}

pub use prelude::*;

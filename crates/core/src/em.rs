//! Cluster optimization: the EM engine (Algorithm 1, step 1).
//!
//! With the strengths `γ` fixed, GenClus maximizes `g₁(Θ, β)` (Eq. 9) by an
//! EM-style fixed point. One [`EmEngine::step`] performs, for every object
//! `v`:
//!
//! * **E-step** — for every observation `x` of every specified attribute,
//!   the responsibility `p(z_{v,x} = k) ∝ θ_{v,k} · p(x | β_k)`;
//! * **M-step (Θ)** — Eq. 10/11/12's update
//!   `θ'_{v,k} ∝ Σ_{e=⟨v,u⟩} γ(φ(e)) w(e) θ_{u,k} + Σ_X Σ_x p(z_{v,x} = k)`,
//!   i.e. a (γ·w)-weighted average of out-neighbor memberships plus the
//!   attribute responsibility mass (objects without observations are driven
//!   purely by their neighbors — this is how incomplete attributes are
//!   handled);
//! * **M-step (β)** — component re-estimation from responsibility-weighted
//!   sufficient statistics.
//!
//! # Hot-path invariants
//!
//! The step kernel is deliberately allocation-free and log-table-cached;
//! [`crate::em_reference`] keeps the naive per-observation-`ln`,
//! thread-spawn-per-step kernel around as the provably-equivalent baseline
//! (the `kernel` gate of `genclus-bench`'s `bench_gates` measures both;
//! see `BENCH_gates.json`). The rules the optimized kernel must uphold:
//!
//! * **Jacobi sweep.** Every object's update reads only the *previous* `Θ`
//!   (`theta_old`); the new rows land in a separate output buffer. This is
//!   what makes the pass embarrassingly parallel and makes the result
//!   independent of both object order and thread count.
//! * **Chunk determinism.** Workers claim fixed-size row chunks
//!   (`crate::pool::CHUNK`, independent of the thread count) and each
//!   row's arithmetic is identical in serial and parallel mode, so `Θ` is
//!   bit-for-bit the same for every thread count. Each chunk accumulates its
//!   own `β` statistics, and the chunk partials are merged in chunk order,
//!   so the components are bit-identical across thread counts too
//!   (`fits_are_bit_identical_across_thread_counts` in `algorithm.rs`).
//! * **Log-table caching.** The inner loop evaluates **zero `ln` calls**:
//!   `ln β` lives in a table inside
//!   [`CategoricalComponents`]
//!   (for the `g₁` objective; the E-step itself uses the term-major linear
//!   table), and the Gaussian log-pdf constants (`−½ln(2πσ²)`, `1/(2σ²)`)
//!   are cached in
//!   [`GaussianComponents`].
//!   Categorical responsibilities are formed in the *linear* domain
//!   (`θ_{v,k} · β_{k,l}` is bounded below by the two floors, ≈ 1e-21, so it
//!   cannot underflow). Gaussian responsibilities keep the pdf in the log
//!   domain (`−d²/2σ²` is unbounded below) but fold `θ` in linearly after
//!   the max subtraction — `θ_k·exp(s_k − max s)` has the same normalization
//!   as `exp(ln θ_k + s_k − max)` — and skip the argmax entry's
//!   `exp(0) = 1`, leaving `K − 1` `exp`s and no `ln` per observation.
//! * **Buffer reuse.** The per-chunk `β` accumulators (`ChunkPartial`)
//!   and the per-worker responsibility rows are owned by the engine,
//!   allocated on the caller with a cache line of slack so that no two
//!   workers update the same line, and zeroed — never reallocated — on
//!   each step;
//!   [`EmEngine::run`] double-buffers `Θ` across iterations (one swap per
//!   iteration, no per-step matrix allocation); the worker threads
//!   themselves are spawned once per engine in a persistent
//!   [`WorkerPool`], not once per step.
//! * **Scratch is step-local.** Nothing read by a step may survive from the
//!   previous step except through the documented reset (`prepare`): the
//!   output rows are fully overwritten before accumulation, and every
//!   scratch field is zeroed or rebuilt at step entry.
//! * **Append transparency.** The link term iterates
//!   [`HinGraph::out_relation_segments`], one chunk per relation.
//!   [`HinGraph::append`] merges a delta into that canonical layout, so a
//!   step on a grown graph is **bit-identical** to a step on a
//!   from-scratch build of the same history (warm re-fits see exactly the
//!   topology a cold fit would; asserted by
//!   `appended_graph_steps_bit_identically_to_rebuild`).

use crate::attr_model::{
    CategoricalComponents, ClusterComponents, ComponentAccumulator, GaussianComponents,
};
use crate::pool::{self, DisjointRows, WorkerPool};
use genclus_hin::{AttributeData, AttributeId, HinGraph};
use genclus_stats::simplex::normalize_floored;
use genclus_stats::MembershipMatrix;

/// Adds the responsibility mass of one categorical observation bag to
/// `out_row`, reporting each per-cluster mass to `sink` (the M-step's
/// sufficient-statistics accumulator; pass a no-op when the components are
/// frozen, as online fold-in does).
///
/// This *is* the optimized kernel's categorical inner loop — `step` and the
/// serve crate's fold-in share it, so both produce bit-identical
/// responsibilities. Works in the linear domain: `θ_{v,k} · β_{k,l}` is
/// floored away from zero on both factors, so neither underflow nor a zero
/// normalizer is possible.
///
/// `tv` is the object's current membership row, `terms` its `(term, count)`
/// bag, and `resp` a `K`-length scratch row.
// The shared responsibility kernels run once per (object, observation) on
// every EM sweep and every online fold-in — allocation-free by contract,
// enforced by the hot-path-alloc lint.
// lint: region(hot-path)
#[inline]
pub fn categorical_responsibility_mass(
    tv: &[f64],
    cat: &CategoricalComponents,
    terms: &[(u32, f64)],
    out_row: &mut [f64],
    resp: &mut [f64],
    mut sink: impl FnMut(usize, u32, f64),
) {
    for &(term, count) in terms {
        let probs = cat.probs_for_term(term);
        let mut sum = 0.0;
        for ((r, &t), &p) in resp.iter_mut().zip(tv).zip(probs) {
            let w = t * p;
            *r = w;
            sum += w;
        }
        let scale = count / sum;
        for (kk, &r) in resp.iter().enumerate() {
            let mass = r * scale;
            out_row[kk] += mass;
            sink(kk, term, mass);
        }
    }
}

/// Adds the responsibility mass of one numerical observation list to
/// `out_row`, reporting each `(cluster, value, mass)` to `sink` — the
/// Gaussian counterpart of [`categorical_responsibility_mass`], shared by
/// `step` and online fold-in.
///
/// Keeps the pdf in the log domain (`−d²/2σ²` is unbounded below) but folds
/// `θ` in *linearly* after the max subtraction: `θ_k·exp(s_k − max s)`
/// normalizes to exactly the same responsibilities as
/// `exp(ln θ_k + s_k − max)`, costs no `ln θ` at all, and the argmax entry's
/// `exp(0) = 1` is skipped outright — `K − 1` `exp`s and no `ln` per
/// observation. Underflow-safe because the max-`s` entry contributes
/// `θ_k·1 ≥ the Θ floor` to the sum.
#[inline]
pub fn gaussian_responsibility_mass(
    tv: &[f64],
    gauss: &GaussianComponents,
    values: &[f64],
    out_row: &mut [f64],
    resp: &mut [f64],
    mut sink: impl FnMut(usize, f64, f64),
) {
    for &x in values {
        let mut max_s = f64::NEG_INFINITY;
        let mut arg = 0usize;
        for (kk, r) in resp.iter_mut().enumerate() {
            let s = gauss.log_pdf(kk, x);
            *r = s;
            if s > max_s {
                max_s = s;
                arg = kk;
            }
        }
        let mut sum = 0.0;
        for (kk, (r, &t)) in resp.iter_mut().zip(tv).enumerate() {
            let e = if kk == arg { 1.0 } else { (*r - max_s).exp() };
            let w = t * e;
            *r = w;
            sum += w;
        }
        let inv = 1.0 / sum;
        for (kk, &r) in resp.iter().enumerate() {
            let r = r * inv;
            out_row[kk] += r;
            sink(kk, x, r);
        }
    }
}
// lint: end-region

/// Result of one EM iteration.
#[derive(Debug, Clone)]
pub struct EmStepResult {
    /// Updated membership matrix.
    pub theta: MembershipMatrix,
    /// Updated attribute components.
    pub components: Vec<ClusterComponents>,
    /// Max-abs change of any membership entry — the convergence signal.
    pub max_delta: f64,
}

/// One row chunk's share of a step: its `β` sufficient statistics and
/// its max-abs membership delta.
#[derive(Debug, Default)]
struct ChunkPartial {
    accs: Vec<ComponentAccumulator>,
    max_delta: f64,
}

impl ChunkPartial {
    /// Readies the partial for one step: zeroes (or, on shape change,
    /// rebuilds) the accumulators.
    fn prepare(&mut self, components: &[ClusterComponents]) {
        let shapes_match = self.accs.len() == components.len()
            && self
                .accs
                .iter()
                .zip(components)
                .all(|(a, c)| a.shape_matches(c));
        if shapes_match {
            for a in &mut self.accs {
                a.reset();
            }
        } else {
            self.accs = components
                .iter()
                .map(ComponentAccumulator::zeros_like)
                .collect();
        }
        self.max_delta = 0.0;
    }
}

/// Reusable EM engine bound to a network and an attribute subset.
///
/// The engine owns its worker pool and all per-thread scratch, so `step` /
/// `run` are `&mut self`: one engine is a single-threaded façade over a
/// persistent team of workers.
pub struct EmEngine<'g> {
    graph: &'g HinGraph,
    attr_ids: Vec<AttributeId>,
    k: usize,
    beta_floor: f64,
    variance_floor: f64,
    theta_smoothing: f64,
    /// Persistent workers (`None` when `threads == 1`).
    pool: Option<WorkerPool>,
    /// One partial per row chunk, merged in chunk order.
    chunks: Vec<ChunkPartial>,
    /// One responsibility row per worker slot.
    resp: Vec<Vec<f64>>,
    /// Retired `Θ` buffer, recycled by the next `step` / `run`.
    spare: Option<MembershipMatrix>,
}

impl<'g> EmEngine<'g> {
    /// Creates an engine for `graph` clustering into `k` clusters according
    /// to `attr_ids`, using `threads` workers and the raw (un-smoothed)
    /// Eq. 10 update. See [`Self::with_smoothing`].
    ///
    /// For `threads > 1` the worker threads are spawned here, once, and live
    /// as long as the engine.
    pub fn new(
        graph: &'g HinGraph,
        attr_ids: &[AttributeId],
        k: usize,
        threads: usize,
        beta_floor: f64,
        variance_floor: f64,
    ) -> Self {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| WorkerPool::new(threads));
        let resp = (0..pool::n_slots(pool.as_ref()))
            .map(|_| pool::padded_zeros(k))
            .collect();
        Self {
            graph,
            attr_ids: attr_ids.to_vec(),
            k,
            beta_floor,
            variance_floor,
            theta_smoothing: 0.0,
            pool,
            chunks: Vec::new(),
            resp,
            spare: None,
        }
    }

    /// Mixes every updated Θ row with the uniform distribution:
    /// `θ ← (1 − ε)·θ + ε/K` — the relative form of Eq. 15's Dirichlet `+1`
    /// smoothing (see `GenClusConfig::theta_smoothing`).
    pub fn with_smoothing(mut self, epsilon: f64) -> Self {
        assert!((0.0..1.0).contains(&epsilon), "smoothing must be in [0, 1)");
        self.theta_smoothing = epsilon;
        self
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.k
    }

    /// The engine's persistent workers (`None` when serial), lent to the
    /// other per-object passes of a fit: strength learning and `g₁`.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Instantaneous worker-pool queue depth (always 0 when serial). An
    /// observability gauge for trace events, not a scheduling signal.
    pub fn queue_depth(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.queue_depth())
    }

    /// One full E+M iteration from `(theta, components)` under fixed `gamma`.
    pub fn step(
        &mut self,
        theta: &MembershipMatrix,
        components: &[ClusterComponents],
        gamma: &[f64],
    ) -> EmStepResult {
        let mut out = self.take_buffer();
        let (components, max_delta) = self.step_into(theta, components, gamma, &mut out);
        EmStepResult {
            theta: out,
            components,
            max_delta,
        }
    }

    /// Runs EM until `max_delta < tol` or `max_iters` iterations; returns the
    /// final state and the iteration count used.
    ///
    /// `Θ` is double-buffered: the loop swaps two matrices instead of
    /// allocating one per iteration, and parks the retired buffer on the
    /// engine for the next call.
    pub fn run(
        &mut self,
        theta: MembershipMatrix,
        components: Vec<ClusterComponents>,
        gamma: &[f64],
        max_iters: usize,
        tol: f64,
    ) -> (MembershipMatrix, Vec<ClusterComponents>, usize) {
        let mut cur = theta;
        let mut components = components;
        let mut next = self.take_buffer();
        let mut iters = 0;
        for _ in 0..max_iters {
            let (new_components, max_delta) = self.step_into(&cur, &components, gamma, &mut next);
            std::mem::swap(&mut cur, &mut next);
            components = new_components;
            iters += 1;
            if max_delta < tol {
                break;
            }
        }
        self.spare = Some(next);
        (cur, components, iters)
    }

    /// A `Θ` buffer of the right shape: the parked spare if compatible,
    /// otherwise a fresh allocation.
    fn take_buffer(&mut self) -> MembershipMatrix {
        let n = self.graph.n_objects();
        match self.spare.take() {
            Some(m) if m.n_objects() == n && m.n_clusters() == self.k => m,
            _ => MembershipMatrix::uniform(n, self.k),
        }
    }

    /// The step kernel: writes the new `Θ` into `out` and returns the new
    /// components and the max-abs membership delta.
    fn step_into(
        &mut self,
        theta: &MembershipMatrix,
        components: &[ClusterComponents],
        gamma: &[f64],
        out: &mut MembershipMatrix,
    ) -> (Vec<ClusterComponents>, f64) {
        debug_assert_eq!(theta.n_objects(), self.graph.n_objects());
        debug_assert_eq!(theta.n_clusters(), self.k);
        debug_assert_eq!(out.n_objects(), self.graph.n_objects());
        debug_assert_eq!(out.n_clusters(), self.k);
        debug_assert_eq!(components.len(), self.attr_ids.len());
        debug_assert_eq!(gamma.len(), self.graph.schema().n_relations());

        let n = self.graph.n_objects();
        let k = self.k;
        let smoothing = self.theta_smoothing;
        let tables: Vec<&AttributeData> = self
            .attr_ids
            .iter()
            .map(|&a| self.graph.attribute(a))
            .collect();

        let n_chunks = pool::n_chunks(n);
        // An empty graph still gets one (empty) partial to finalize from.
        self.chunks
            .resize_with(n_chunks.max(1), ChunkPartial::default);
        for chunk in &mut self.chunks {
            chunk.prepare(components);
        }
        let pool = self.pool.as_ref();
        {
            let graph = self.graph;
            // Chunk partials and responsibility rows are lent to the workers
            // mutably-but-disjointly: `for_each_chunk` runs each chunk once
            // and never lets two running calls share a slot, so every lock
            // below is uncontended.
            let chunk_cells: Vec<std::sync::Mutex<&mut ChunkPartial>> =
                self.chunks.iter_mut().map(std::sync::Mutex::new).collect();
            let resp_cells: Vec<std::sync::Mutex<&mut Vec<f64>>> =
                self.resp.iter_mut().map(std::sync::Mutex::new).collect();
            let rows = DisjointRows::new(out.as_mut_slice());
            let tables = &tables;
            pool::for_each_chunk(pool, n_chunks, &|slot, c| {
                let range = pool::chunk_range(c, n);
                let mut chunk = chunk_cells[c]
                    .lock()
                    .expect("chunk lock cannot be poisoned");
                let mut resp = resp_cells[slot]
                    .lock()
                    .expect("scratch lock cannot be poisoned");
                // SAFETY: chunk `c` covers rows `range`, disjoint from every
                // other chunk, and runs once.
                let out_rows = unsafe { rows.slice_mut(range.start * k, range.end * k) };
                let ChunkPartial { accs, max_delta } = &mut **chunk;
                *max_delta = process_range(
                    graph, tables, components, theta, gamma, range, out_rows, accs, &mut resp, k,
                    smoothing,
                );
            });
        }

        // Merge the chunk partials in chunk order: the same additions in
        // the same order for every thread count.
        let (first, rest) = self.chunks.split_at_mut(1);
        let first = &mut first[0];
        let mut max_delta = first.max_delta;
        // lint: region(hot-path)
        for other in rest.iter() {
            for (m, a) in first.accs.iter_mut().zip(&other.accs) {
                m.merge(a);
            }
            max_delta = max_delta.max(other.max_delta);
        }
        // lint: end-region

        let new_components: Vec<ClusterComponents> = first
            .accs
            .iter()
            .zip(components)
            .map(|(acc, prev)| acc.finalize(prev, self.beta_floor, self.variance_floor))
            .collect();

        (new_components, max_delta)
    }
}

/// Processes the objects of `range`, writing new membership rows into
/// `out_rows` (a flat slice starting at object `range.start`) and
/// accumulating sufficient statistics into `accs`; `resp` is a `K`-long
/// scratch row. Returns the range's max-abs membership delta.
// lint: region(hot-path)
#[allow(clippy::too_many_arguments)]
fn process_range(
    graph: &HinGraph,
    tables: &[&AttributeData],
    components: &[ClusterComponents],
    theta_old: &MembershipMatrix,
    gamma: &[f64],
    range: std::ops::Range<usize>,
    out_rows: &mut [f64],
    accs: &mut [ComponentAccumulator],
    resp: &mut [f64],
    k: usize,
    smoothing: f64,
) -> f64 {
    let start = range.start;
    let mut local_delta = 0.0f64;

    for v_idx in range {
        let v = genclus_hin::ObjectId::from_index(v_idx);
        let out_row = &mut out_rows[(v_idx - start) * k..(v_idx - start + 1) * k];
        out_row.iter_mut().for_each(|x| *x = 0.0);

        // Link term of Eq. 10: Σ_{e=⟨v,u⟩} γ(φ(e)) w(e) θ_{u,k}, iterated
        // per relation segment so γ(φ(e)) is fetched once per relation.
        for (rel, links) in graph.out_relation_segments(v) {
            let g = gamma[rel.index()];
            if g == 0.0 {
                continue;
            }
            for link in links {
                let gw = g * link.weight;
                let tu = theta_old.row(link.endpoint.index());
                for (o, &t) in out_row.iter_mut().zip(tu) {
                    *o += gw * t;
                }
            }
        }

        // Attribute term: responsibility mass per cluster, also feeding the
        // component accumulators for the β M-step through the shared
        // kernel helpers (the serve crate's fold-in calls the same helpers
        // with a no-op sink).
        let tv = theta_old.row(v_idx);
        for ((table, comp), acc) in tables.iter().zip(components).zip(accs.iter_mut()) {
            match (table, comp) {
                (AttributeData::Categorical { .. }, ClusterComponents::Categorical(cat)) => {
                    categorical_responsibility_mass(
                        tv,
                        cat,
                        table.term_counts(v),
                        out_row,
                        resp,
                        |kk, term, mass| acc.add_term(kk, term, mass),
                    );
                }
                (AttributeData::Numerical { .. }, ClusterComponents::Gaussian(gauss)) => {
                    gaussian_responsibility_mass(
                        tv,
                        gauss,
                        table.values(v),
                        out_row,
                        resp,
                        |kk, x, r| acc.add_value(kk, x, r),
                    );
                }
                _ => unreachable!("attribute kind / component kind mismatch"),
            }
        }

        normalize_floored(out_row);
        if smoothing > 0.0 {
            let uniform = smoothing / k as f64;
            out_row
                .iter_mut()
                .for_each(|o| *o = (1.0 - smoothing) * *o + uniform);
        }
        for (o, t) in out_row.iter().zip(tv) {
            local_delta = local_delta.max((o - t).abs());
        }
    }
    local_delta
}
// lint: end-region

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr_model::GaussianComponents;
    use crate::em_reference::ReferenceEmKernel;
    use genclus_hin::{HinBuilder, Schema};
    use genclus_stats::seeded_rng;
    use rand::Rng;

    /// Six objects in two planted clusters {0,1,2} and {3,4,5}; objects 0 and
    /// 3 carry clear numerical observations, the rest carry none and must be
    /// pulled in by links.
    fn planted_network() -> (HinGraph, AttributeId) {
        let mut s = Schema::new();
        let t = s.add_object_type("node");
        let r = s.add_relation("nn", t, t);
        let attr = s.add_numerical_attribute("value");
        let mut b = HinBuilder::new(s);
        let vs: Vec<_> = (0..6).map(|i| b.add_object(t, format!("v{i}"))).collect();
        // Dense intra-cluster links, both directions.
        for group in [[0usize, 1, 2], [3, 4, 5]] {
            for &i in &group {
                for &j in &group {
                    if i != j {
                        b.add_link(vs[i], vs[j], r, 1.0).unwrap();
                    }
                }
            }
        }
        // Observations only at the "anchor" objects — incomplete attributes.
        for x in [-5.0, -5.2, -4.8] {
            b.add_numeric(vs[0], attr, x).unwrap();
        }
        for x in [5.0, 5.2, 4.8] {
            b.add_numeric(vs[3], attr, x).unwrap();
        }
        (b.build().unwrap(), attr)
    }

    /// A larger randomized two-type network with three relations, both
    /// attribute kinds, and ~40% missing observations — the stress shape for
    /// the serial/parallel and cached/naive equivalence tests.
    fn randomized_network(seed: u64, n_per_type: usize) -> (HinGraph, Vec<AttributeId>) {
        let (b, attrs) = randomized_builder(seed, n_per_type);
        (b.build().unwrap(), attrs)
    }

    /// The unbuilt history behind [`randomized_network`], so a test can
    /// extend it and build once.
    fn randomized_builder(seed: u64, n_per_type: usize) -> (HinBuilder, Vec<AttributeId>) {
        let mut rng = seeded_rng(seed);
        let mut s = Schema::new();
        let ta = s.add_object_type("A");
        let tb = s.add_object_type("B");
        let ab = s.add_relation("ab", ta, tb);
        let ba = s.add_relation("ba", tb, ta);
        let aa = s.add_relation("aa", ta, ta);
        let text = s.add_categorical_attribute("text", 9);
        let num = s.add_numerical_attribute("num");
        let mut b = HinBuilder::new(s);
        let a_ids: Vec<_> = (0..n_per_type)
            .map(|i| b.add_object(ta, format!("a{i}")))
            .collect();
        let b_ids: Vec<_> = (0..n_per_type)
            .map(|i| b.add_object(tb, format!("b{i}")))
            .collect();
        for i in 0..n_per_type {
            b.add_link(a_ids[i], b_ids[i], ab, 1.0).unwrap();
            b.add_link(b_ids[i], a_ids[(i + 1) % n_per_type], ba, 1.0)
                .unwrap();
            for _ in 0..3 {
                let j = rng.gen_range(0..n_per_type);
                b.add_link(a_ids[i], b_ids[j], ab, rng.gen_range(0.5..2.0))
                    .unwrap();
                let j = rng.gen_range(0..n_per_type);
                if j != i {
                    b.add_link(a_ids[i], a_ids[j], aa, rng.gen_range(0.5..3.0))
                        .unwrap();
                }
            }
            if rng.gen_bool(0.6) {
                for _ in 0..rng.gen_range(1..5) {
                    b.add_term_count(a_ids[i], text, rng.gen_range(0..9), rng.gen_range(1.0..3.0))
                        .unwrap();
                }
            }
            if rng.gen_bool(0.6) {
                for _ in 0..rng.gen_range(1..4) {
                    b.add_numeric(b_ids[i], num, rng.gen_range(-4.0..4.0))
                        .unwrap();
                }
            }
        }
        (b, vec![text, num])
    }

    fn randomized_state(
        g: &HinGraph,
        attrs: &[AttributeId],
        k: usize,
        seed: u64,
    ) -> (MembershipMatrix, Vec<ClusterComponents>) {
        let mut rng = seeded_rng(seed);
        let theta = MembershipMatrix::random(g.n_objects(), k, &mut rng);
        let comps = attrs
            .iter()
            .map(|&a| ClusterComponents::init(k, g.attribute(a), &mut rng, 1e-9, 1e-6))
            .collect();
        (theta, comps)
    }

    fn engine(g: &HinGraph, attr: AttributeId, threads: usize) -> EmEngine<'_> {
        EmEngine::new(g, &[attr], 2, threads, 1e-9, 1e-6)
    }

    fn initial_state(
        g: &HinGraph,
        attr: AttributeId,
        seed: u64,
    ) -> (MembershipMatrix, Vec<ClusterComponents>) {
        let mut rng = seeded_rng(seed);
        let theta = MembershipMatrix::random(g.n_objects(), 2, &mut rng);
        let comps = vec![ClusterComponents::init(
            2,
            g.attribute(attr),
            &mut rng,
            1e-9,
            1e-6,
        )];
        (theta, comps)
    }

    #[test]
    fn step_preserves_simplex_invariant() {
        let (g, attr) = planted_network();
        let (theta, comps) = initial_state(&g, attr, 7);
        let mut eng = engine(&g, attr, 1);
        let out = eng.step(&theta, &comps, &[1.0]);
        for i in 0..g.n_objects() {
            let row = out.theta.row(i);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&x| x > 0.0));
        }
        assert!(out.max_delta >= 0.0);
    }

    #[test]
    fn em_recovers_planted_clusters() {
        let (g, attr) = planted_network();
        let (theta, comps) = initial_state(&g, attr, 3);
        let mut eng = engine(&g, attr, 1);
        let (theta, comps, iters) = eng.run(theta, comps, &[1.0], 60, 1e-8);
        assert!(iters >= 2);
        let labels = theta.hard_labels();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3], "the two planted groups must separate");
        // The Gaussian components must land near ±5.
        if let ClusterComponents::Gaussian(gc) = &comps[0] {
            let mut means = [gc.mean(0), gc.mean(1)];
            means.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!((means[0] + 5.0).abs() < 0.5, "means {means:?}");
            assert!((means[1] - 5.0).abs() < 0.5, "means {means:?}");
        } else {
            panic!("expected Gaussian components");
        }
    }

    #[test]
    fn attributeless_objects_follow_their_neighbors() {
        let (g, attr) = planted_network();
        let (theta, comps) = initial_state(&g, attr, 11);
        let mut eng = engine(&g, attr, 1);
        let (theta, _, _) = eng.run(theta, comps, &[1.0], 60, 1e-8);
        // Object 1 has no observations; its membership must match anchor 0's.
        let anchor = theta.row(0);
        let follower = theta.row(1);
        let k_anchor = genclus_stats::simplex::argmax(anchor);
        assert_eq!(genclus_stats::simplex::argmax(follower), k_anchor);
        assert!(follower[k_anchor] > 0.9);
    }

    #[test]
    fn parallel_step_matches_serial_exactly() {
        let (g, attr) = planted_network();
        let (theta, comps) = initial_state(&g, attr, 13);
        let serial = engine(&g, attr, 1).step(&theta, &comps, &[1.0]);
        for threads in [2, 3, 4] {
            let par = engine(&g, attr, threads).step(&theta, &comps, &[1.0]);
            assert_eq!(
                serial.theta.max_abs_diff(&par.theta),
                0.0,
                "thread count {threads} changed Θ"
            );
            // Chunk partials merge in chunk order whatever the thread
            // count, so the parameters agree bit for bit.
            match (&serial.components[0], &par.components[0]) {
                (ClusterComponents::Gaussian(a), ClusterComponents::Gaussian(b)) => {
                    for k in 0..2 {
                        assert_eq!(a.mean(k).to_bits(), b.mean(k).to_bits());
                        assert_eq!(a.variance(k).to_bits(), b.variance(k).to_bits());
                    }
                }
                _ => panic!("expected Gaussian components"),
            }
            assert_eq!(serial.max_delta, par.max_delta);
        }
    }

    #[test]
    fn parallel_step_matches_serial_on_randomized_multi_relation_graph() {
        for seed in [5u64, 17, 4242] {
            let (g, attrs) = randomized_network(seed, 60);
            let k = 3;
            let (theta, comps) = randomized_state(&g, &attrs, k, seed ^ 0x5eed);
            let gamma = [1.3, 0.4, 2.0];
            let mut serial_eng = EmEngine::new(&g, &attrs, k, 1, 1e-9, 1e-6);
            let serial = serial_eng.step(&theta, &comps, &gamma);
            for threads in [2, 3, 4, 7] {
                let mut eng = EmEngine::new(&g, &attrs, k, threads, 1e-9, 1e-6);
                let par = eng.step(&theta, &comps, &gamma);
                assert!(
                    serial.theta.max_abs_diff(&par.theta) < 1e-12,
                    "seed {seed}, {threads} threads changed Θ by {}",
                    serial.theta.max_abs_diff(&par.theta)
                );
                assert!((serial.max_delta - par.max_delta).abs() < 1e-12);
            }
            // And the equivalence must survive several chained iterations.
            let mut eng4 = EmEngine::new(&g, &attrs, k, 4, 1e-9, 1e-6);
            let (t1, _, i1) = serial_eng.run(theta.clone(), comps.clone(), &gamma, 5, 0.0);
            let (t4, _, i4) = eng4.run(theta, comps, &gamma, 5, 0.0);
            assert_eq!(i1, i4);
            assert!(
                t1.max_abs_diff(&t4) < 1e-9,
                "seed {seed}: 5-iteration drift {}",
                t1.max_abs_diff(&t4)
            );
        }
    }

    /// The optimization acceptance gate: the cached-log kernel must be
    /// behavior-preserving against the naive per-observation-`ln` reference
    /// to ≤ 1e-12 per Θ entry.
    #[test]
    fn cached_kernel_matches_naive_reference_step() {
        for seed in [2u64, 23, 1234] {
            let (g, attrs) = randomized_network(seed, 50);
            let k = 4;
            let (theta, comps) = randomized_state(&g, &attrs, k, seed.wrapping_mul(31));
            let gamma = [0.7, 1.9, 0.1];
            for smoothing in [0.0, 0.05] {
                let mut opt = EmEngine::new(&g, &attrs, k, 1, 1e-9, 1e-6).with_smoothing(smoothing);
                let naive =
                    ReferenceEmKernel::new(&g, &attrs, k, 1, 1e-9, 1e-6).with_smoothing(smoothing);
                let a = opt.step(&theta, &comps, &gamma);
                let b = naive.step(&theta, &comps, &gamma);
                let diff = a.theta.max_abs_diff(&b.theta);
                assert!(
                    diff <= 1e-12,
                    "seed {seed} smoothing {smoothing}: cached vs naive Θ diff {diff}"
                );
                assert!((a.max_delta - b.max_delta).abs() <= 1e-12);
                for (ca, cb) in a.components.iter().zip(&b.components) {
                    match (ca, cb) {
                        (ClusterComponents::Gaussian(x), ClusterComponents::Gaussian(y)) => {
                            for kk in 0..k {
                                assert!((x.mean(kk) - y.mean(kk)).abs() < 1e-10);
                                assert!((x.variance(kk) - y.variance(kk)).abs() < 1e-10);
                            }
                        }
                        (ClusterComponents::Categorical(x), ClusterComponents::Categorical(y)) => {
                            for kk in 0..k {
                                for l in 0..x.vocab_size() as u32 {
                                    assert!((x.prob(kk, l) - y.prob(kk, l)).abs() < 1e-10);
                                }
                            }
                        }
                        _ => panic!("component kinds diverged"),
                    }
                }
            }
        }
    }

    /// A graph grown with old-source / staged→staged links must step
    /// bit-identically to a from-scratch build of the same history — the
    /// warm-refresh path fits exactly such graphs.
    #[test]
    fn appended_graph_steps_bit_identically_to_rebuild() {
        use genclus_hin::{GraphDelta, ObjectId, ObjectTypeId, RelationId};
        for seed in [3u64, 19] {
            let n = 40;
            let (g, attrs) = randomized_network(seed, n);
            let schema = g.schema().clone();
            let ta = schema.object_type_by_name("A").unwrap();
            let tb = schema.object_type_by_name("B").unwrap();
            let ab = schema.relation_by_name("ab").unwrap();
            let aa = schema.relation_by_name("aa").unwrap();
            let (na, nb) = (ObjectId(2 * n as u32), ObjectId(2 * n as u32 + 1));
            let new_objects: [(ObjectTypeId, &str); 2] = [(ta, "new-a"), (tb, "new-b")];
            let new_links: [(ObjectId, ObjectId, RelationId, f64); 5] = [
                (ObjectId(0), nb, ab, 1.3),                 // old → staged
                (ObjectId(1), ObjectId(n as u32), ab, 0.7), // old → old
                (ObjectId(2), ObjectId(3), aa, 2.1),        // old → old
                (na, ObjectId(n as u32 + 1), ab, 0.9),      // new → old
                (na, nb, ab, 1.1),                          // staged → staged
            ];

            let mut grown = g;
            let mut d = GraphDelta::new(&grown);
            for (t, name) in new_objects {
                d.add_object(t, name);
            }
            for (src, dst, r, w) in new_links {
                d.add_link(src, dst, r, w).unwrap();
            }
            grown.append(d).unwrap();
            let (mut b, _) = randomized_builder(seed, n);
            for (t, name) in new_objects {
                b.add_object(t, name);
            }
            for (src, dst, r, w) in new_links {
                b.add_link(src, dst, r, w).unwrap();
            }
            let rebuilt = b.build().unwrap();

            let k = 3;
            let (theta, comps) = randomized_state(&grown, &attrs, k, seed ^ 0xf00d);
            let gamma = [1.1, 0.6, 1.7];
            let mut live_eng = EmEngine::new(&grown, &attrs, k, 1, 1e-9, 1e-6);
            let live = live_eng.step(&theta, &comps, &gamma);
            let fresh =
                EmEngine::new(&rebuilt, &attrs, k, 1, 1e-9, 1e-6).step(&theta, &comps, &gamma);
            assert_eq!(
                live.theta.max_abs_diff(&fresh.theta),
                0.0,
                "seed {seed}: appended vs rebuilt Θ must be bit-identical"
            );
            assert_eq!(live.max_delta, fresh.max_delta);
            assert_eq!(live.components, fresh.components);
            // The naive reference kernel walks the full out_links iterator
            // and must agree with the cached kernel on the grown graph too.
            let naive = ReferenceEmKernel::new(&grown, &attrs, k, 1, 1e-9, 1e-6)
                .step(&theta, &comps, &gamma);
            assert!(live.theta.max_abs_diff(&naive.theta) <= 1e-12);
            // And the parallel path sees the same adjacency.
            let par = EmEngine::new(&grown, &attrs, k, 3, 1e-9, 1e-6).step(&theta, &comps, &gamma);
            assert!(live.theta.max_abs_diff(&par.theta) < 1e-12);
            // Multi-iteration runs stay locked together.
            let (t_live, c_live, i_live) =
                live_eng.run(theta.clone(), comps.clone(), &gamma, 5, 0.0);
            let (t_fresh, c_fresh, i_fresh) =
                EmEngine::new(&rebuilt, &attrs, k, 1, 1e-9, 1e-6).run(theta, comps, &gamma, 5, 0.0);
            assert_eq!(i_live, i_fresh);
            assert_eq!(t_live.max_abs_diff(&t_fresh), 0.0);
            assert_eq!(c_live, c_fresh);
        }
    }

    /// The reference kernel's parallel path is equivalent too, so the
    /// bench harness can compare like against like at any thread count.
    #[test]
    fn naive_reference_parallel_matches_its_serial() {
        let (g, attrs) = randomized_network(77, 40);
        let (theta, comps) = randomized_state(&g, &attrs, 3, 99);
        let gamma = [1.0, 1.0, 1.0];
        let serial =
            ReferenceEmKernel::new(&g, &attrs, 3, 1, 1e-9, 1e-6).step(&theta, &comps, &gamma);
        let par = ReferenceEmKernel::new(&g, &attrs, 3, 4, 1e-9, 1e-6).step(&theta, &comps, &gamma);
        assert!(serial.theta.max_abs_diff(&par.theta) < 1e-12);
    }

    #[test]
    fn zero_gamma_makes_links_irrelevant() {
        let (g, attr) = planted_network();
        // With γ = 0 and no observations, object 1's row comes out uniform.
        let theta = MembershipMatrix::uniform(g.n_objects(), 2);
        let comps = vec![ClusterComponents::Gaussian(
            GaussianComponents::from_params(vec![-5.0, 5.0], vec![0.1, 0.1], 1e-6),
        )];
        let mut eng = engine(&g, attr, 1);
        let out = eng.step(&theta, &comps, &[0.0]);
        let row = out.theta.row(1);
        assert!((row[0] - 0.5).abs() < 1e-9, "uniform expected, got {row:?}");
        // While anchor 0 still snaps to its observations.
        assert!(out.theta.row(0)[0] > 0.99);
    }

    #[test]
    fn smoothing_keeps_tails_off_the_floor() {
        let (g, attr) = planted_network();
        let (theta, comps) = initial_state(&g, attr, 21);
        // Raw update: anchor memberships collapse towards the floor.
        let mut raw = engine(&g, attr, 1);
        let (theta_raw, _, _) = raw.run(theta.clone(), comps.clone(), &[1.0], 60, 1e-8);
        // Smoothed update: every entry keeps a visible tail.
        let mut smoothed = EmEngine::new(&g, &[attr], 2, 1, 1e-9, 1e-6).with_smoothing(0.05);
        let (theta_s, _, _) = smoothed.run(theta, comps, &[1.0], 60, 1e-8);
        let raw_min = theta_raw
            .as_slice()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let smooth_min = theta_s
            .as_slice()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(smooth_min > 0.01, "smoothed tails too small: {smooth_min}");
        assert!(smooth_min > raw_min);
        // And the planted clusters are still recovered.
        let labels = theta_s.hard_labels();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn run_converges_and_stops_early() {
        let (g, attr) = planted_network();
        let (theta, comps) = initial_state(&g, attr, 5);
        let mut eng = engine(&g, attr, 1);
        let (_, _, iters) = eng.run(theta, comps, &[1.0], 500, 1e-10);
        assert!(iters < 500, "EM should converge well before 500 iterations");
    }

    #[test]
    fn engine_reuse_across_runs_is_stable() {
        // The double-buffer spare and scratch reuse must not leak state
        // between runs: re-running from the same start gives the same answer.
        let (g, attr) = planted_network();
        let mut eng = engine(&g, attr, 2);
        let (theta, comps) = initial_state(&g, attr, 3);
        let (t1, _, _) = eng.run(theta.clone(), comps.clone(), &[1.0], 20, 1e-9);
        let (t2, _, _) = eng.run(theta, comps, &[1.0], 20, 1e-9);
        assert_eq!(t1.max_abs_diff(&t2), 0.0);
    }
}

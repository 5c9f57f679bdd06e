//! The naive EM step kernel, kept as a provably-equivalent baseline.
//!
//! This is the seed implementation of the inner EM sweep, preserved
//! verbatim in spirit: it calls `ln` **per observation** (`θ_{v,k}.ln()`
//! and `β_{k,l}.ln()` / the Gaussian `ln(2πσ²)` every time), allocates its
//! scratch (responsibility row, accumulators, output matrix) on **every
//! step**, and spawns scoped OS threads **per step** instead of keeping a
//! worker pool. The optimized kernel in [`crate::em`] must produce the same
//! `Θ` to ≤ 1e-12 per entry (asserted by `cached_kernel_matches_naive_*`
//! tests) and beat it on wall-time by at least 1.5× (the `kernel` gate of
//! the `bench_gates` binary, see `BENCH_gates.json`).
//!
//! Do not "fix" the inefficiencies here — they are the yardstick.

use crate::attr_model::{ClusterComponents, ComponentAccumulator};
use crate::em::EmStepResult;
use genclus_hin::{AttributeData, AttributeId, HinGraph};
use genclus_stats::logsumexp::normalize_log_weights;
use genclus_stats::simplex::normalize_floored;
use genclus_stats::MembershipMatrix;

/// Configuration mirror of [`crate::em::EmEngine`] for the naive kernel.
pub struct ReferenceEmKernel<'g> {
    graph: &'g HinGraph,
    attr_ids: Vec<AttributeId>,
    k: usize,
    threads: usize,
    beta_floor: f64,
    variance_floor: f64,
    theta_smoothing: f64,
}

impl<'g> ReferenceEmKernel<'g> {
    /// Creates the naive kernel with the same parameters as
    /// [`crate::em::EmEngine::new`].
    pub fn new(
        graph: &'g HinGraph,
        attr_ids: &[AttributeId],
        k: usize,
        threads: usize,
        beta_floor: f64,
        variance_floor: f64,
    ) -> Self {
        Self {
            graph,
            attr_ids: attr_ids.to_vec(),
            k,
            threads: threads.max(1),
            beta_floor,
            variance_floor,
            theta_smoothing: 0.0,
        }
    }

    /// See [`crate::em::EmEngine::with_smoothing`].
    pub fn with_smoothing(mut self, epsilon: f64) -> Self {
        assert!((0.0..1.0).contains(&epsilon), "smoothing must be in [0, 1)");
        self.theta_smoothing = epsilon;
        self
    }

    /// One naive E+M iteration: fresh allocations throughout and, for
    /// `threads > 1`, a fresh scoped thread spawn.
    pub fn step(
        &self,
        theta: &MembershipMatrix,
        components: &[ClusterComponents],
        gamma: &[f64],
    ) -> EmStepResult {
        let n = self.graph.n_objects();
        let k = self.k;
        let tables: Vec<&AttributeData> = self
            .attr_ids
            .iter()
            .map(|&a| self.graph.attribute(a))
            .collect();

        let mut new_theta = MembershipMatrix::uniform(n, k);
        let rows_per_chunk = n.div_ceil(self.threads);
        let smoothing = self.theta_smoothing;

        let (accumulators, max_delta) = if self.threads == 1 {
            let mut accs: Vec<ComponentAccumulator> = components
                .iter()
                .map(ComponentAccumulator::zeros_like)
                .collect();
            let delta = naive_range(
                self.graph,
                &tables,
                components,
                theta,
                gamma,
                0,
                n,
                new_theta.as_mut_slice(),
                &mut accs,
                k,
                smoothing,
            );
            (accs, delta)
        } else {
            let graph = self.graph;
            let chunks: Vec<&mut [f64]> = new_theta.par_chunks_mut(rows_per_chunk).collect();
            let tables = &tables;
            let results: Vec<(Vec<ComponentAccumulator>, f64)> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (chunk_idx, chunk) in chunks.into_iter().enumerate() {
                    let start = chunk_idx * rows_per_chunk;
                    let end = (start + chunk.len() / k).min(n);
                    handles.push(scope.spawn(move || {
                        let mut accs: Vec<ComponentAccumulator> = components
                            .iter()
                            .map(ComponentAccumulator::zeros_like)
                            .collect();
                        let delta = naive_range(
                            graph, tables, components, theta, gamma, start, end, chunk, &mut accs,
                            k, smoothing,
                        );
                        (accs, delta)
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("EM worker panicked"))
                    .collect()
            });

            let mut merged: Vec<ComponentAccumulator> = components
                .iter()
                .map(ComponentAccumulator::zeros_like)
                .collect();
            let mut max_delta = 0.0f64;
            for (accs, delta) in results {
                for (m, a) in merged.iter_mut().zip(&accs) {
                    m.merge(a);
                }
                max_delta = max_delta.max(delta);
            }
            (merged, max_delta)
        };

        let new_components: Vec<ClusterComponents> = accumulators
            .iter()
            .zip(components)
            .map(|(acc, prev)| acc.finalize(prev, self.beta_floor, self.variance_floor))
            .collect();

        EmStepResult {
            theta: new_theta,
            components: new_components,
            max_delta,
        }
    }
}

/// The naive per-object pass: `ln` per observation, no cached tables.
#[allow(clippy::too_many_arguments)]
fn naive_range(
    graph: &HinGraph,
    tables: &[&AttributeData],
    components: &[ClusterComponents],
    theta_old: &MembershipMatrix,
    gamma: &[f64],
    start: usize,
    end: usize,
    out_rows: &mut [f64],
    accs: &mut [ComponentAccumulator],
    k: usize,
    smoothing: f64,
) -> f64 {
    let mut resp = vec![0.0f64; k];
    let mut max_delta = 0.0f64;

    for v_idx in start..end {
        let v = genclus_hin::ObjectId::from_index(v_idx);
        let out_row = &mut out_rows[(v_idx - start) * k..(v_idx - start + 1) * k];
        out_row.iter_mut().for_each(|x| *x = 0.0);

        for link in graph.out_links(v) {
            let gw = gamma[link.relation.index()] * link.weight;
            if gw == 0.0 {
                continue;
            }
            let tu = theta_old.row(link.endpoint.index());
            for (o, &t) in out_row.iter_mut().zip(tu) {
                *o += gw * t;
            }
        }

        let tv = theta_old.row(v_idx);
        for ((table, comp), acc) in tables.iter().zip(components).zip(accs.iter_mut()) {
            match (table, comp) {
                (AttributeData::Categorical { .. }, ClusterComponents::Categorical(cat)) => {
                    for &(term, count) in table.term_counts(v) {
                        for (kk, r) in resp.iter_mut().enumerate() {
                            // Per-observation logs, recomputed every time.
                            *r = tv[kk].ln() + cat.prob(kk, term).ln();
                        }
                        normalize_log_weights(&mut resp);
                        for (kk, &r) in resp.iter().enumerate() {
                            let mass = count * r;
                            out_row[kk] += mass;
                            acc.add_term(kk, term, mass);
                        }
                    }
                }
                (AttributeData::Numerical { .. }, ClusterComponents::Gaussian(gauss)) => {
                    for &x in table.values(v) {
                        for (kk, r) in resp.iter_mut().enumerate() {
                            let d = x - gauss.mean(kk);
                            let var = gauss.variance(kk);
                            // The closed form with its ln(2πσ²) per
                            // observation.
                            *r = tv[kk].ln()
                                - 0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var);
                        }
                        normalize_log_weights(&mut resp);
                        for (kk, &r) in resp.iter().enumerate() {
                            out_row[kk] += r;
                            acc.add_value(kk, x, r);
                        }
                    }
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
            max_delta = max_delta.max((o - t).abs());
        }
    }
    max_delta
}

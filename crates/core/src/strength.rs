//! Link-type strength learning (Algorithm 1, step 2).
//!
//! With `(Θ, β)` fixed, GenClus maximizes the regularized
//! pseudo-log-likelihood `g₂'(γ)` of Eq. 14 over `γ ≥ 0`:
//!
//! ```text
//! g₂'(γ) = Σ_i [ Σ_{e=⟨v_i,v_j⟩} f(θ_i, θ_j, e, γ) − ln B(α_i(γ)) ] − ‖γ‖²/(2σ²)
//! α_ik(γ) = Σ_{e=⟨v_i,v_j⟩} γ(φ(e)) w(e) θ_{j,k} + 1
//! ```
//!
//! because each conditional `p(θ_i | out-neighbors)` is a `Dirichlet(α_i)`
//! (Eq. 15), whose local partition function `Z_i = B(α_i)` makes the gradient
//! (Eq. 16) and Hessian (Eq. 17) closed-form in digamma/trigamma. `g₂'` is
//! concave (Appendix B), so the projected Newton solver from `genclus-stats`
//! converges in a handful of iterations.
//!
//! The effect, in the paper's words: link types that connect objects with
//! dissimilar memberships are *punished* with low strengths; consistent link
//! types earn high strengths, and thereafter dominate membership propagation
//! in the next cluster-optimization step.
//!
//! # Cost
//!
//! A fit calls strength learning once per outer iteration, on a `Θ` of
//! 100k+ objects, so the pass structure matters:
//!
//! * **Layout once per fit.** Which `(object, relation)` entries exist and
//!   their total weights `w` depend only on the graph. A
//!   [`StrengthSession`] builds them once; each [`StrengthSession::learn`]
//!   refills only the `Θ`-dependent `feat` and `s`.
//! * **On the EM worker pool.** The refill, the value pass and the
//!   derivative pass are fixed-chunk passes
//!   ([`crate::pool::ChunkBuffers`]): per-chunk partials summed in chunk
//!   order, so `γ` is bit-identical for every thread count. The session
//!   borrows the pool that [`crate::em::EmEngine`] already owns.
//! * **One fused derivative pass.** Each Newton iteration computes `α_i`,
//!   `ψ(α_i)` and `ψ′(α_i)` once per object and accumulates the gradient and
//!   the Hessian together ([`NewtonProblem::gradient_hessian`]).
//! * **Workers allocate nothing.** Partials and per-worker `α`/`ψ`/`ψ′`
//!   scratch are sized on the caller and reused across passes.

use crate::pool::{self, ChunkBuffers, DisjointRows, WorkerPool};
use genclus_hin::{HinGraph, ObjectId};
use genclus_stats::dirichlet::ln_beta;
use genclus_stats::newton::NewtonProblem;
use genclus_stats::special::digamma_trigamma;
use genclus_stats::{Matrix, MembershipMatrix, NewtonOptions, NewtonOutcome, ProjectedNewton};
use std::cell::RefCell;

/// Per-object, per-relation sufficient statistics of the pseudo-likelihood,
/// stored column-wise.
///
/// Entry `e` stands for object `i` and relation `rel[e]` with at least one
/// out-link `⟨v_i, v_j⟩`: `w[e] = Σ_e w(e)`, `feat[e] = Σ_e w(e) Σ_k θ_{j,k}
/// ln θ_{i,k}` (the feature sum divided by `γ_r`), and `s[e·K..(e+1)·K]` holds
/// `s_k = Σ_e w(e) θ_{j,k}` (so `α_ik = Σ_r γ_r s_irk + 1`). The entry
/// ranges, `rel` and `w` depend on the graph only; `feat` and `s` are
/// refilled for every `Θ`.
#[derive(Debug)]
struct Stats {
    /// Entry ranges per object: entries `obj_ranges[i]..obj_ranges[i+1]`.
    obj_ranges: Vec<usize>,
    rel: Vec<usize>,
    w: Vec<f64>,
    feat: Vec<f64>,
    s: Vec<f64>,
    k: usize,
}

impl Stats {
    /// The entries of object `v`.
    #[inline]
    fn entries(&self, v: usize) -> std::ops::Range<usize> {
        self.obj_ranges[v]..self.obj_ranges[v + 1]
    }

    #[inline]
    fn s(&self, e: usize) -> &[f64] {
        &self.s[e * self.k..(e + 1) * self.k]
    }

    fn n_objects(&self) -> usize {
        self.obj_ranges.len() - 1
    }
}

/// The concave objective `g₂'` as a [`NewtonProblem`].
#[derive(Debug)]
struct PseudoLikelihood {
    stats: Stats,
    n_relations: usize,
    sigma2: f64,
    /// Reduction buffers reused by every pass.
    buffers: RefCell<ChunkBuffers>,
}

impl PseudoLikelihood {
    /// Builds the statistics from the network and current memberships.
    fn build(graph: &HinGraph, theta: &MembershipMatrix, sigma: f64) -> Self {
        let mut problem = Self::layout(graph, theta.n_clusters(), sigma);
        problem.refill(graph, theta, None);
        problem
    }

    /// The graph-only part: entry ranges, relations and weights, with
    /// `feat` and `s` sized but zero.
    ///
    /// The graph's per-relation out-link segments
    /// ([`HinGraph::out_relation_segments`]) already group every object's
    /// links by relation. A graph carrying overflow segments yields up to
    /// two consecutive chunks per relation (base, then overflow); they
    /// accumulate into **one** entry, link by link in the same order a
    /// compacted CSR would present — the statistics are bit-identical
    /// either way.
    fn layout(graph: &HinGraph, k: usize, sigma: f64) -> Self {
        let mut obj_ranges = Vec::with_capacity(graph.n_objects() + 1);
        let mut rel: Vec<usize> = Vec::new();
        let mut w: Vec<f64> = Vec::new();
        obj_ranges.push(0);
        for v in graph.objects() {
            let obj_start = rel.len();
            for (r, links) in graph.out_relation_segments(v) {
                // An overflow chunk continues the relation's entry opened
                // by its base chunk (chunks of one relation are adjacent).
                if rel.len() == obj_start || rel.last() != Some(&r.index()) {
                    rel.push(r.index());
                    w.push(0.0);
                }
                let we = w.last_mut().expect("entry just ensured");
                for link in links {
                    *we += link.weight;
                }
            }
            obj_ranges.push(rel.len());
        }
        let n_entries = rel.len();
        Self {
            stats: Stats {
                obj_ranges,
                rel,
                w,
                feat: vec![0.0; n_entries],
                s: vec![0.0; n_entries * k],
                k,
            },
            n_relations: graph.schema().n_relations(),
            sigma2: sigma * sigma,
            buffers: RefCell::new(ChunkBuffers::default()),
        }
    }

    /// Refills `feat` and `s` for `theta`, chunk-parallel on `pool`. Each
    /// object's entries are a contiguous range, disjoint from every other
    /// object's.
    fn refill(&mut self, graph: &HinGraph, theta: &MembershipMatrix, pool: Option<&WorkerPool>) {
        let Stats {
            obj_ranges,
            rel,
            feat,
            s,
            k,
            ..
        } = &mut self.stats;
        let (k, obj_ranges, rel) = (*k, &*obj_ranges, &*rel);
        debug_assert_eq!(theta.n_clusters(), k);
        let n = graph.n_objects();
        let feat = DisjointRows::new(feat);
        let s = DisjointRows::new(s);
        pool::for_each_chunk(pool, pool::n_chunks(n), &|_, c| {
            let objects = pool::chunk_range(c, n);
            let (lo, hi) = (obj_ranges[objects.start], obj_ranges[objects.end]);
            // SAFETY: chunk `c` runs once, and its objects own entries
            // `lo..hi`, disjoint from every other chunk's.
            let (feat, s) = unsafe { (feat.slice_mut(lo, hi), s.slice_mut(lo * k, hi * k)) };
            refill_objects(graph, theta, obj_ranges, rel, objects, lo, feat, s, k);
        });
    }

    /// `g₂'(γ)`, chunk-parallel on `pool`.
    fn value_on(&self, pool: Option<&WorkerPool>, gamma: &[f64]) -> f64 {
        let mut total = [0.0];
        let st = &self.stats;
        self.buffers.borrow_mut().sum(
            pool,
            st.n_objects(),
            st.k,
            &mut total,
            &|objects, partial, alpha| {
                // lint: region(hot-path)
                for v in objects {
                    let es = st.entries(v);
                    if es.is_empty() {
                        continue;
                    }
                    alpha.fill(1.0);
                    for e in es {
                        let g = gamma[st.rel[e]];
                        partial[0] += g * st.feat[e];
                        for (a, &sv) in alpha.iter_mut().zip(st.s(e)) {
                            *a += g * sv;
                        }
                    }
                    partial[0] -= ln_beta(alpha);
                }
                // lint: end-region
            },
        );
        total[0] - gamma.iter().map(|g| g * g).sum::<f64>() / (2.0 * self.sigma2)
    }

    /// Gradient (Eq. 16) and Hessian (Eq. 17) in one chunk-parallel pass on
    /// `pool`: `α_i`, `ψ(α_i)` and `ψ′(α_i)` are computed once per object.
    fn gradient_hessian_on(
        &self,
        pool: Option<&WorkerPool>,
        gamma: &[f64],
        grad: &mut [f64],
        hess: &mut Matrix,
    ) {
        let (st, k, nr) = (&self.stats, self.stats.k, self.n_relations);
        debug_assert_eq!(hess.rows(), nr);
        // One reduction row: the gradient, then the Hessian row-major.
        let mut total = vec![0.0; nr + nr * nr];
        self.buffers.borrow_mut().sum(
            pool,
            st.n_objects(),
            2 * k,
            &mut total,
            &|objects, partial, scratch| {
                let (grad, hess) = partial.split_at_mut(nr);
                let (psi, psi1) = scratch.split_at_mut(k);
                // lint: region(hot-path)
                for v in objects {
                    let es = st.entries(v);
                    if es.is_empty() {
                        continue;
                    }
                    // α_i lands in `psi1` and is replaced by ψ′(α_i) below.
                    psi1.fill(1.0);
                    for e in es.clone() {
                        let g = gamma[st.rel[e]];
                        for (a, &sv) in psi1.iter_mut().zip(st.s(e)) {
                            *a += g * sv;
                        }
                    }
                    let alpha_sum: f64 = psi1.iter().sum();
                    for (p, p1) in psi.iter_mut().zip(psi1.iter_mut()) {
                        (*p, *p1) = digamma_trigamma(*p1);
                    }
                    let (psi_sum, psi1_sum) = digamma_trigamma(alpha_sum);
                    for e1 in es.clone() {
                        let (r1, s1, w1) = (st.rel[e1], st.s(e1), st.w[e1]);
                        // Eq. 16 per relation present at this object.
                        let mut dot = 0.0;
                        for (&p, &sv) in psi.iter().zip(s1) {
                            dot += p * sv;
                        }
                        grad[r1] += st.feat[e1] - (dot - psi_sum * w1);
                        // Eq. 17 over the relation pairs present at this
                        // object; the Hessian is symmetric, so each pair is
                        // computed once.
                        for e2 in e1..es.end {
                            let (r2, s2) = (st.rel[e2], st.s(e2));
                            let mut acc = 0.0;
                            for ((&p1, &a), &b) in psi1.iter().zip(s1).zip(s2) {
                                acc -= p1 * a * b;
                            }
                            acc += psi1_sum * w1 * st.w[e2];
                            hess[r1 * nr + r2] += acc;
                            if e2 != e1 {
                                hess[r2 * nr + r1] += acc;
                            }
                        }
                    }
                }
                // lint: end-region
            },
        );
        for r in 0..nr {
            grad[r] = total[r] - gamma[r] / self.sigma2;
            for c in 0..nr {
                hess[(r, c)] = total[nr + r * nr + c];
            }
            hess[(r, r)] -= 1.0 / self.sigma2;
        }
    }
}

/// Fills `feat` and `s` (the slices of entries `first..`) for `objects`.
// lint: region(hot-path)
#[allow(clippy::too_many_arguments)]
fn refill_objects(
    graph: &HinGraph,
    theta: &MembershipMatrix,
    obj_ranges: &[usize],
    rel: &[usize],
    objects: std::ops::Range<usize>,
    first: usize,
    feat: &mut [f64],
    s: &mut [f64],
    k: usize,
) {
    feat.fill(0.0);
    s.fill(0.0);
    for v in objects {
        let (lo, hi) = (obj_ranges[v], obj_ranges[v + 1]);
        if lo == hi {
            continue;
        }
        // Entries follow the segments in order; an overflow chunk continues
        // its relation's entry.
        let mut e = lo;
        for (r, links) in graph.out_relation_segments(ObjectId::from_index(v)) {
            if rel[e] != r.index() {
                e += 1;
            }
            debug_assert_eq!(rel[e], r.index());
            let se = &mut s[(e - first) * k..(e - first + 1) * k];
            for link in links {
                let w = link.weight;
                for (sk, &tjk) in se.iter_mut().zip(theta.row(link.endpoint.index())) {
                    *sk += w * tjk;
                }
            }
        }
        // feat = Σ_e w(e) Σ_k θ_{j,k} ln θ_{i,k} = Σ_k ln θ_{i,k} s_k: one
        // `ln` per object and cluster.
        for (kk, &ti) in theta.row(v).iter().enumerate() {
            let l = ti.ln();
            for e in lo..hi {
                feat[e - first] += s[(e - first) * k + kk] * l;
            }
        }
    }
}
// lint: end-region

impl NewtonProblem for PseudoLikelihood {
    fn value(&self, gamma: &[f64]) -> f64 {
        self.value_on(None, gamma)
    }

    fn gradient_hessian(&self, gamma: &[f64], grad: &mut [f64], hess: &mut Matrix) {
        self.gradient_hessian_on(None, gamma, grad, hess)
    }
}

/// [`PseudoLikelihood`] with its passes on a worker pool.
struct OnPool<'a> {
    problem: &'a PseudoLikelihood,
    pool: Option<&'a WorkerPool>,
}

impl NewtonProblem for OnPool<'_> {
    fn value(&self, gamma: &[f64]) -> f64 {
        self.problem.value_on(self.pool, gamma)
    }

    fn gradient_hessian(&self, gamma: &[f64], grad: &mut [f64], hess: &mut Matrix) {
        self.problem
            .gradient_hessian_on(self.pool, gamma, grad, hess)
    }
}

/// Outcome of one strength-learning step.
#[derive(Debug, Clone)]
pub struct StrengthOutcome {
    /// The learned strengths, `γ ≥ 0`, indexed by `RelationId`.
    pub gamma: Vec<f64>,
    /// Final `g₂'(γ)` value.
    pub objective: f64,
    /// Newton iterations used.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Learns link-type strengths for fixed memberships.
#[derive(Debug, Clone)]
pub struct StrengthLearner {
    /// Std-dev of the zero-mean Gaussian prior on `γ` (§3.4; paper uses 0.1).
    pub sigma: f64,
    /// Newton solver options.
    pub newton: NewtonOptions,
}

impl StrengthLearner {
    /// Creates a learner with the given prior scale and solver options.
    pub fn new(sigma: f64, newton: NewtonOptions) -> Self {
        Self { sigma, newton }
    }

    /// Maximizes `g₂'(γ)` starting from `gamma0`.
    pub fn learn(
        &self,
        graph: &HinGraph,
        theta: &MembershipMatrix,
        gamma0: &[f64],
    ) -> StrengthOutcome {
        self.session(graph, theta.n_clusters())
            .learn(theta, gamma0, None)
    }

    /// Prepares repeated strength learning on `graph` with `k` clusters:
    /// the entry layout is built here, once, and every
    /// [`StrengthSession::learn`] refills only the `Θ`-dependent statistics.
    pub fn session<'g>(&self, graph: &'g HinGraph, k: usize) -> StrengthSession<'g> {
        StrengthSession {
            graph,
            newton: self.newton.clone(),
            problem: PseudoLikelihood::layout(graph, k, self.sigma),
        }
    }

    /// Evaluates `g₂'(γ)` without optimizing (diagnostics and tests).
    pub fn objective(&self, graph: &HinGraph, theta: &MembershipMatrix, gamma: &[f64]) -> f64 {
        PseudoLikelihood::build(graph, theta, self.sigma).value(gamma)
    }
}

/// Strength learning bound to one graph for a whole fit (see
/// [`StrengthLearner::session`]). `learn` gives the same `γ`, bit for bit,
/// as [`StrengthLearner::learn`], with or without a pool.
#[derive(Debug)]
pub struct StrengthSession<'g> {
    graph: &'g HinGraph,
    newton: NewtonOptions,
    problem: PseudoLikelihood,
}

impl StrengthSession<'_> {
    /// Maximizes `g₂'(γ)` for memberships `theta` starting from `gamma0`,
    /// running every pass on `pool`'s workers when given.
    pub fn learn(
        &mut self,
        theta: &MembershipMatrix,
        gamma0: &[f64],
        pool: Option<&WorkerPool>,
    ) -> StrengthOutcome {
        debug_assert_eq!(gamma0.len(), self.graph.schema().n_relations());
        self.problem.refill(self.graph, theta, pool);
        let problem = OnPool {
            problem: &self.problem,
            pool,
        };
        let outcome: NewtonOutcome =
            ProjectedNewton::new(self.newton.clone()).maximize(gamma0, &problem);
        StrengthOutcome {
            gamma: outcome.x,
            objective: outcome.value,
            iterations: outcome.iterations,
            converged: outcome.converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genclus_hin::{HinBuilder, HinGraph, Schema};
    use genclus_stats::newton::NewtonProblem;
    use rand::Rng;

    /// 20 objects in 2 planted clusters with two relations: `good` connects
    /// within clusters, `bad` connects uniformly at random.
    fn two_relation_network(seed: u64) -> (HinGraph, MembershipMatrix) {
        let mut rng = genclus_stats::seeded_rng(seed);
        let mut s = Schema::new();
        let t = s.add_object_type("node");
        let good = s.add_relation("good", t, t);
        let bad = s.add_relation("bad", t, t);
        let mut b = HinBuilder::new(s);
        let n = 20;
        let vs: Vec<_> = (0..n).map(|i| b.add_object(t, format!("v{i}"))).collect();
        let cluster = |i: usize| i % 2;
        let mut theta_rows = Vec::new();
        for i in 0..n {
            // Concentrated memberships matching the planted clusters.
            let mut row = vec![0.05; 2];
            row[cluster(i)] = 0.95;
            theta_rows.push(row);
        }
        for i in 0..n {
            // good: 3 links to same-cluster objects.
            let mut placed = 0;
            while placed < 3 {
                let j = rng.gen_range(0..n);
                if j != i && cluster(j) == cluster(i) {
                    b.add_link(vs[i], vs[j], good, 1.0).unwrap();
                    placed += 1;
                }
            }
            // bad: 3 links to arbitrary objects.
            for _ in 0..3 {
                let mut j = rng.gen_range(0..n);
                while j == i {
                    j = rng.gen_range(0..n);
                }
                b.add_link(vs[i], vs[j], bad, 1.0).unwrap();
            }
        }
        (
            b.build().unwrap(),
            MembershipMatrix::from_rows(&theta_rows, 2),
        )
    }

    #[test]
    fn consistent_relation_earns_higher_strength() {
        let (g, theta) = two_relation_network(42);
        let learner = StrengthLearner::new(0.5, NewtonOptions::default());
        let out = learner.learn(&g, &theta, &[1.0, 1.0]);
        assert!(out.converged);
        assert!(
            out.gamma[0] > out.gamma[1] + 0.05,
            "good relation should dominate: {:?}",
            out.gamma
        );
        assert!(out.gamma.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let (g, theta) = two_relation_network(7);
        let problem = PseudoLikelihood::build(&g, &theta, 0.3);
        let gamma = [0.8, 1.7];
        let mut grad = [0.0, 0.0];
        problem.gradient(&gamma, &mut grad);
        let h = 1e-6;
        for r in 0..2 {
            let mut gp = gamma;
            gp[r] += h;
            let mut gm = gamma;
            gm[r] -= h;
            let numeric = (problem.value(&gp) - problem.value(&gm)) / (2.0 * h);
            assert!(
                (grad[r] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "relation {r}: analytic {} vs numeric {numeric}",
                grad[r]
            );
        }
    }

    #[test]
    fn analytic_hessian_matches_finite_differences() {
        let (g, theta) = two_relation_network(19);
        let problem = PseudoLikelihood::build(&g, &theta, 0.3);
        let gamma = [1.2, 0.6];
        let mut hess = Matrix::zeros(2, 2);
        problem.hessian(&gamma, &mut hess);
        let h = 1e-5;
        for r1 in 0..2 {
            for r2 in 0..2 {
                let mut gp = gamma;
                gp[r2] += h;
                let mut gm = gamma;
                gm[r2] -= h;
                let mut grad_p = [0.0, 0.0];
                let mut grad_m = [0.0, 0.0];
                problem.gradient(&gp, &mut grad_p);
                problem.gradient(&gm, &mut grad_m);
                let numeric = (grad_p[r1] - grad_m[r1]) / (2.0 * h);
                assert!(
                    (hess[(r1, r2)] - numeric).abs() < 1e-3 * (1.0 + numeric.abs()),
                    "H[{r1},{r2}] analytic {} vs numeric {numeric}",
                    hess[(r1, r2)]
                );
            }
        }
    }

    #[test]
    fn hessian_is_symmetric_with_negative_diagonal() {
        let (g, theta) = two_relation_network(3);
        let problem = PseudoLikelihood::build(&g, &theta, 0.1);
        let mut hess = Matrix::zeros(2, 2);
        problem.hessian(&[1.0, 1.0], &mut hess);
        assert!((hess[(0, 1)] - hess[(1, 0)]).abs() < 1e-9);
        assert!(hess[(0, 0)] < 0.0 && hess[(1, 1)] < 0.0);
    }

    #[test]
    fn empty_relation_is_driven_to_zero_by_the_prior() {
        // A schema with a relation that has no links: its only gradient
        // contribution is the prior pulling it to zero.
        let mut s = Schema::new();
        let t = s.add_object_type("node");
        let used = s.add_relation("used", t, t);
        let _unused = s.add_relation("unused", t, t);
        let mut b = HinBuilder::new(s);
        let v0 = b.add_object(t, "a");
        let v1 = b.add_object(t, "b");
        b.add_link(v0, v1, used, 1.0).unwrap();
        b.add_link(v1, v0, used, 1.0).unwrap();
        let g = b.build().unwrap();
        let theta = MembershipMatrix::from_rows(&[vec![0.9, 0.1], vec![0.85, 0.15]], 2);
        let learner = StrengthLearner::new(0.1, NewtonOptions::default());
        let out = learner.learn(&g, &theta, &[1.0, 1.0]);
        assert!(
            out.gamma[1] < 1e-6,
            "unused relation must decay: {:?}",
            out.gamma
        );
    }

    #[test]
    fn stronger_prior_shrinks_strengths() {
        let (g, theta) = two_relation_network(11);
        let loose =
            StrengthLearner::new(1.0, NewtonOptions::default()).learn(&g, &theta, &[1.0, 1.0]);
        let tight =
            StrengthLearner::new(0.02, NewtonOptions::default()).learn(&g, &theta, &[1.0, 1.0]);
        assert!(
            tight.gamma[0] < loose.gamma[0],
            "tighter prior must shrink γ: {:?} vs {:?}",
            tight.gamma,
            loose.gamma
        );
    }

    #[test]
    fn overflow_graph_statistics_match_compacted() {
        // The pseudo-likelihood must see old-source links sitting in
        // overflow segments; merging a relation's base and overflow chunks
        // into one entry link-by-link makes the statistics bit-identical
        // to a compacted CSR's.
        use genclus_hin::{GraphDelta, ObjectId};
        let (g, theta) = two_relation_network(42);
        let t = g.schema().object_type_by_name("node").unwrap();
        let good = g.schema().relation_by_name("good").unwrap();
        let bad = g.schema().relation_by_name("bad").unwrap();
        let mut grown = g;
        let mut d = GraphDelta::new(&grown);
        let v = d.add_object(t, "extra");
        d.add_link(ObjectId(0), v, good, 1.5).unwrap(); // old → new
        d.add_link(ObjectId(0), ObjectId(5), bad, 2.0).unwrap(); // old → old
        d.add_link(ObjectId(7), ObjectId(2), good, 0.5).unwrap(); // old → old
        d.add_link(v, ObjectId(1), good, 1.0).unwrap(); // new → old
        grown.append(d).unwrap();
        assert!(grown.has_overflow());
        let mut rows: Vec<Vec<f64>> = (0..theta.n_objects())
            .map(|i| theta.row(i).to_vec())
            .collect();
        rows.push(vec![0.6, 0.4]);
        let theta = MembershipMatrix::from_rows(&rows, 2);
        let mut compacted = grown.clone();
        compacted.compact();

        let live = PseudoLikelihood::build(&grown, &theta, 0.3);
        let compact = PseudoLikelihood::build(&compacted, &theta, 0.3);
        let gamma = [0.9, 1.4];
        assert_eq!(live.value(&gamma), compact.value(&gamma));
        let (mut g_live, mut g_comp) = ([0.0, 0.0], [0.0, 0.0]);
        live.gradient(&gamma, &mut g_live);
        compact.gradient(&gamma, &mut g_comp);
        assert_eq!(g_live, g_comp);
        let mut h_live = Matrix::zeros(2, 2);
        let mut h_comp = Matrix::zeros(2, 2);
        live.hessian(&gamma, &mut h_live);
        compact.hessian(&gamma, &mut h_comp);
        for r1 in 0..2 {
            for r2 in 0..2 {
                assert_eq!(h_live[(r1, r2)], h_comp[(r1, r2)]);
            }
        }
        // End to end: the learned strengths agree.
        let learner = StrengthLearner::new(0.5, NewtonOptions::default());
        let a = learner.learn(&grown, &theta, &[1.0, 1.0]);
        let b = learner.learn(&compacted, &theta, &[1.0, 1.0]);
        assert_eq!(a.gamma, b.gamma);
    }

    #[test]
    fn objective_increases_from_the_start() {
        let (g, theta) = two_relation_network(23);
        let learner = StrengthLearner::new(0.5, NewtonOptions::default());
        let before = learner.objective(&g, &theta, &[1.0, 1.0]);
        let out = learner.learn(&g, &theta, &[1.0, 1.0]);
        assert!(out.objective >= before - 1e-9);
    }
}

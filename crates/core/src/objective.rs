//! Objective functions: attribute likelihood, `g₁` (Eq. 9) and the
//! pseudo-log-likelihood `g₂'` (Eq. 14).
//!
//! `g₁` is what cluster optimization maximizes for fixed `γ`; `g₂'` is what
//! strength learning maximizes for fixed `(Θ, β)`. The full regularized
//! objective `g` (Eq. 8) differs from `g₁` only by the intractable partition
//! function and the `γ` prior, both constant during cluster optimization.
//!
//! A fit evaluates `g₁` once per outer iteration, and the best-of-seeds
//! initialization once per candidate, on the EM worker pool ([`g1_on`]).
//! The pass is a fixed-chunk reduction (`crate::pool::ChunkBuffers`), so
//! the value is bit-identical for every thread count and equal to
//! [`g1`]'s. It takes `ln θ_v` once per object for the structural term
//! instead of `K` logarithms per link, and forms the attribute term in the
//! linear domain like the E-step: one `ln` per observation instead of `K`
//! logarithms and `K` exponentials.

use crate::attr_model::ClusterComponents;
use crate::pool::{ChunkBuffers, WorkerPool};
use genclus_hin::{AttributeData, AttributeId, HinGraph, ObjectId};
use genclus_stats::logsumexp::log_sum_exp;
use genclus_stats::simplex::THETA_FLOOR;
use genclus_stats::MembershipMatrix;

/// `Σ_X Σ_{v ∈ V_X} Σ_{x ∈ v[X]} ln Σ_k θ_{v,k} p(x | β_k)` — the mixture
/// log-likelihood of all observations of the specified attributes
/// (Eqs. 3–5, in log form).
pub fn attribute_log_likelihood(
    graph: &HinGraph,
    attr_ids: &[AttributeId],
    theta: &MembershipMatrix,
    components: &[ClusterComponents],
) -> f64 {
    debug_assert_eq!(attr_ids.len(), components.len());
    let k = theta.n_clusters();
    let mut buf = vec![0.0f64; k];
    let mut total = 0.0;
    for (&a, comp) in attr_ids.iter().zip(components) {
        let table = graph.attribute(a);
        match (table, comp) {
            (AttributeData::Categorical { .. }, ClusterComponents::Categorical(cat)) => {
                for v in graph.objects() {
                    let tv = theta.row(v.index());
                    for &(term, count) in table.term_counts(v) {
                        for (kk, b) in buf.iter_mut().enumerate() {
                            *b = tv[kk].ln() + cat.log_prob(kk, term);
                        }
                        total += count * log_sum_exp(&buf);
                    }
                }
            }
            (AttributeData::Numerical { .. }, ClusterComponents::Gaussian(gauss)) => {
                for v in graph.objects() {
                    let tv = theta.row(v.index());
                    for &x in table.values(v) {
                        for (kk, b) in buf.iter_mut().enumerate() {
                            *b = tv[kk].ln() + gauss.log_pdf(kk, x);
                        }
                        total += log_sum_exp(&buf);
                    }
                }
            }
            _ => unreachable!("attribute kind / component kind mismatch"),
        }
    }
    total
}

/// `g₁(Θ, β)` (Eq. 9): structural score plus attribute log-likelihood.
pub fn g1(
    graph: &HinGraph,
    attr_ids: &[AttributeId],
    theta: &MembershipMatrix,
    components: &[ClusterComponents],
    gamma: &[f64],
) -> f64 {
    g1_on(None, graph, attr_ids, theta, components, gamma)
}

/// [`g1`], chunk-parallel on `pool` when given; the same value, bit for
/// bit, for every pool size.
///
/// The structural term is [`crate::feature::structural_score`] with the
/// cross-entropy feature, `Σ_e γ(φ(e)) w(e) Σ_k θ_{j,k} ln max(θ_{i,k},
/// floor)` (entries with `θ_{j,k} ≤ 0` skipped), with `ln θ_i` taken once
/// per object. The attribute term is [`attribute_log_likelihood`] computed
/// the way the E-step forms responsibilities
/// ([`crate::em::categorical_responsibility_mass`] and its Gaussian
/// counterpart): a categorical observation adds `ln Σ_k θ_{v,k} β_{k,l}`
/// in the linear domain, one `ln` and no `exp`; a numerical one adds
/// `max s + ln Σ_k θ_{v,k} exp(s_k − max s)` with `s_k = ln p(x | β_k)`.
/// Both sums are bounded below by the `Θ` and `β` floors, so neither can
/// underflow for a fitted `Θ`.
pub fn g1_on(
    pool: Option<&WorkerPool>,
    graph: &HinGraph,
    attr_ids: &[AttributeId],
    theta: &MembershipMatrix,
    components: &[ClusterComponents],
    gamma: &[f64],
) -> f64 {
    debug_assert_eq!(attr_ids.len(), components.len());
    debug_assert_eq!(gamma.len(), graph.schema().n_relations());
    let k = theta.n_clusters();
    let tables: Vec<&AttributeData> = attr_ids.iter().map(|&a| graph.attribute(a)).collect();
    let mut total = [0.0];
    ChunkBuffers::default().sum(
        pool,
        graph.n_objects(),
        2 * k,
        &mut total,
        &|objects, partial, scratch| {
            let (ln_floored, s) = scratch.split_at_mut(k);
            // lint: region(hot-path)
            for v_idx in objects {
                let v = ObjectId::from_index(v_idx);
                let tv = theta.row(v_idx);
                if graph.has_out_links(v) {
                    for (l, &t) in ln_floored.iter_mut().zip(tv) {
                        *l = t.max(THETA_FLOOR).ln();
                    }
                }
                for (rel, links) in graph.out_relation_segments(v) {
                    let mut seg = 0.0;
                    for link in links {
                        let mut dot = 0.0;
                        for (&tj, &l) in theta.row(link.endpoint.index()).iter().zip(&*ln_floored) {
                            if tj > 0.0 {
                                dot += tj * l;
                            }
                        }
                        seg += link.weight * dot;
                    }
                    partial[0] += gamma[rel.index()] * seg;
                }
                for (table, comp) in tables.iter().zip(components) {
                    match (table, comp) {
                        (
                            AttributeData::Categorical { .. },
                            ClusterComponents::Categorical(cat),
                        ) => {
                            for &(term, count) in table.term_counts(v) {
                                let mut mix = 0.0;
                                for (&t, &p) in tv.iter().zip(cat.probs_for_term(term)) {
                                    mix += t * p;
                                }
                                partial[0] += count * mix.ln();
                            }
                        }
                        (AttributeData::Numerical { .. }, ClusterComponents::Gaussian(gauss)) => {
                            for &x in table.values(v) {
                                let mut max_s = f64::NEG_INFINITY;
                                for (kk, sk) in s.iter_mut().enumerate() {
                                    *sk = gauss.log_pdf(kk, x);
                                    max_s = max_s.max(*sk);
                                }
                                let mut mix = 0.0;
                                for (&t, &sk) in tv.iter().zip(&*s) {
                                    mix += t * (sk - max_s).exp();
                                }
                                partial[0] += max_s + mix.ln();
                            }
                        }
                        _ => unreachable!("attribute kind / component kind mismatch"),
                    }
                }
            }
            // lint: end-region
        },
    );
    total[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr_model::{CategoricalComponents, GaussianComponents};
    use genclus_hin::{HinBuilder, Schema};

    fn tiny_text_network() -> (HinGraph, AttributeId) {
        let mut s = Schema::new();
        let t = s.add_object_type("doc");
        let r = s.add_relation("cite", t, t);
        let text = s.add_categorical_attribute("text", 3);
        let mut b = HinBuilder::new(s);
        let d0 = b.add_object(t, "d0");
        let d1 = b.add_object(t, "d1");
        b.add_link(d0, d1, r, 1.0).unwrap();
        b.add_term_count(d0, text, 0, 2.0).unwrap();
        b.add_term_count(d1, text, 2, 1.0).unwrap();
        (b.build().unwrap(), text)
    }

    #[test]
    fn categorical_likelihood_matches_hand_computation() {
        let (g, text) = tiny_text_network();
        let theta = MembershipMatrix::from_rows(&[vec![0.9, 0.1], vec![0.3, 0.7]], 2);
        let comps = vec![ClusterComponents::Categorical(
            CategoricalComponents::from_rows(&[vec![0.8, 0.1, 0.1], vec![0.1, 0.1, 0.8]], 1e-12),
        )];
        let ll = attribute_log_likelihood(&g, &[text], &theta, &comps);
        // d0: term 0 count 2 → 2·ln(0.9·0.8 + 0.1·0.1)
        // d1: term 2 count 1 → ln(0.3·0.1 + 0.7·0.8)
        let expected = 2.0 * (0.9f64 * 0.8 + 0.1 * 0.1).ln() + (0.3f64 * 0.1 + 0.7 * 0.8).ln();
        assert!((ll - expected).abs() < 1e-9, "{ll} vs {expected}");
    }

    #[test]
    fn gaussian_likelihood_matches_hand_computation() {
        let mut s = Schema::new();
        let t = s.add_object_type("sensor");
        let attr = s.add_numerical_attribute("temp");
        let mut b = HinBuilder::new(s);
        let v = b.add_object(t, "s0");
        b.add_numeric(v, attr, 1.0).unwrap();
        let g = b.build().unwrap();

        let theta = MembershipMatrix::from_rows(&[vec![0.6, 0.4]], 2);
        let gauss = GaussianComponents::from_params(vec![0.0, 2.0], vec![1.0, 1.0], 1e-6);
        let p0 = (gauss.log_pdf(0, 1.0)).exp();
        let p1 = (gauss.log_pdf(1, 1.0)).exp();
        let comps = vec![ClusterComponents::Gaussian(gauss)];
        let ll = attribute_log_likelihood(&g, &[attr], &theta, &comps);
        let expected = (0.6 * p0 + 0.4 * p1).ln();
        assert!((ll - expected).abs() < 1e-9);
    }

    #[test]
    fn better_fitting_theta_scores_higher_g1() {
        let (g, text) = tiny_text_network();
        let comps = vec![ClusterComponents::Categorical(
            CategoricalComponents::from_rows(&[vec![0.8, 0.1, 0.1], vec![0.1, 0.1, 0.8]], 1e-12),
        )];
        // d0 emits term 0 (cluster 0's term), d1 emits term 2 (cluster 1's).
        let good = MembershipMatrix::from_rows(&[vec![0.95, 0.05], vec![0.05, 0.95]], 2);
        let bad = MembershipMatrix::from_rows(&[vec![0.05, 0.95], vec![0.95, 0.05]], 2);
        let g_good = g1(&g, &[text], &good, &comps, &[1.0]);
        let g_bad = g1(&g, &[text], &bad, &comps, &[1.0]);
        assert!(g_good > g_bad);
    }

    #[test]
    fn g1_matches_its_two_terms_and_any_pool_size() {
        use crate::feature::{structural_score, FeatureKind};
        use crate::pool::WorkerPool;
        use rand::Rng;
        // Enough objects for several reduction chunks, with both attribute
        // kinds, weighted links of two relations and unobserved objects.
        let mut rng = genclus_stats::seeded_rng(5);
        let mut s = Schema::new();
        let t = s.add_object_type("node");
        let r0 = s.add_relation("a", t, t);
        let r1 = s.add_relation("b", t, t);
        let text = s.add_categorical_attribute("text", 5);
        let num = s.add_numerical_attribute("num");
        let mut b = HinBuilder::new(s);
        let n = 3 * crate::pool::CHUNK + 17;
        let vs: Vec<_> = (0..n).map(|i| b.add_object(t, format!("v{i}"))).collect();
        for i in 0..n {
            for rel in [r0, r1] {
                let j = rng.gen_range(0..n);
                b.add_link(vs[i], vs[j], rel, rng.gen_range(0.5..2.0))
                    .unwrap();
            }
            if rng.gen_bool(0.5) {
                b.add_term_count(vs[i], text, rng.gen_range(0..5), 2.0)
                    .unwrap();
            }
            if rng.gen_bool(0.5) {
                b.add_numeric(vs[i], num, rng.gen_range(-3.0..3.0)).unwrap();
            }
        }
        let g = b.build().unwrap();
        let k = 3;
        let theta = MembershipMatrix::random(n, k, &mut rng);
        let comps = vec![
            ClusterComponents::init(k, g.attribute(text), &mut rng, 1e-9, 1e-6),
            ClusterComponents::init(k, g.attribute(num), &mut rng, 1e-9, 1e-6),
        ];
        let gamma = [0.7, 1.9];
        let attrs = [text, num];
        let serial = g1(&g, &attrs, &theta, &comps, &gamma);
        let expected = structural_score(&g, &theta, &gamma, FeatureKind::CrossEntropy)
            + attribute_log_likelihood(&g, &attrs, &theta, &comps);
        assert!(
            (serial - expected).abs() <= 1e-9 * expected.abs(),
            "{serial} vs {expected}"
        );
        for threads in [1, 2, 3] {
            let pool = WorkerPool::new(threads);
            let pooled = g1_on(Some(&pool), &g, &attrs, &theta, &comps, &gamma);
            assert_eq!(pooled.to_bits(), serial.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn likelihood_ignores_unobserved_objects() {
        // An object with zero observations contributes nothing.
        let mut s = Schema::new();
        let t = s.add_object_type("doc");
        let text = s.add_categorical_attribute("text", 2);
        let mut b = HinBuilder::new(s);
        let _lonely = b.add_object(t, "no-obs");
        let g = b.build().unwrap();
        let theta = MembershipMatrix::uniform(1, 2);
        let comps = vec![ClusterComponents::Categorical(
            CategoricalComponents::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]], 1e-12),
        )];
        assert_eq!(attribute_log_likelihood(&g, &[text], &theta, &comps), 0.0);
    }
}

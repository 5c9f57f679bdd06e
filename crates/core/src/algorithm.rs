//! The GenClus driver (Algorithm 1).
//!
//! Alternates cluster optimization (EM over `Θ, β` with `γ` fixed) and
//! strength learning (projected Newton over `γ` with `Θ, β` fixed) until the
//! strength vector stabilizes or the outer iteration budget is spent. The
//! two steps mutually enhance each other: better clusters make the strength
//! estimates sharper, and sharper strengths weight the right neighbors in
//! the next EM pass.

use crate::attr_model::ClusterComponents;
use crate::config::GenClusConfig;
use crate::em::EmEngine;
use crate::error::GenClusError;
use crate::history::{OuterIterationRecord, RunHistory};
use crate::init::{initialize, validate_attributes};
use crate::model::GenClusModel;
use crate::objective::g1_on;
use crate::strength::StrengthLearner;
use genclus_hin::HinGraph;
use genclus_stats::MembershipMatrix;
use std::time::Instant;

/// Everything [`GenClus::fit`] returns.
#[derive(Debug, Clone)]
pub struct GenClusFit {
    /// The fitted model.
    pub model: GenClusModel,
    /// Per-outer-iteration history.
    pub history: RunHistory,
}

/// Observer callback payload: the state at the end of one outer iteration.
#[derive(Debug)]
pub struct IterationView<'a> {
    /// 1-based outer iteration.
    pub iteration: usize,
    /// Memberships after this iteration's cluster optimization.
    pub theta: &'a MembershipMatrix,
    /// Strengths after this iteration's strength learning.
    pub gamma: &'a [f64],
    /// Components after this iteration's cluster optimization.
    pub components: &'a [ClusterComponents],
}

/// The GenClus algorithm, configured and ready to fit networks.
#[derive(Debug, Clone)]
pub struct GenClus {
    config: GenClusConfig,
}

impl GenClus {
    /// Validates `config` and builds the runner.
    pub fn new(config: GenClusConfig) -> Result<Self, GenClusError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &GenClusConfig {
        &self.config
    }

    /// Fits the model to `graph`.
    pub fn fit(&self, graph: &HinGraph) -> Result<GenClusFit, GenClusError> {
        self.fit_observed(graph, |_| {})
    }

    /// Fits the model, invoking `observer` after every outer iteration —
    /// used by the Fig. 10 experiment to track accuracy and strengths over
    /// iterations.
    pub fn fit_observed(
        &self,
        graph: &HinGraph,
        observer: impl FnMut(IterationView<'_>),
    ) -> Result<GenClusFit, GenClusError> {
        let cfg = &self.config;
        validate_attributes(graph, cfg)?;
        if graph.n_objects() == 0 {
            return Err(GenClusError::EmptyNetwork);
        }

        // "For the initialization of γ in the outer iteration, we initialize
        // it as an all-1 vector" (§4.3) — configurable but defaulting to 1.
        let n_relations = graph.schema().n_relations();
        let gamma = vec![cfg.gamma_init; n_relations];

        let (theta, components) = initialize(graph, cfg, &gamma)?;
        self.fit_loop(graph, theta, components, gamma, observer)
    }

    /// Warm-start fit: seeds the alternation from an existing fitted state
    /// `(Θ, β, γ)` instead of [`crate::config::InitStrategy`], skipping the
    /// best-of-seeds warmup entirely.
    ///
    /// This is the refresh path of a long-running serving process: after
    /// incremental [`genclus_hin::GraphDelta`] appends, re-fitting from the
    /// loaded model amortizes the work already done — a converged snapshot
    /// with no appended objects is (numerically) a fixed point of this call,
    /// and a lightly grown network converges in far fewer EM iterations
    /// than a cold fit (a `genclus-bench` test asserts the gap on the
    /// 1250-object weather network grown by 10%).
    ///
    /// `warm.theta` must cover every object of `graph` — callers growing
    /// the network first extend `Θ` with fold-in rows for the new objects
    /// (see `genclus-serve`). Shape or attribute mismatches yield
    /// [`GenClusError::InvalidConfig`] with field `"warm_start"`.
    pub fn fit_warm(
        &self,
        graph: &HinGraph,
        warm: &GenClusModel,
    ) -> Result<GenClusFit, GenClusError> {
        self.fit_warm_observed(graph, warm, |_| {})
    }

    /// [`Self::fit_warm`] with a per-outer-iteration observer.
    pub fn fit_warm_observed(
        &self,
        graph: &HinGraph,
        warm: &GenClusModel,
        observer: impl FnMut(IterationView<'_>),
    ) -> Result<GenClusFit, GenClusError> {
        let cfg = &self.config;
        validate_attributes(graph, cfg)?;
        if graph.n_objects() == 0 {
            return Err(GenClusError::EmptyNetwork);
        }
        let mismatch = |reason: String| GenClusError::InvalidConfig {
            field: "warm_start",
            reason,
        };
        if warm.theta.n_objects() != graph.n_objects() {
            return Err(mismatch(format!(
                "Θ covers {} objects but the network has {} — extend Θ (e.g. with fold-in rows) \
                 before warm-starting",
                warm.theta.n_objects(),
                graph.n_objects()
            )));
        }
        if warm.theta.n_clusters() != cfg.n_clusters {
            return Err(mismatch(format!(
                "Θ has {} clusters but the config asks for {}",
                warm.theta.n_clusters(),
                cfg.n_clusters
            )));
        }
        if warm.gamma.len() != graph.schema().n_relations() {
            return Err(mismatch(format!(
                "γ covers {} relations but the schema declares {}",
                warm.gamma.len(),
                graph.schema().n_relations()
            )));
        }
        if warm.gamma.iter().any(|&g| !(g >= 0.0 && g.is_finite())) {
            return Err(mismatch("γ entries must be finite and non-negative".into()));
        }
        // Θ content check, not just shape: snapshot loading only verifies a
        // checksum, and a NaN seed would propagate through the kernel and
        // come back as an Ok(NaN-filled) model.
        if warm
            .theta
            .as_slice()
            .iter()
            .any(|&t| !(t >= 0.0 && t.is_finite()))
        {
            return Err(mismatch("Θ entries must be finite and non-negative".into()));
        }
        if warm.attributes != cfg.attributes {
            return Err(mismatch(
                "the warm model's attribute subset differs from the config's".into(),
            ));
        }
        if warm.components.len() != cfg.attributes.len() {
            return Err(mismatch(format!(
                "{} components for {} attributes",
                warm.components.len(),
                cfg.attributes.len()
            )));
        }
        for (&a, comp) in warm.attributes.iter().zip(&warm.components) {
            let kind_ok = match (&graph.schema().attribute(a).kind, comp) {
                (
                    genclus_hin::AttributeKind::Categorical { vocab_size },
                    ClusterComponents::Categorical(c),
                ) => c.vocab_size() == *vocab_size,
                (genclus_hin::AttributeKind::Numerical, ClusterComponents::Gaussian(_)) => true,
                _ => false,
            };
            if !kind_ok {
                return Err(mismatch(format!(
                    "component kind/shape of attribute {a} does not match the schema"
                )));
            }
            if comp.n_clusters() != cfg.n_clusters {
                return Err(mismatch(format!(
                    "components of attribute {a} carry {} clusters but the config asks for {}",
                    comp.n_clusters(),
                    cfg.n_clusters
                )));
            }
        }
        self.fit_loop(
            graph,
            warm.theta.clone(),
            warm.components.clone(),
            warm.gamma.clone(),
            observer,
        )
    }

    /// The shared outer alternation (Algorithm 1) from an explicit starting
    /// state — `fit_observed` arrives here via `InitStrategy`,
    /// `fit_warm_observed` via a previously fitted model.
    fn fit_loop(
        &self,
        graph: &HinGraph,
        mut theta: MembershipMatrix,
        mut components: Vec<ClusterComponents>,
        mut gamma: Vec<f64>,
        mut observer: impl FnMut(IterationView<'_>),
    ) -> Result<GenClusFit, GenClusError> {
        let cfg = &self.config;
        let n_relations = graph.schema().n_relations();
        let mut engine = EmEngine::new(
            graph,
            &cfg.attributes,
            cfg.n_clusters,
            cfg.threads,
            cfg.beta_floor,
            cfg.variance_floor,
        )
        .with_smoothing(cfg.theta_smoothing);
        // The strength statistics' layout depends on the graph only: build
        // it once for the whole alternation.
        let mut strength =
            StrengthLearner::new(cfg.sigma, cfg.newton.clone()).session(graph, cfg.n_clusters);

        let mut history = RunHistory::default();
        // Θ-movement tracking exists only to feed the trace hook; skip the
        // clone entirely when nobody is listening.
        let tracing = cfg.trace.is_set();
        for iteration in 1..=cfg.outer_iters {
            let prev_theta = tracing.then(|| theta.clone());
            // Step 1: cluster optimization at fixed γ.
            let em_start = Instant::now();
            let (new_theta, new_components, em_iterations) =
                engine.run(theta, components, &gamma, cfg.em_iters, cfg.em_tol);
            let em_seconds = em_start.elapsed().as_secs_f64();
            theta = new_theta;
            components = new_components;
            let g1_start = Instant::now();
            let g1_value = g1_on(
                engine.pool(),
                graph,
                &cfg.attributes,
                &theta,
                &components,
                &gamma,
            );
            let objective_seconds = g1_start.elapsed().as_secs_f64();

            // Step 2: strength learning at fixed (Θ, β).
            let s_start = Instant::now();
            let outcome = if n_relations > 0 {
                strength.learn(&theta, &gamma, engine.pool())
            } else {
                crate::strength::StrengthOutcome {
                    gamma: Vec::new(),
                    objective: 0.0,
                    iterations: 0,
                    converged: true,
                }
            };
            let strength_seconds = s_start.elapsed().as_secs_f64();
            let gamma_delta = outcome
                .gamma
                .iter()
                .zip(&gamma)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            gamma = outcome.gamma;

            history.records.push(OuterIterationRecord {
                iteration,
                gamma: gamma.clone(),
                g1: g1_value,
                g2: outcome.objective,
                em_iterations,
                em_seconds,
                strength_seconds,
                newton_iterations: outcome.iterations,
                objective_seconds,
            });
            if tracing {
                let theta_movement = prev_theta.map_or(0.0, |p| theta.max_abs_diff(&p));
                cfg.trace.event(
                    "em_outer_iteration",
                    &[
                        ("iteration", iteration as f64),
                        ("em_iterations", em_iterations as f64),
                        ("em_seconds", em_seconds),
                        ("strength_seconds", strength_seconds),
                        ("newton_iterations", outcome.iterations as f64),
                        ("objective_seconds", objective_seconds),
                        ("objective_g1", g1_value),
                        ("objective_g2", outcome.objective),
                        ("theta_movement", theta_movement),
                        ("gamma_delta", gamma_delta),
                        ("queue_depth", engine.queue_depth() as f64),
                    ],
                );
            }
            observer(IterationView {
                iteration,
                theta: &theta,
                gamma: &gamma,
                components: &components,
            });

            if gamma_delta < cfg.gamma_tol && iteration > 1 {
                break;
            }
        }

        Ok(GenClusFit {
            model: GenClusModel {
                theta,
                gamma,
                components,
                attributes: cfg.attributes.clone(),
                theta_smoothing: cfg.theta_smoothing,
            },
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genclus_hin::{AttributeId, HinBuilder, ObjectId, Schema};
    use rand::Rng;

    /// Builds a two-type network with two planted clusters where relation
    /// `good` is cluster-consistent and relation `noise` is random. Anchors
    /// of type A carry Gaussian observations; type B objects carry none.
    fn planted(seed: u64, n_per_cluster: usize) -> genclus_hin::HinGraph {
        let mut rng = genclus_stats::seeded_rng(seed);
        let mut s = Schema::new();
        let ta = s.add_object_type("A");
        let tb = s.add_object_type("B");
        let good = s.add_relation("good", ta, tb);
        let good_inv = s.add_relation("good_inv", tb, ta);
        let noise = s.add_relation("noise", ta, ta);
        let _x = s.add_numerical_attribute("x");
        let mut b = HinBuilder::new(s);
        let n = 2 * n_per_cluster;
        let a_ids: Vec<_> = (0..n).map(|i| b.add_object(ta, format!("a{i}"))).collect();
        let b_ids: Vec<_> = (0..n).map(|i| b.add_object(tb, format!("b{i}"))).collect();
        let cl = |i: usize| i % 2;
        for i in 0..n {
            // A deterministic anchor pair so no B object is ever isolated.
            b.add_link(a_ids[i], b_ids[i], good, 1.0).unwrap();
            b.add_link(b_ids[i], a_ids[i], good_inv, 1.0).unwrap();
            // Consistent A→B and B→A links within the same cluster.
            let mut placed = 0;
            while placed < 3 {
                let j = rng.gen_range(0..n);
                if cl(j) == cl(i) {
                    b.add_link(a_ids[i], b_ids[j], good, 1.0).unwrap();
                    b.add_link(b_ids[j], a_ids[i], good_inv, 1.0).unwrap();
                    placed += 1;
                }
            }
            // Noise A→A links, cluster-agnostic.
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    b.add_link(a_ids[i], a_ids[j], noise, 1.0).unwrap();
                }
            }
            // Observations on A only — B is fully attribute-less.
            let mu = if cl(i) == 0 { -3.0 } else { 3.0 };
            for _ in 0..3 {
                b.add_numeric(a_ids[i], AttributeId(0), mu + 0.3 * rng.gen::<f64>())
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    fn fit(seed: u64) -> GenClusFit {
        let g = planted(seed, 12);
        let cfg = GenClusConfig::new(2, vec![AttributeId(0)])
            .with_seed(seed)
            .with_outer_iters(6);
        GenClus::new(cfg).unwrap().fit(&g).unwrap()
    }

    #[test]
    fn recovers_planted_clusters_on_both_types() {
        let out = fit(1);
        let labels = out.model.hard_labels();
        let n = 24;
        // Within type A, planted cluster 0 vs 1 must be separated.
        let a0 = labels[0];
        for i in (0..n).step_by(2) {
            assert_eq!(labels[i], a0, "A objects of cluster 0 must agree");
        }
        assert_ne!(labels[0], labels[1], "the two clusters must differ");
        // Attribute-less B objects follow their linked A objects.
        for i in 0..n {
            let b_label = labels[n + i];
            assert_eq!(
                b_label,
                labels[i % 2],
                "B object {i} should inherit its cluster's label"
            );
        }
    }

    #[test]
    fn learns_higher_strength_for_consistent_relations() {
        let out = fit(2);
        let g = planted(2, 12);
        let good = g.schema().relation_by_name("good").unwrap();
        let noise = g.schema().relation_by_name("noise").unwrap();
        assert!(
            out.model.strength(good) > out.model.strength(noise),
            "good {} must beat noise {}",
            out.model.strength(good),
            out.model.strength(noise)
        );
    }

    #[test]
    fn history_has_records_and_positive_times() {
        let out = fit(3);
        assert!(!out.history.records.is_empty());
        for r in &out.history.records {
            assert!(r.em_iterations >= 1);
            assert!(r.em_seconds >= 0.0);
            assert_eq!(r.gamma.len(), 3);
        }
    }

    #[test]
    fn observer_sees_every_iteration() {
        let g = planted(4, 8);
        let cfg = GenClusConfig::new(2, vec![AttributeId(0)])
            .with_seed(4)
            .with_outer_iters(4);
        let mut seen = Vec::new();
        let out = GenClus::new(cfg)
            .unwrap()
            .fit_observed(&g, |view| {
                assert_eq!(view.theta.n_objects(), g.n_objects());
                assert_eq!(view.gamma.len(), 3);
                seen.push(view.iteration);
            })
            .unwrap();
        assert_eq!(seen.len(), out.history.n_iterations());
        assert_eq!(seen.first(), Some(&1));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = fit(9);
        let b = fit(9);
        assert_eq!(a.model.gamma, b.model.gamma);
        assert!(a.model.theta.max_abs_diff(&b.model.theta) < 1e-15);
    }

    #[test]
    fn trace_sink_sees_one_event_per_outer_iteration() {
        let g = planted(5, 8);
        let sink = std::sync::Arc::new(genclus_obs::MemorySink::new());
        let cfg = GenClusConfig::new(2, vec![AttributeId(0)])
            .with_seed(5)
            .with_outer_iters(4)
            .with_trace(sink.clone());
        let out = GenClus::new(cfg).unwrap().fit(&g).unwrap();
        let events = sink.events();
        assert_eq!(events.len(), out.history.n_iterations());
        for (event, record) in events.iter().zip(&out.history.records) {
            assert_eq!(event.name, "em_outer_iteration");
            assert_eq!(event.field("iteration"), Some(record.iteration as f64));
            assert_eq!(
                event.field("em_iterations"),
                Some(record.em_iterations as f64)
            );
            assert_eq!(event.field("objective_g1"), Some(record.g1));
            assert_eq!(
                event.field("newton_iterations"),
                Some(record.newton_iterations as f64)
            );
            assert_eq!(
                event.field("objective_seconds"),
                Some(record.objective_seconds)
            );
            assert!(record.newton_iterations >= 1);
            assert!(event.field("em_seconds").unwrap() >= 0.0);
            assert!(event.field("queue_depth").is_some());
        }
        // The first iteration moves Θ away from the random init.
        assert!(events[0].field("theta_movement").unwrap() > 0.0);
    }

    #[test]
    fn fits_are_bit_identical_across_thread_counts() {
        // Enough objects for several reduction chunks: EM's β merge, g₁ and
        // strength learning all sum per-chunk partials in chunk order.
        let g = planted(13, 1100);
        assert!(g.n_objects() > 2 * crate::pool::CHUNK);
        let fit_with = |threads: usize| {
            let mut cfg = GenClusConfig::new(2, vec![AttributeId(0)])
                .with_seed(13)
                .with_outer_iters(3)
                .with_threads(threads);
            cfg.em_iters = 4;
            GenClus::new(cfg).unwrap().fit(&g).unwrap()
        };
        let serial = fit_with(1);
        let bytes = |fit: &GenClusFit| {
            let mut out = Vec::new();
            for c in &fit.model.components {
                c.to_bytes(&mut out);
            }
            out
        };
        for threads in [2, 3] {
            let par = fit_with(threads);
            assert_eq!(
                serial.model.theta.max_abs_diff(&par.model.theta),
                0.0,
                "{threads} threads changed Θ"
            );
            assert_eq!(bytes(&serial), bytes(&par), "{threads} threads changed β");
            let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&serial.model.gamma),
                bits(&par.model.gamma),
                "{threads} threads changed γ"
            );
            for (a, b) in serial.history.records.iter().zip(&par.history.records) {
                assert_eq!(a.g1.to_bits(), b.g1.to_bits());
                assert_eq!(a.g2.to_bits(), b.g2.to_bits());
            }
        }
    }

    #[test]
    fn trace_sink_does_not_change_the_fit() {
        let g = planted(9, 8);
        let cfg = GenClusConfig::new(2, vec![AttributeId(0)])
            .with_seed(9)
            .with_outer_iters(4);
        let plain = GenClus::new(cfg.clone()).unwrap().fit(&g).unwrap();
        let traced_cfg = cfg.with_trace(std::sync::Arc::new(genclus_obs::MemorySink::new()));
        let traced = GenClus::new(traced_cfg).unwrap().fit(&g).unwrap();
        assert_eq!(plain.model.gamma, traced.model.gamma);
        assert!(plain.model.theta.max_abs_diff(&traced.model.theta) == 0.0);
    }

    #[test]
    fn rejects_invalid_config_and_empty_network() {
        assert!(GenClus::new(GenClusConfig::new(1, vec![AttributeId(0)])).is_err());
        let mut s = Schema::new();
        let _ = s.add_object_type("t");
        let _ = s.add_numerical_attribute("x");
        let empty = HinBuilder::new(s).build().unwrap();
        let runner = GenClus::new(GenClusConfig::new(2, vec![AttributeId(0)])).unwrap();
        assert!(matches!(
            runner.fit(&empty),
            Err(GenClusError::EmptyNetwork)
        ));
    }

    #[test]
    fn warm_start_from_a_fit_stays_near_the_fixed_point() {
        let g = planted(6, 10);
        let cfg = GenClusConfig::new(2, vec![AttributeId(0)])
            .with_seed(6)
            .with_outer_iters(8);
        let runner = GenClus::new(cfg.clone()).unwrap();
        let cold = runner.fit(&g).unwrap();
        let warm_cfg = cfg.with_warm_start(&cold.model);
        let warm = GenClus::new(warm_cfg)
            .unwrap()
            .fit_warm(&g, &cold.model)
            .unwrap();
        // Warm-starting from a converged state must not wander off: hard
        // labels are preserved and γ stays close.
        assert_eq!(warm.model.hard_labels(), cold.model.hard_labels());
        for (a, b) in warm.model.gamma.iter().zip(&cold.model.gamma) {
            assert!((a - b).abs() < 1e-3, "γ drifted: {a} vs {b}");
        }
        // And it converges in no more total EM iterations than the cold fit.
        let iters = |fit: &GenClusFit| -> usize { fit.history.total_em_iterations() };
        assert!(
            iters(&warm) <= iters(&cold),
            "warm {} EM iterations vs cold {}",
            iters(&warm),
            iters(&cold)
        );
    }

    #[test]
    fn warm_start_rejects_mismatched_seeds() {
        let g = planted(7, 8);
        let cfg = GenClusConfig::new(2, vec![AttributeId(0)])
            .with_seed(7)
            .with_outer_iters(3);
        let runner = GenClus::new(cfg).unwrap();
        let fit = runner.fit(&g).unwrap();

        // Θ row count differing from the network.
        let mut short = fit.model.clone();
        short.theta = genclus_stats::MembershipMatrix::uniform(3, 2);
        assert!(matches!(
            runner.fit_warm(&g, &short),
            Err(GenClusError::InvalidConfig {
                field: "warm_start",
                ..
            })
        ));

        // A NaN Θ entry. The simplex constructors sanitize, but raw access
        // (and hand-built models) can carry one — fit_warm must reject it
        // rather than seed the kernel with it.
        let mut nan_theta = fit.model.clone();
        nan_theta.theta.as_mut_slice()[0] = f64::NAN;
        assert!(matches!(
            runner.fit_warm(&g, &nan_theta),
            Err(GenClusError::InvalidConfig {
                field: "warm_start",
                ..
            })
        ));

        // Components whose cluster count disagrees with K (would index
        // past the component arrays inside the EM kernel).
        let mut short_comps = fit.model.clone();
        short_comps.components = vec![crate::attr_model::ClusterComponents::Gaussian(
            crate::attr_model::GaussianComponents::from_params(vec![0.0], vec![1.0], 1e-6),
        )];
        assert!(matches!(
            runner.fit_warm(&g, &short_comps),
            Err(GenClusError::InvalidConfig {
                field: "warm_start",
                ..
            })
        ));

        // γ arity differing from the schema.
        let mut bad_gamma = fit.model.clone();
        bad_gamma.gamma.pop();
        assert!(matches!(
            runner.fit_warm(&g, &bad_gamma),
            Err(GenClusError::InvalidConfig {
                field: "warm_start",
                ..
            })
        ));

        // Attribute subset differing from the config's.
        let mut bad_attrs = fit.model.clone();
        bad_attrs.attributes = vec![];
        bad_attrs.components = vec![];
        assert!(matches!(
            runner.fit_warm(&g, &bad_attrs),
            Err(GenClusError::InvalidConfig {
                field: "warm_start",
                ..
            })
        ));

        // K differing from the config's.
        let k3 = GenClus::new(GenClusConfig::new(3, vec![AttributeId(0)]).with_seed(7)).unwrap();
        assert!(matches!(
            k3.fit_warm(&g, &fit.model),
            Err(GenClusError::InvalidConfig {
                field: "warm_start",
                ..
            })
        ));
    }

    #[test]
    fn membership_rows_remain_simplex_after_full_fit() {
        let out = fit(5);
        for i in 0..out.model.theta.n_objects() {
            let row = out.model.theta.row(i);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&x| x > 0.0));
        }
        let _ = ObjectId(0);
    }
}

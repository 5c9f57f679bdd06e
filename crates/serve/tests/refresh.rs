//! Refresh-subsystem properties:
//!
//! * warm-starting from a **converged** snapshot with an **empty** delta is
//!   a fixed point — `Θ` moves ≤ 1e-9 per entry and the `g₁` objective does
//!   not decrease (the whole point of seeding EM from the served state);
//! * the same holds through the serving wire path (`refresh` op on a
//!   [`RefreshableEngine`]), and the refreshed snapshot still answers
//!   queries;
//! * committed growth refreshes into a model that covers old and new
//!   objects, and the refreshed snapshot round-trips byte-identically.

use genclus_core::objective::g1;
use genclus_core::{GenClus, GenClusConfig, InitStrategy};
use genclus_hin::prelude::*;
use genclus_serve::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// A randomized two-type planted network: relation `ab`/`ba` joins the
/// types, `aa` adds intra-type noise, observations are ~40% missing.
fn random_network(seed: u64, n_per_type: usize) -> (HinGraph, Vec<AttributeId>) {
    let mut rng = genclus_stats::seeded_rng(seed);
    let mut s = Schema::new();
    let ta = s.add_object_type("A");
    let tb = s.add_object_type("B");
    let ab = s.add_relation("ab", ta, tb);
    let ba = s.add_relation("ba", tb, ta);
    let aa = s.add_relation("aa", ta, ta);
    let num = s.add_numerical_attribute("num");
    let mut b = HinBuilder::new(s);
    let a_ids: Vec<_> = (0..n_per_type)
        .map(|i| b.add_object(ta, format!("a{i}")))
        .collect();
    let b_ids: Vec<_> = (0..n_per_type)
        .map(|i| b.add_object(tb, format!("b{i}")))
        .collect();
    let cluster = |i: usize| i % 2;
    for i in 0..n_per_type {
        b.add_link(a_ids[i], b_ids[i], ab, 1.0).unwrap();
        b.add_link(b_ids[i], a_ids[i], ba, 1.0).unwrap();
        let mut placed = 0;
        while placed < 2 {
            let j = rng.gen_range(0..n_per_type);
            if cluster(j) == cluster(i) {
                b.add_link(a_ids[i], b_ids[j], ab, rng.gen_range(0.5..2.0))
                    .unwrap();
                b.add_link(b_ids[j], a_ids[i], ba, rng.gen_range(0.5..2.0))
                    .unwrap();
                placed += 1;
            }
        }
        let j = rng.gen_range(0..n_per_type);
        if j != i {
            b.add_link(a_ids[i], a_ids[j], aa, rng.gen_range(0.5..2.0))
                .unwrap();
        }
        if rng.gen_bool(0.6) {
            let mu = if cluster(i) == 0 { -3.0 } else { 3.0 };
            for _ in 0..rng.gen_range(1..4) {
                b.add_numeric(a_ids[i], num, mu + 0.3 * rng.gen::<f64>())
                    .unwrap();
            }
        }
    }
    (b.build().unwrap(), vec![num])
}

/// Deep-convergence configuration: the ≤ 1e-9 fixed-point comparison needs
/// the fitted rows essentially *at* the fixed point (a stopping residual δ
/// amplifies to ≈ δ/(1−ρ) for contraction factor ρ).
fn deep_config(attrs: &[AttributeId], seed: u64) -> GenClusConfig {
    let mut cfg = GenClusConfig::new(2, attrs.to_vec()).with_seed(seed);
    cfg.outer_iters = 40;
    cfg.em_iters = 6000;
    cfg.em_tol = 1e-14;
    cfg.gamma_tol = 1e-11;
    cfg.init = InitStrategy::BestOfSeeds {
        candidates: 2,
        warmup_iters: 3,
    };
    cfg
}

/// Whether the fit actually reached its tolerances (a few randomized
/// instances settle into EM limit cycles or exhaust the outer budget —
/// fixed-point properties are only meaningful for converged fits).
fn converged(fit: &genclus_core::GenClusFit, cfg: &GenClusConfig) -> bool {
    let records = &fit.history.records;
    let Some(last) = records.last() else {
        return false;
    };
    if last.em_iterations >= cfg.em_iters {
        return false;
    }
    if records.len() < 2 {
        return false;
    }
    let prev = &records[records.len() - 2];
    let gamma_delta = last
        .gamma
        .iter()
        .zip(&prev.gamma)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    gamma_delta < cfg.gamma_tol
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: an empty-delta refresh of a converged
    /// snapshot is a numerical no-op, both through `fit_warm` directly and
    /// through the serving engine's `refresh` op.
    #[test]
    fn empty_delta_refresh_is_a_fixed_point(seed in any::<u64>(), n in 5usize..10) {
        let (graph, attrs) = random_network(seed, n);
        let cfg = deep_config(&attrs, seed);
        let runner = GenClus::new(cfg.clone()).unwrap();
        let fit = runner.fit(&graph).unwrap();
        prop_assume!(converged(&fit, &cfg));
        let old = &fit.model;
        let g1_old = g1(&graph, &attrs, &old.theta, &old.components, &old.gamma);

        // Direct core path: one warm re-fit.
        let warm = runner.fit_warm(&graph, old).unwrap();
        let theta_delta = warm.model.theta.max_abs_diff(&old.theta);
        prop_assert!(
            theta_delta <= 1e-9,
            "seed {seed}: warm re-fit moved Θ by {theta_delta}"
        );
        let g1_new = g1(
            &graph,
            &attrs,
            &warm.model.theta,
            &warm.model.components,
            &warm.model.gamma,
        );
        let slack = 1e-9 * (1.0 + g1_old.abs());
        prop_assert!(
            g1_new >= g1_old - slack,
            "seed {seed}: objective decreased {g1_old} → {g1_new}"
        );

        // Serving wire path: load the snapshot, refresh with nothing
        // pending, and compare the swapped-in Θ.
        let bytes = genclus_serve::snapshot::to_bytes(&graph, old);
        let snapshot = Snapshot::from_bytes(&bytes).unwrap();
        let policy = RefreshPolicy {
            outer_iters: 2,
            em_iters: cfg.em_iters,
            em_tol: cfg.em_tol,
            gamma_tol: cfg.gamma_tol,
            ..RefreshPolicy::default()
        };
        let mut engine = RefreshableEngine::new(snapshot, 1, policy);
        let response = engine.handle_line(r#"{"op":"refresh"}"#);
        let v = Json::parse(&response).unwrap();
        prop_assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{}", response);
        prop_assert_eq!(v.get("objects_added").unwrap().as_usize(), Some(0));
        let refreshed = engine.engine().snapshot().model();
        let served_delta = refreshed.theta.max_abs_diff(&old.theta);
        prop_assert!(
            served_delta <= 1e-9,
            "seed {seed}: served refresh moved Θ by {served_delta}"
        );
        // The refreshed engine still answers.
        let m = engine.handle_line(r#"{"op":"membership","object":"a0"}"#);
        prop_assert!(m.contains("\"ok\":true"), "{}", m);
    }

    /// Growth + refresh: committed objects become part of the model, old
    /// rows stay close (no catastrophic forgetting from a short warm
    /// re-fit), and the refreshed snapshot round-trips byte-identically.
    #[test]
    fn grown_refresh_covers_old_and_new_objects(seed in any::<u64>(), n in 5usize..9) {
        let (graph, attrs) = random_network(seed, n);
        let cfg = deep_config(&attrs, seed);
        let fit = GenClus::new(cfg.clone()).unwrap().fit(&graph).unwrap();
        prop_assume!(converged(&fit, &cfg));

        let bytes = genclus_serve::snapshot::to_bytes(&graph, &fit.model);
        let mut engine = RefreshableEngine::new(
            Snapshot::from_bytes(&bytes).unwrap(),
            1,
            RefreshPolicy::default(),
        );
        // Commit two new A objects linked into opposite planted clusters,
        // the first also receiving an old→new link (an existing A points at
        // it via `aa` — staged as an out-link of the old source).
        for (name, anchor) in [("fresh0", "b0"), ("fresh1", "b1")] {
            let line = format!(
                r#"{{"op":"fold_in","links":[["ab","{anchor}",1.0]],"in_links":[["aa","a0",1.0]],"commit":"{name}"}}"#
            );
            let resp = engine.handle_line(&line);
            prop_assert!(resp.contains("\"ok\":true"), "{}", resp);
        }
        // A third commit links to a *staged* object of the same window
        // (aa: fresh2 → fresh0) and receives a staged→staged in_link from
        // fresh0's side too.
        let resp = engine.handle_line(
            r#"{"op":"fold_in","links":[["aa","fresh0",1.0],["ab","b0",1.0]],"in_links":[["aa","fresh0",1.0]],"commit":"fresh2"}"#,
        );
        prop_assert!(resp.contains("\"ok\":true"), "{}", resp);

        let resp = engine.handle_line(r#"{"op":"refresh"}"#);
        let v = Json::parse(&resp).unwrap();
        prop_assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        prop_assert_eq!(v.get("objects_added").unwrap().as_usize(), Some(3));
        prop_assert_eq!(v.get("links_added").unwrap().as_usize(), Some(7));

        {
            let refreshed = engine.engine().snapshot();
            prop_assert_eq!(refreshed.graph().n_objects(), graph.n_objects() + 3);
            prop_assert_eq!(
                refreshed.model().theta.n_objects(),
                graph.n_objects() + 3,
                "the refreshed Θ must cover the appended objects"
            );
            prop_assert_eq!(refreshed.graph().n_links(), graph.n_links() + 7);
            // The old source really grew, one chunk per relation.
            let a0 = refreshed.graph().object_by_name("a0").unwrap();
            let rels: Vec<_> = refreshed
                .graph()
                .out_relation_segments(a0)
                .map(|(r, _)| r)
                .collect();
            prop_assert!(rels.windows(2).all(|p| p[0] < p[1]), "{:?}", rels);
            let g_old = Snapshot::from_bytes(&bytes).unwrap();
            let old_degree = g_old.graph().out_degree(a0);
            prop_assert_eq!(refreshed.graph().out_degree(a0), old_degree + 2);
        }
        // Old and new objects both answer membership queries.
        for name in ["a0", "b0", "fresh0", "fresh1", "fresh2"] {
            let m = engine.handle_line(&format!(r#"{{"op":"membership","object":"{name}"}}"#));
            prop_assert!(m.contains("\"ok\":true"), "{name}: {}", m);
        }
        // Refreshed snapshot bytes round-trip byte-identically.
        let raw = engine.engine().snapshot().raw_bytes().to_vec();
        let again = genclus_serve::snapshot::to_bytes(
            Snapshot::from_bytes(&raw).unwrap().graph(),
            Snapshot::from_bytes(&raw).unwrap().model(),
        );
        prop_assert_eq!(again, raw);
    }
}

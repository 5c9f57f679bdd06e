//! Membership and component initialization (§4.3).
//!
//! Two strategies from the paper: pure random simplex rows, or a multi-start
//! scheme that warms up several random candidates with a few EM iterations
//! and keeps the one with the highest `g₁` — "the latter approach will
//! produce more stable results".

use crate::attr_model::ClusterComponents;
use crate::config::{GenClusConfig, InitStrategy};
use crate::em::EmEngine;
use crate::error::GenClusError;
use crate::objective::g1_on;
use genclus_hin::HinGraph;
use genclus_stats::{seeded_rng, MembershipMatrix};
use rand::Rng;

/// Validates the attribute subset against the network schema.
pub fn validate_attributes(graph: &HinGraph, config: &GenClusConfig) -> Result<(), GenClusError> {
    for &a in &config.attributes {
        if a.index() >= graph.schema().n_attributes() {
            return Err(GenClusError::UnknownAttribute(a));
        }
    }
    Ok(())
}

/// Draws one random starting state `(Θ, β)`.
pub fn random_state<R: Rng>(
    graph: &HinGraph,
    config: &GenClusConfig,
    rng: &mut R,
) -> (MembershipMatrix, Vec<ClusterComponents>) {
    let theta = MembershipMatrix::random(graph.n_objects(), config.n_clusters, rng);
    let comps = config
        .attributes
        .iter()
        .map(|&a| {
            ClusterComponents::init(
                config.n_clusters,
                graph.attribute(a),
                rng,
                config.beta_floor,
                config.variance_floor,
            )
        })
        .collect();
    (theta, comps)
}

/// Produces the initial `(Θ, β)` according to `config.init`.
pub fn initialize(
    graph: &HinGraph,
    config: &GenClusConfig,
    gamma: &[f64],
) -> Result<(MembershipMatrix, Vec<ClusterComponents>), GenClusError> {
    validate_attributes(graph, config)?;
    if graph.n_objects() == 0 {
        return Err(GenClusError::EmptyNetwork);
    }
    let mut rng = seeded_rng(config.seed);
    match config.init {
        InitStrategy::Random => Ok(random_state(graph, config, &mut rng)),
        InitStrategy::BestOfSeeds {
            candidates,
            warmup_iters,
        } => {
            let mut engine = EmEngine::new(
                graph,
                &config.attributes,
                config.n_clusters,
                config.threads,
                config.beta_floor,
                config.variance_floor,
            )
            .with_smoothing(config.theta_smoothing);
            let mut best: Option<(f64, MembershipMatrix, Vec<ClusterComponents>)> = None;
            for _ in 0..candidates.max(1) {
                let (theta0, comps0) = random_state(graph, config, &mut rng);
                let (theta, comps, _) =
                    engine.run(theta0, comps0, gamma, warmup_iters.max(1), config.em_tol);
                let score = g1_on(
                    engine.pool(),
                    graph,
                    &config.attributes,
                    &theta,
                    &comps,
                    gamma,
                );
                let better = best.as_ref().is_none_or(|(s, _, _)| score > *s);
                if better {
                    best = Some((score, theta, comps));
                }
            }
            let (_, theta, comps) = best.expect("candidates >= 1");
            Ok((theta, comps))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::g1;
    use genclus_hin::{AttributeId, HinBuilder, Schema};

    fn network() -> HinGraph {
        let mut s = Schema::new();
        let t = s.add_object_type("node");
        let r = s.add_relation("nn", t, t);
        let attr = s.add_numerical_attribute("x");
        let mut b = HinBuilder::new(s);
        let vs: Vec<_> = (0..8).map(|i| b.add_object(t, format!("v{i}"))).collect();
        for i in 0..8 {
            b.add_link(vs[i], vs[(i + 1) % 8], r, 1.0).unwrap();
        }
        for (i, &v) in vs.iter().enumerate() {
            let x = if i < 4 { -2.0 } else { 2.0 };
            b.add_numeric(v, AttributeId(0), x + 0.1 * i as f64)
                .unwrap();
        }
        let _ = attr;
        b.build().unwrap()
    }

    #[test]
    fn rejects_unknown_attribute() {
        let g = network();
        let config = GenClusConfig::new(2, vec![AttributeId(5)]);
        assert_eq!(
            initialize(&g, &config, &[1.0]),
            Err(GenClusError::UnknownAttribute(AttributeId(5)))
        );
    }

    #[test]
    fn rejects_empty_network() {
        let mut s = Schema::new();
        let _t = s.add_object_type("node");
        let _a = s.add_numerical_attribute("x");
        let g = HinBuilder::new(s).build().unwrap();
        let config = GenClusConfig::new(2, vec![AttributeId(0)]);
        assert_eq!(
            initialize(&g, &config, &[]),
            Err(GenClusError::EmptyNetwork)
        );
    }

    #[test]
    fn random_init_is_seed_deterministic() {
        let g = network();
        let config = GenClusConfig::new(2, vec![AttributeId(0)]).with_seed(5);
        let (t1, c1) = initialize(&g, &config, &[1.0]).unwrap();
        let (t2, c2) = initialize(&g, &config, &[1.0]).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
        let other = GenClusConfig::new(2, vec![AttributeId(0)]).with_seed(6);
        let (t3, _) = initialize(&g, &other, &[1.0]).unwrap();
        assert!(t1.max_abs_diff(&t3) > 1e-6, "different seeds must differ");
    }

    #[test]
    fn best_of_seeds_scores_at_least_as_well_as_random() {
        let g = network();
        let attrs = vec![AttributeId(0)];
        let random_cfg = GenClusConfig::new(2, attrs.clone()).with_seed(1);
        let multi_cfg = GenClusConfig::new(2, attrs.clone()).with_seed(1).with_init(
            InitStrategy::BestOfSeeds {
                candidates: 4,
                warmup_iters: 3,
            },
        );
        let gamma = [1.0];
        let (tr, cr) = initialize(&g, &random_cfg, &gamma).unwrap();
        let (tm, cm) = initialize(&g, &multi_cfg, &gamma).unwrap();
        // The warm-started candidate has had 3 EM iterations; it must score
        // at least as well as a raw random draw scored after the same warmup.
        let mut engine =
            EmEngine::new(&g, &attrs, 2, 1, 1e-9, 1e-6).with_smoothing(random_cfg.theta_smoothing);
        let (tr, cr, _) = engine.run(tr, cr, &gamma, 3, 0.0);
        let s_random = g1(&g, &attrs, &tr, &cr, &gamma);
        let s_multi = g1(&g, &attrs, &tm, &cm, &gamma);
        assert!(
            s_multi >= s_random - 1e-9,
            "multi-start {s_multi} < warmed random {s_random}"
        );
    }
}

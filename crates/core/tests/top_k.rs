//! `top_k` exactness: the sorted-projection index search, the generic
//! [`top_k`] and a brute-force ranking (`Similarity::score` plus a full
//! sort) must agree bit for bit — on degenerate rows, ties, interleaved
//! type layouts and every `k` the wire accepts — and the cosine search
//! must actually prune.

use genclus_core::prediction::{search, BestK, CandidateIndex, QueryTerms};
use genclus_core::{top_k, Similarity};
use genclus_hin::ObjectId;
use genclus_stats::MembershipMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Every score computed by `Similarity::score`, fully sorted: descending,
/// NaN last, ties by ascending id.
fn brute_force(
    theta: &MembershipMatrix,
    query: &[f64],
    candidates: &[ObjectId],
    sim: Similarity,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    let mut scored: Vec<(ObjectId, f64)> = candidates
        .iter()
        .map(|&c| (c, sim.score(query, theta.row(c.index()))))
        .collect();
    scored.sort_by(|a, b| match b.1.partial_cmp(&a.1) {
        Some(o) => o.then(a.0.cmp(&b.0)),
        None => a.1.is_nan().cmp(&b.1.is_nan()).then(a.0.cmp(&b.0)),
    });
    scored.truncate(k);
    scored
}

fn bits(ranked: &[(ObjectId, f64)]) -> Vec<(u32, u64)> {
    ranked.iter().map(|&(c, s)| (c.0, s.to_bits())).collect()
}

/// A random row of `k` entries: a simplex row, usually near-uniform so the
/// top of a ranking is crowded, sometimes rescaled off the simplex.
fn random_row(rng: &mut StdRng, k: usize) -> Vec<f64> {
    let spread = if rng.gen_bool(0.5) { 0.02 } else { 1.0 };
    let mut row: Vec<f64> = (0..k).map(|_| 1.0 + spread * rng.gen::<f64>()).collect();
    let sum: f64 = row.iter().sum();
    let scale = if rng.gen_bool(0.2) {
        rng.gen_range(0.001..1000.0)
    } else {
        1.0
    };
    row.iter_mut().for_each(|x| *x *= scale / sum);
    row
}

/// A matrix with planted duplicate, zero, NaN, partly-NaN and out-of-range
/// rows, plus a type per object drawn independently (so types interleave).
fn random_case(seed: u64, n: usize, k: usize, n_types: usize) -> (MembershipMatrix, Vec<usize>) {
    let mut rng = genclus_stats::seeded_rng(seed);
    let mut theta = MembershipMatrix::uniform(n, k);
    for i in 0..n {
        let row: Vec<f64> = match rng.gen_range(0..12) {
            0 if i > 0 => theta.row(rng.gen_range(0..i)).to_vec(),
            1 => vec![0.0; k],
            2 => vec![f64::NAN; k],
            3 => {
                let mut r = random_row(&mut rng, k);
                r[rng.gen_range(0..k)] = f64::NAN;
                r
            }
            4 => vec![if rng.gen_bool(0.5) { 1e200 } else { 1e-200 }; k],
            _ => random_row(&mut rng, k),
        };
        theta.row_mut(i).copy_from_slice(&row);
    }
    let types = (0..n).map(|_| rng.gen_range(0..n_types)).collect();
    (theta, types)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_search_top_k_and_brute_force_agree_bit_for_bit(
        seed in any::<u64>(),
        n in 1usize..90,
        k_clusters in 1usize..6,
        n_types in 1usize..4,
    ) {
        let (theta, types) = random_case(seed, n, k_clusters, n_types);
        let members: Vec<Vec<ObjectId>> = (0..n_types)
            .map(|t| (0..n).filter(|&i| types[i] == t).map(|i| ObjectId(i as u32)).collect())
            .collect();
        let indexes: Vec<CandidateIndex> =
            members.iter().map(|m| CandidateIndex::build(&theta, m)).collect();
        let mut rng = genclus_stats::seeded_rng(seed ^ 0x5eed);
        let own = rng.gen_range(0..n);
        let external = random_row(&mut rng, k_clusters);
        let queries: [(Vec<f64>, Option<ObjectId>); 4] = [
            (theta.row(own).to_vec(), Some(ObjectId(own as u32))),
            (external, None),
            (vec![0.0; k_clusters], None),
            (vec![f64::NAN; k_clusters], None),
        ];
        let filters = [None, Some(types[own])];
        for (query, exclude) in &queries {
            for filter in filters {
                let pool: &[CandidateIndex] = match filter {
                    Some(t) => std::slice::from_ref(&indexes[t]),
                    None => &indexes,
                };
                let candidates: Vec<ObjectId> = (0..n)
                    .filter(|&i| filter.is_none_or(|t| types[i] == t))
                    .map(|i| ObjectId(i as u32))
                    .filter(|&c| Some(c) != *exclude)
                    .collect();
                let m = candidates.len();
                for sim in Similarity::ALL {
                    for k in [0, 1, 10, m.saturating_sub(1), m, m + 3, u32::MAX as usize] {
                        let want = bits(&brute_force(&theta, query, &candidates, sim, k));
                        let scanned = bits(&top_k(&theta, query, &candidates, sim, k));
                        let searched = bits(&search(&theta, pool, query, sim, k, *exclude));
                        prop_assert_eq!(&scanned, &want, "top_k {:?} k={} seed={}", sim, k, seed);
                        prop_assert_eq!(&searched, &want, "search {:?} k={} seed={}", sim, k, seed);
                    }
                }
            }
        }
    }
}

/// A near-uniform planted `Θ`: every row within ~20% of `1/K`, varying
/// smoothly over a two-parameter family plus noise, the way a fitted
/// network's memberships vary with its planted structure. This is the hard
/// case for pruning — the 10th best cosine is within ~3e-5 of 1 — yet the
/// sorted projection must still skip most of the type; a regression back
/// to a full scan fails here.
#[test]
fn cosine_search_scores_a_small_fraction_of_a_near_uniform_theta() {
    let (n, k, queries) = (10_000, 4, 20);
    let mut rng = genclus_stats::seeded_rng(11);
    let mut theta = MembershipMatrix::uniform(n, k);
    for i in 0..n {
        let (u, w): (f64, f64) = (rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2));
        let row: Vec<f64> = [u, w, -u, -w]
            .iter()
            .map(|&x| 1.0 + x + rng.gen_range(-0.01..0.01))
            .collect();
        theta.set_row(i, &row);
    }
    let members: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
    let index = CandidateIndex::build(&theta, &members);
    for q in (0..n).step_by(n / queries) {
        let query = QueryTerms::new(Similarity::Cosine, theta.row(q));
        let mut best = BestK::new(10, n);
        let scored = index.offer_to(&theta, &query, Some(ObjectId(q as u32)), &mut best);
        let ranked = best.into_sorted();
        assert!(scored * 5 < n, "query {q}: scored {scored} of {n}");
        let others: Vec<ObjectId> = members.iter().copied().filter(|c| c.index() != q).collect();
        let want = top_k(&theta, theta.row(q), &others, Similarity::Cosine, 10);
        assert_eq!(bits(&ranked), bits(&want), "query {q}");
    }
}

//! `top_k` exactness: the partitioned index search, the generic [`top_k`]
//! and a brute-force ranking (`Similarity::score` plus a full sort) must
//! agree bit for bit — on degenerate, near-one-hot, tied and uniform rows,
//! empty partitions, interleaved type layouts and every `k` the wire
//! accepts — and the cosine search must actually prune.

use genclus_core::prediction::{search, BestK, CandidateIndex, QueryTerms};
use genclus_core::{top_k, Similarity};
use genclus_hin::ObjectId;
use genclus_stats::simplex::argmax;
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

/// A simplex row with `1 − spare` on cluster `own` and the spare spread
/// unevenly over the other clusters.
fn spread_row(rng: &mut StdRng, k: usize, own: usize, spare: f64) -> Vec<f64> {
    let mut row: Vec<f64> = (0..k).map(|_| rng.gen::<f64>()).collect();
    let rest: f64 = row.iter().sum::<f64>() - row[own];
    for (c, x) in row.iter_mut().enumerate() {
        *x = if c == own {
            1.0 - spare
        } else {
            spare * *x / rest
        };
    }
    row
}

/// A near-one-hot row on a random cluster, and now and then an exactly
/// one-hot one.
fn near_one_hot_row(rng: &mut StdRng, k: usize) -> Vec<f64> {
    let own = rng.gen_range(0..k);
    let spare = if rng.gen_bool(0.2) {
        0.0
    } else {
        10f64.powf(rng.gen_range(-9.0..-1.0))
    };
    spread_row(rng, k, own, spare)
}

/// A [`random_row`] whose maximum is shared by two clusters.
fn tied_row(rng: &mut StdRng, k: usize) -> Vec<f64> {
    let mut row = random_row(rng, k);
    let top = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
    row[a] = top;
    row[b] = top;
    row
}

/// A matrix with planted duplicate, zero, NaN, partly-NaN, out-of-range,
/// near-one-hot, tied and uniform rows (a uniform row's normalised entries
/// are all `1/√K`), plus a type per object drawn independently (so types
/// interleave). A third of the matrices move every finite row's maximum
/// into the first few clusters, leaving the other partitions empty.
fn random_case(seed: u64, n: usize, k: usize, n_types: usize) -> (MembershipMatrix, Vec<usize>) {
    let mut rng = genclus_stats::seeded_rng(seed);
    let dominant = if rng.gen_bool(1.0 / 3.0) {
        rng.gen_range(1..=k)
    } else {
        k
    };
    let mut theta = MembershipMatrix::uniform(n, k);
    for i in 0..n {
        let kind = rng.gen_range(0..15);
        if kind == 0 && i > 0 {
            // A duplicate of an earlier row, whose maximum already lies
            // below `dominant`.
            let copy = theta.row(rng.gen_range(0..i)).to_vec();
            theta.row_mut(i).copy_from_slice(&copy);
            continue;
        }
        let mut row: Vec<f64> = match kind {
            1 => vec![0.0; k],
            2 => vec![f64::NAN; k],
            3 => {
                let mut r = random_row(&mut rng, k);
                r[rng.gen_range(0..k)] = f64::NAN;
                r
            }
            4 => vec![if rng.gen_bool(0.5) { 1e200 } else { 1e-200 }; k],
            5 | 6 => near_one_hot_row(&mut rng, k),
            7 => tied_row(&mut rng, k),
            8 => vec![1.0 / k as f64; k],
            _ => random_row(&mut rng, k),
        };
        if row.iter().all(|x| x.is_finite()) {
            // The row's first maximum, which picks its partition, now
            // lies below `dominant`.
            let top = argmax(&row);
            row.swap(top, rng.gen_range(0..dominant));
        }
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
        let external = match rng.gen_range(0..4) {
            0 => near_one_hot_row(&mut rng, k_clusters),
            1 => tied_row(&mut rng, k_clusters),
            2 => vec![1.0 / k_clusters as f64; k_clusters],
            _ => random_row(&mut rng, k_clusters),
        };
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

/// A planted 4-cluster `Θ`: each row raises its own cluster. Near-one-hot
/// rows put `1 − spare` on it, with the spare log-uniform in
/// `[1e-4, 1e-1]` and spread unevenly over the rest. Otherwise the rows
/// take the shape of a fitted weather network's: every entry `0.245 ±
/// 0.004`, the own cluster raised by 0.005–0.02, normalised.
fn planted_theta(n: usize, near_one_hot: bool) -> MembershipMatrix {
    let k = 4;
    let mut rng = genclus_stats::seeded_rng(23);
    let mut theta = MembershipMatrix::uniform(n, k);
    for i in 0..n {
        let own = rng.gen_range(0..k);
        if near_one_hot {
            let spare = 10f64.powf(rng.gen_range(-4.0..-1.0));
            theta.set_row(i, &spread_row(&mut rng, k, own, spare));
            continue;
        }
        let mut row: Vec<f64> = (0..k)
            .map(|_| 0.245 + 0.008 * (rng.gen::<f64>() - 0.5))
            .collect();
        row[own] += rng.gen_range(0.005..0.02);
        let sum: f64 = row.iter().sum();
        row.iter_mut().for_each(|x| *x /= sum);
        theta.set_row(i, &row);
    }
    theta
}

/// On a planted 4-cluster `Θ` one sorted coordinate cannot separate the
/// three clusters it is not: they share its low values, so a single-axis
/// walk fills a query's window with rows of all of them. Partitions by
/// dominant cluster, each sorted on its own coordinate, keep the walk in
/// the query's own partition (a quarter of the type) and leave every
/// other partition after one binary search. On the weather shape the
/// walk keeps to a sliver of that partition (at most 7.9% of the type); a
/// single-axis index scored up to 30% of the type there, and up to 64% of
/// the near-one-hot one.
#[test]
fn cosine_search_stays_in_the_query_partition_of_a_planted_theta() {
    let (n, queries) = (10_000, 40);
    // (near-one-hot, most a query may score as a fraction 1/denominator)
    for (near_one_hot, denominator) in [(false, 10), (true, 3)] {
        let theta = planted_theta(n, near_one_hot);
        let members: Vec<ObjectId> = (0..n as u32).map(ObjectId).collect();
        let index = CandidateIndex::build(&theta, &members);
        for q in (0..n).step_by(n / queries) {
            let query = QueryTerms::new(Similarity::Cosine, theta.row(q));
            let mut best = BestK::new(10, n);
            let scored = index.offer_to(&theta, &query, Some(ObjectId(q as u32)), &mut best);
            assert!(
                scored * denominator < n,
                "near-one-hot {near_one_hot}, query {q}: scored {scored} of {n}"
            );
            let others: Vec<ObjectId> =
                members.iter().copied().filter(|c| c.index() != q).collect();
            let want = top_k(&theta, theta.row(q), &others, Similarity::Cosine, 10);
            assert_eq!(bits(&best.into_sorted()), bits(&want), "query {q}");
        }
    }
}

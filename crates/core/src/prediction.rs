//! Link prediction from membership similarity (§5.2.2).
//!
//! The paper tests clustering quality by ranking candidate objects for a
//! query object with a similarity function on their membership vectors.
//! Three similarity functions appear in Tables 2–4; the asymmetric
//! `−H(θ_j, θ_i)` is the paper's own feature function and gives the best
//! accuracy in its experiments.

use genclus_hin::ObjectId;
use genclus_stats::simplex::{cross_entropy, THETA_FLOOR};
use genclus_stats::MembershipMatrix;
use std::collections::BinaryHeap;

mod index;

pub use index::{search, CandidateIndex};

/// Similarity function between a query membership `θ_i` and a candidate
/// membership `θ_j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Similarity {
    /// `cos(θ_i, θ_j)`.
    Cosine,
    /// `−‖θ_i − θ_j‖₂`.
    NegEuclidean,
    /// `−H(θ_j, θ_i)` — asymmetric, mirrors the model's feature function.
    NegCrossEntropy,
}

impl Similarity {
    /// All three functions, in the order the paper's tables list them.
    pub const ALL: [Similarity; 3] = [
        Similarity::Cosine,
        Similarity::NegEuclidean,
        Similarity::NegCrossEntropy,
    ];

    /// Human-readable label matching the paper's table rows.
    pub fn label(self) -> &'static str {
        match self {
            Self::Cosine => "cos(theta_i,theta_j)",
            Self::NegEuclidean => "-||theta_i - theta_j||",
            Self::NegCrossEntropy => "-H(theta_j,theta_i)",
        }
    }

    /// Evaluates the similarity of `candidate` to `query`.
    pub fn score(self, query: &[f64], candidate: &[f64]) -> f64 {
        match self {
            Self::Cosine => {
                let dot: f64 = query.iter().zip(candidate).map(|(a, b)| a * b).sum();
                let na: f64 = query.iter().map(|a| a * a).sum::<f64>().sqrt();
                let nb: f64 = candidate.iter().map(|b| b * b).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (na * nb)
                }
            }
            Self::NegEuclidean => -query
                .iter()
                .zip(candidate)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt(),
            Self::NegCrossEntropy => -cross_entropy(candidate, query),
        }
    }
}

/// Scores and ranks `candidates` for `query`, descending by similarity.
///
/// Ties are broken by object id so the ranking is deterministic.
pub fn rank_candidates(
    theta: &MembershipMatrix,
    query: ObjectId,
    candidates: &[ObjectId],
    sim: Similarity,
) -> Vec<(ObjectId, f64)> {
    rank_row(theta, theta.row(query.index()), candidates, sim)
}

/// [`rank_candidates`] for a query membership row that need not belong to
/// an object of `theta` — e.g. a row produced by online fold-in of a new
/// object that was never committed to the network.
pub fn rank_row(
    theta: &MembershipMatrix,
    query_row: &[f64],
    candidates: &[ObjectId],
    sim: Similarity,
) -> Vec<(ObjectId, f64)> {
    let mut scored: Vec<(ObjectId, f64)> = candidates
        .iter()
        .map(|&c| (c, sim.score(query_row, theta.row(c.index()))))
        .collect();
    scored.sort_by(cmp_scored);
    scored
}

/// The `k` best candidates for `query_row`, descending, with the same
/// deterministic tie-breaking as [`rank_candidates`]. One pass over the
/// candidates into a bounded best-`k` buffer ([`BestK`]) instead of a full
/// sort; the per-query terms of `sim` are computed once ([`QueryTerms`]),
/// so every score is bit-identical to [`Similarity::score`].
///
/// If `k ≥ candidates.len()` the full ranking is returned.
pub fn top_k(
    theta: &MembershipMatrix,
    query_row: &[f64],
    candidates: &[ObjectId],
    sim: Similarity,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    let query = QueryTerms::new(sim, query_row);
    let mut best = BestK::new(k, candidates.len());
    scan(
        &query,
        candidates,
        |_, c| theta.row(c.index()),
        |_, row| row_norm(row),
        None,
        &mut best,
    );
    best.into_sorted()
}

/// `‖row‖₂`, summed exactly as [`Similarity::score`] sums both cosine
/// norms — the one formula every precomputed norm must use.
#[inline]
fn row_norm(row: &[f64]) -> f64 {
    row.iter().map(|b| b * b).sum::<f64>().sqrt()
}

/// The per-query terms of a [`Similarity`], computed once per query instead
/// of once per candidate: the query norm for `Cosine` and
/// `ln(max(q_c, THETA_FLOOR))` for `NegCrossEntropy`. Scores are
/// bit-identical to [`Similarity::score`]: the same operations run on the
/// same operands in the same order, only hoisted out of the candidate loop.
#[derive(Debug)]
pub struct QueryTerms<'a> {
    sim: Similarity,
    row: &'a [f64],
    /// [`row_norm`] of `row` (`Cosine` only).
    norm: f64,
    /// `ln(max(row[c], THETA_FLOOR))` per cluster (`NegCrossEntropy` only).
    ln_row: Vec<f64>,
}

impl<'a> QueryTerms<'a> {
    /// Prepares `row` for scoring under `sim`.
    pub fn new(sim: Similarity, row: &'a [f64]) -> Self {
        let norm = match sim {
            Similarity::Cosine => row_norm(row),
            _ => 0.0,
        };
        let ln_row = match sim {
            Similarity::NegCrossEntropy => row.iter().map(|&q| q.max(THETA_FLOOR).ln()).collect(),
            _ => Vec::new(),
        };
        Self {
            sim,
            row,
            norm,
            ln_row,
        }
    }

    /// Scores `candidate`; `norm` yields its [`row_norm`] and is called only
    /// under `Cosine`, so precomputed norms can stand in for it.
    #[inline]
    fn score(&self, candidate: &[f64], norm: impl FnOnce() -> f64) -> f64 {
        match self.sim {
            Similarity::Cosine => {
                let dot: f64 = self.row.iter().zip(candidate).map(|(a, b)| a * b).sum();
                let nb = norm();
                if self.norm == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (self.norm * nb)
                }
            }
            Similarity::NegEuclidean => -self
                .row
                .iter()
                .zip(candidate)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt(),
            // `cross_entropy(candidate, row)` with the query's logarithms
            // taken from the table.
            Similarity::NegCrossEntropy => -candidate
                .iter()
                .zip(&self.ln_row)
                .filter(|(&pk, _)| pk > 0.0)
                .map(|(&pk, &lq)| -pk * lq)
                .sum::<f64>(),
        }
    }
}

/// A ranked candidate ordered by `cmp_scored`: `Greater` ranks later, so
/// a max-heap of them keeps the worst kept candidate on top.
#[derive(Debug, Clone, Copy)]
struct Ranked((ObjectId, f64));

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_scored(&self.0, &other.0)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The best `k` of a stream of scored candidates, ranked like [`top_k`]. A
/// max-heap holds the kept entries with the worst on top, so a candidate
/// costs one comparison unless it displaces that worst entry.
///
/// The heap is sized `min(k, n)` for `n` candidates and never grows past
/// it, so a huge `k` (the wire accepts `"k": 4294967295`) allocates no
/// more than the candidate count, and no offer allocates.
#[derive(Debug)]
pub struct BestK {
    heap: BinaryHeap<Ranked>,
    k: usize,
    /// Candidate count the buffer was sized for.
    n: usize,
}

impl BestK {
    /// An empty buffer keeping the best `k` of `n` candidates.
    pub fn new(k: usize, n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(k.min(n)),
            k,
            n,
        }
    }

    /// Offers one candidate; returns whether it was kept.
    #[inline]
    fn offer(&mut self, id: ObjectId, score: f64) -> bool {
        let entry = Ranked((id, score));
        if self.heap.len() < self.k {
            self.heap.push(entry);
            return true;
        }
        match self.heap.peek_mut() {
            Some(mut worst) if entry < *worst => {
                *worst = entry;
                true
            }
            _ => false,
        }
    }

    /// The `k`-th best score once `k` candidates are kept (`None` before,
    /// and always for `k = 0`).
    #[inline]
    fn kth(&self) -> Option<f64> {
        match self.heap.peek() {
            Some(worst) if self.heap.len() == self.k => Some(worst.0 .1),
            _ => None,
        }
    }

    /// Whether `k < n`: only then can the buffer fill before the last
    /// candidate and a bound on the `k`-th score skip anything.
    fn is_selective(&self) -> bool {
        self.k < self.n
    }

    /// The kept candidates, best first.
    pub fn into_sorted(self) -> Vec<(ObjectId, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

/// The one scan kernel behind [`top_k`] and [`CandidateIndex`]: offers
/// every candidate of `ids` except `exclude` to `best` and returns how many
/// it scored. `row_of(i, ids[i])` is the `Θ` row of `ids[i]`, and
/// `norm_of(i, row)` its [`row_norm`].
fn scan<'t>(
    query: &QueryTerms<'_>,
    ids: &[ObjectId],
    row_of: impl Fn(usize, ObjectId) -> &'t [f64],
    norm_of: impl Fn(usize, &[f64]) -> f64,
    exclude: Option<ObjectId>,
    best: &mut BestK,
) -> usize {
    let mut scored = 0;
    // lint: region(hot-path)
    for (i, &c) in ids.iter().enumerate() {
        if Some(c) == exclude {
            continue;
        }
        let row = row_of(i, c);
        best.offer(c, query.score(row, || norm_of(i, row)));
        scored += 1;
    }
    // lint: end-region
    scored
}

/// Descending by score with NaN ranked strictly last, ascending by id on
/// ties (including among NaNs) — the one ordering every ranking entry
/// point shares. This is a **total** order: treating NaN as "equal to
/// everything" (the old behavior) breaks transitivity, and
/// `sort_by`/`select_nth_unstable_by` may panic on comparators that do not
/// implement a total order when scores mix NaN and finite values.
fn cmp_scored(a: &(ObjectId, f64), b: &(ObjectId, f64)) -> std::cmp::Ordering {
    match b.1.partial_cmp(&a.1) {
        Some(o) => o.then(a.0.cmp(&b.0)),
        // At least one NaN: non-NaN first, then ascending id.
        None => a.1.is_nan().cmp(&b.1.is_nan()).then(a.0.cmp(&b.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        let a = [1.0, 0.0];
        assert!((Similarity::Cosine.score(&a, &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(Similarity::Cosine.score(&a, &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn euclidean_is_zero_at_identity_and_negative_elsewhere() {
        let a = [0.5, 0.5];
        assert_eq!(Similarity::NegEuclidean.score(&a, &a), 0.0);
        assert!(Similarity::NegEuclidean.score(&a, &[0.9, 0.1]) < 0.0);
    }

    #[test]
    fn neg_cross_entropy_is_asymmetric() {
        let focused = [0.9, 0.05, 0.05];
        let uniform = [1.0 / 3.0; 3];
        let s1 = Similarity::NegCrossEntropy.score(&focused, &uniform);
        let s2 = Similarity::NegCrossEntropy.score(&uniform, &focused);
        assert!((s1 - s2).abs() > 1e-3, "must be asymmetric: {s1} vs {s2}");
    }

    #[test]
    fn all_sims_prefer_the_matching_candidate() {
        let query = [0.9, 0.05, 0.05];
        let matching = [0.8, 0.1, 0.1];
        let opposite = [0.05, 0.05, 0.9];
        for sim in Similarity::ALL {
            assert!(
                sim.score(&query, &matching) > sim.score(&query, &opposite),
                "{} failed",
                sim.label()
            );
        }
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let theta = MembershipMatrix::from_rows(
            &[
                vec![0.9, 0.1], // query
                vec![0.2, 0.8],
                vec![0.85, 0.15],
                vec![0.5, 0.5],
            ],
            2,
        );
        let candidates = [ObjectId(1), ObjectId(2), ObjectId(3)];
        let ranked = rank_candidates(&theta, ObjectId(0), &candidates, Similarity::Cosine);
        assert_eq!(ranked[0].0, ObjectId(2));
        assert_eq!(ranked.last().unwrap().0, ObjectId(1));
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn top_k_truncates_and_matches_full_ranking() {
        let theta = MembershipMatrix::from_rows(
            &[
                vec![0.9, 0.1], // query
                vec![0.2, 0.8],
                vec![0.85, 0.15],
                vec![0.5, 0.5],
                vec![0.88, 0.12],
                vec![0.1, 0.9],
            ],
            2,
        );
        let candidates: Vec<ObjectId> = (1..6).map(ObjectId).collect();
        for sim in Similarity::ALL {
            let full = rank_candidates(&theta, ObjectId(0), &candidates, sim);
            for k in 0..=candidates.len() + 2 {
                let top = top_k(&theta, theta.row(0), &candidates, sim, k);
                assert_eq!(
                    top.len(),
                    k.min(candidates.len()),
                    "k > candidates returns everything, never panics"
                );
                assert_eq!(
                    top,
                    full[..top.len()],
                    "{}: top-{k} must equal the full ranking's prefix",
                    sim.label()
                );
            }
        }
    }

    #[test]
    fn ties_break_by_object_id_in_every_entry_point() {
        // Three candidates share the query's exact row — all tie at the
        // maximum similarity; ids must decide the order deterministically.
        let row = vec![0.6, 0.4];
        let theta = MembershipMatrix::from_rows(
            &[row.clone(), row.clone(), vec![0.1, 0.9], row.clone(), row],
            2,
        );
        let candidates = [ObjectId(3), ObjectId(1), ObjectId(4), ObjectId(2)];
        for sim in Similarity::ALL {
            let full = rank_candidates(&theta, ObjectId(0), &candidates, sim);
            let tied: Vec<ObjectId> = full.iter().take(3).map(|&(c, _)| c).collect();
            assert_eq!(
                tied,
                vec![ObjectId(1), ObjectId(3), ObjectId(4)],
                "{}: tied candidates sort by id",
                sim.label()
            );
            assert_eq!(full.last().unwrap().0, ObjectId(2));
            let top2 = top_k(&theta, theta.row(0), &candidates, sim, 2);
            assert_eq!(top2, full[..2], "{}: selection respects ties", sim.label());
        }
    }

    #[test]
    fn all_sims_rank_a_planted_match_first() {
        // One candidate is nearly identical to the query, the rest are far;
        // every similarity variant must put the plant on top.
        let theta = MembershipMatrix::from_rows(
            &[
                vec![0.7, 0.2, 0.1],                   // query
                vec![0.1, 0.8, 0.1],                   // far
                vec![0.69, 0.21, 0.1],                 // planted match
                vec![0.1, 0.1, 0.8],                   // far
                vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], // uniform
            ],
            3,
        );
        let candidates: Vec<ObjectId> = (1..5).map(ObjectId).collect();
        for sim in Similarity::ALL {
            let ranked = rank_candidates(&theta, ObjectId(0), &candidates, sim);
            assert_eq!(
                ranked[0].0,
                ObjectId(2),
                "{} must find the planted match",
                sim.label()
            );
            let top1 = top_k(&theta, theta.row(0), &candidates, sim, 1);
            assert_eq!(top1[0].0, ObjectId(2));
        }
    }

    #[test]
    fn nan_scores_rank_last_with_id_ties_in_every_entry_point() {
        // `rank_row`/`top_k` accept *external* query rows (fold-in output,
        // operator input), so NaN scores are reachable: a NaN query makes
        // every candidate score NaN under Cosine / NegEuclidean. The
        // documented ordering — descending score, NaN strictly last,
        // ascending id on ties (including among the NaNs) — must hold
        // without panicking in the sort or the selection (a comparator
        // that maps NaN to "equal" is not a total order, which `sort_by` /
        // `select_nth_unstable_by` are allowed to reject at runtime).
        let theta = MembershipMatrix::from_rows(
            &[
                vec![0.9, 0.1],
                vec![0.8, 0.2],
                vec![0.5, 0.5],
                vec![0.3, 0.7],
                vec![0.2, 0.8],
            ],
            2,
        );
        let candidates = [ObjectId(4), ObjectId(3), ObjectId(2), ObjectId(1)];
        let all_nan = [f64::NAN, f64::NAN];
        for sim in [Similarity::Cosine, Similarity::NegEuclidean] {
            let ranked = rank_row(&theta, &all_nan, &candidates, sim);
            assert!(ranked.iter().all(|&(_, s)| s.is_nan()), "{}", sim.label());
            let got: Vec<ObjectId> = ranked.iter().map(|&(c, _)| c).collect();
            assert_eq!(
                got,
                vec![ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(4)],
                "{}: all-NaN ties order by ascending id",
                sim.label()
            );
            for k in 0..=candidates.len() + 1 {
                let top = top_k(&theta, &all_nan, &candidates, sim, k);
                assert_eq!(top.len(), k.min(candidates.len()));
                let prefix: Vec<ObjectId> = top.iter().map(|&(c, _)| c).collect();
                assert_eq!(prefix, got[..prefix.len()], "top-{k} prefix");
            }
        }
    }

    #[test]
    fn cmp_scored_is_a_total_order_over_mixed_nan_scores() {
        use std::cmp::Ordering;
        // The comparator itself (shared by every entry point) on a sample
        // mixing finite values, infinities, and NaN: NaN strictly after
        // every number, ids break ties everywhere — and the relation is a
        // genuine total order (antisymmetric, transitive), which is what
        // keeps `sort_by`'s runtime total-order check happy.
        let sample = [
            (ObjectId(3), f64::NAN),
            (ObjectId(0), 1.0),
            (ObjectId(1), f64::NAN),
            (ObjectId(2), f64::NEG_INFINITY),
            (ObjectId(4), 1.0),
            (ObjectId(5), f64::INFINITY),
        ];
        // Pairwise antisymmetry.
        for a in &sample {
            for b in &sample {
                assert_eq!(cmp_scored(a, b), cmp_scored(b, a).reverse(), "{a:?} {b:?}");
            }
        }
        // Transitivity over every triple.
        for a in &sample {
            for b in &sample {
                for c in &sample {
                    if cmp_scored(a, b) != Ordering::Greater
                        && cmp_scored(b, c) != Ordering::Greater
                    {
                        assert_ne!(
                            cmp_scored(a, c),
                            Ordering::Greater,
                            "transitivity violated on {a:?} {b:?} {c:?}"
                        );
                    }
                }
            }
        }
        let mut sorted = sample;
        sorted.sort_by(cmp_scored);
        let ids: Vec<u32> = sorted.iter().map(|&(c, _)| c.0).collect();
        // +inf, the finite tie by id, −inf, then the NaNs by id.
        assert_eq!(ids, vec![5, 0, 4, 2, 1, 3]);
    }

    #[test]
    fn rank_row_accepts_external_query_rows() {
        let theta =
            MembershipMatrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8], vec![0.5, 0.5]], 2);
        let folded = [0.15, 0.85]; // a fold-in result, not a row of theta
        let candidates = [ObjectId(0), ObjectId(1), ObjectId(2)];
        let ranked = rank_row(&theta, &folded, &candidates, Similarity::NegEuclidean);
        assert_eq!(ranked[0].0, ObjectId(1));
        assert_eq!(ranked.last().unwrap().0, ObjectId(0));
    }

    #[test]
    fn query_terms_score_bit_identically_to_similarity_score() {
        let rows = [
            vec![0.7, 0.2, 0.1],
            vec![0.0, 0.5, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![f64::NAN, 0.5, 0.5],
            vec![3.0, 4.0, 1e-300],
            vec![f64::INFINITY, 1.0, 0.0],
            vec![-0.0, 1e-13, 1.0],
        ];
        for sim in Similarity::ALL {
            for q in &rows {
                let terms = QueryTerms::new(sim, q);
                for c in &rows {
                    assert_eq!(
                        terms.score(c, || row_norm(c)).to_bits(),
                        sim.score(q, c).to_bits(),
                        "{sim:?} {q:?} {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn best_k_never_allocates_past_the_candidate_count() {
        let best = BestK::new(u32::MAX as usize, 3);
        assert!(best.heap.capacity() < 16);
        let theta = MembershipMatrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]], 2);
        let candidates = [ObjectId(0), ObjectId(1)];
        let top = top_k(
            &theta,
            &[0.5, 0.5],
            &candidates,
            Similarity::Cosine,
            usize::MAX,
        );
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(Similarity::Cosine.label(), "cos(theta_i,theta_j)");
        assert_eq!(Similarity::NegCrossEntropy.label(), "-H(theta_j,theta_i)");
    }
}

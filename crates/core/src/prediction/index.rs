//! Exact cosine `top_k` over one object type from a sorted projection.
//!
//! A [`CandidateIndex`] holds, for the members of one object type:
//!
//! * every member's [`row_norm`], summed in [`Similarity::score`]'s order;
//! * the members sorted by one coordinate of their normalised row,
//!   `key = row[a] / norm` stored as `f32`, where `a` is the coordinate
//!   with the most variance across the type;
//! * a copy of the members' `Θ` rows in that key order (`K·8` bytes each),
//!   so a walk streams consecutive rows instead of gathering scattered
//!   ones from `Θ`: its cost no longer depends on where the allocator
//!   placed `Θ` or on which rows happen to share cache lines;
//! * a side list of members whose norm is zero, not finite, or too far from
//!   1 for the rounding argument below (`Θ` rows never are: a simplex row's
//!   norm lies in `[1/√K, 1]`).
//!
//! **Why the walk is exact.** For unit vectors `q̂`, `x̂` with cosine `c`,
//! `|q̂_a − x̂_a| ≤ ‖q̂ − x̂‖ = √(2 − 2c)`. A cosine search walks outward
//! from the query's key, nearest key first, and stops once the next key is
//! farther than `√(2 − 2·kth) + margin`, where `kth` is the `k`-th best
//! score kept so far: every member past that point has a cosine below
//! `kth`, so it cannot enter the buffer (and `kth` only rises).
//!
//! **The margin.** Scores and keys are rounded. With `u = ε/2` and `K`
//! clusters, a computed score is within `δ = (K + 4)·ε` of the true cosine
//! (dot product `γ_K`, each norm `≈ (K/2 + 1)·u`, the division `u`; the
//! norm band rules out overflow and leaves underflow an absolute error far
//! below `δ·‖q‖‖x‖`), and a computed key is within `δ` of `x̂_a`; storing
//! it as `f32` moves it by at most `2⁻²⁴` more (`|key| ≤ 1`). A member
//! that can still enter has a computed score `≥ kth`, so its true cosine
//! is `≥ kth − δ` and its stored key lies within
//! `√(2 − 2·kth) + √(2δ) + 2δ + 2⁻²⁴` of the query's (`f64`) key. The
//! margin is twice that slack (the factor also covers the rounding of the
//! key difference itself), and at least `1e-6`: for `K = 4` the slack is
//! `≈ 1.2e-7` in the worst case (`kth = 1`), so `1e-6` leaves 8×
//! headroom, and the margin stays `1e-6` up to `K ≈ 430`.
//! The bound only decides what to skip; every reported score is
//! the reference arithmetic, `dot / (na * nb)` on the precomputed norms.
//!
//! Euclidean and cross-entropy queries, a query whose norm is outside the
//! band (zero or NaN rows included), and `k ≥ n` all use the plain in-place
//! scan over the same arrays.

use super::{row_norm, scan, BestK, QueryTerms, Similarity};
use genclus_hin::ObjectId;
use genclus_stats::MembershipMatrix;

/// Norms the rounding argument covers (see the module doc): no square or
/// product of entries overflows, and underflow's error stays negligible.
const NORM_BAND: std::ops::RangeInclusive<f64> = 1e-100..=1e100;

/// Bound on the change from rounding a key (`|key| ≤ 1`) to `f32`.
const F32_KEY_ERROR: f64 = 1.0 / (1u32 << 24) as f64;

/// `x`'s bits, mapped so that unsigned order is [`f32::total_cmp`] order.
fn total_order_bits(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The inverse of [`total_order_bits`].
fn from_total_order_bits(bits: u32) -> f32 {
    f32::from_bits(if bits >> 31 == 1 {
        bits & !(1 << 31)
    } else {
        !bits
    })
}

/// Sorts `codes` by their top 32 bits, stably: a least-significant-digit
/// radix sort, one byte per pass, skipping bytes every code shares (keys of
/// one type's rows agree in their leading bytes).
fn radix_sort_top_words(mut codes: Vec<u64>) -> Vec<u64> {
    let mut counts = [[0usize; 256]; 4];
    for &code in &codes {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(code >> (32 + 8 * digit)) as u8 as usize] += 1;
        }
    }
    let mut spare = vec![0; codes.len()];
    for (digit, count) in counts.iter_mut().enumerate() {
        if count.contains(&codes.len()) {
            continue;
        }
        let mut offset = 0;
        for slot in count.iter_mut() {
            (*slot, offset) = (offset, offset + *slot);
        }
        for &code in &codes {
            let slot = &mut count[(code >> (32 + 8 * digit)) as u8 as usize];
            spare[*slot] = code;
            *slot += 1;
        }
        std::mem::swap(&mut codes, &mut spare);
    }
    codes
}

/// The per-type candidate index: precomputed norms plus a sorted
/// projection that lets a cosine search stop early and stay exact.
#[derive(Debug)]
pub struct CandidateIndex {
    /// The projected coordinate `a`.
    axis: usize,
    /// Slack added to the pruning radius (module doc, "The margin").
    margin: f64,
    /// Members with a norm in [`NORM_BAND`], ascending by key (ties in
    /// `members` order).
    ids: Vec<ObjectId>,
    /// `row[axis] / norm` of `ids[i]`, rounded to `f32`.
    keys: Vec<f32>,
    /// [`row_norm`] of `ids[i]`.
    norms: Vec<f64>,
    /// `Θ` row of `ids[i]` at `rows[i·K..(i+1)·K]`.
    rows: Vec<f64>,
    /// Clusters `K`.
    k: usize,
    /// Members outside the band, ascending by id; always scanned.
    degenerate: Vec<ObjectId>,
}

impl CandidateIndex {
    /// Indexes `members`, rows of `theta` (ascending ids make ties in key
    /// order ascend by id).
    pub fn build(theta: &MembershipMatrix, members: &[ObjectId]) -> Self {
        let k = theta.n_clusters();
        let in_band = |row: &[f64]| {
            let norm = row_norm(row);
            NORM_BAND.contains(&norm).then_some(norm)
        };
        let mut degenerate = Vec::new();
        let mut n_live = 0usize;
        // Per-coordinate sums of the normalised rows: the coordinate with
        // the most variance spreads the keys widest, so the walk's window
        // holds the fewest members.
        let mut sum = vec![0.0; k];
        let mut sum_sq = vec![0.0; k];
        for &v in members {
            let row = theta.row(v.index());
            let Some(norm) = in_band(row) else {
                degenerate.push(v);
                continue;
            };
            n_live += 1;
            for (c, &x) in row.iter().enumerate() {
                let y = x / norm;
                sum[c] += y;
                sum_sq[c] += y * y;
            }
        }
        degenerate.sort_unstable();
        let m = n_live.max(1) as f64;
        let variance = |c: usize| sum_sq[c] / m - (sum[c] / m).powi(2);
        let axis = (0..k)
            .max_by(|&a, &b| variance(a).total_cmp(&variance(b)).then(b.cmp(&a)))
            .unwrap_or(0);

        // Sort on integer codes `key bits | id`: a radix sort over the
        // key's four bytes orders the members, and the ids and keys come
        // out in sequence. The build sits on the load path: a comparator
        // sort of `(key, id)` pairs is about twice as slow. The norms are
        // recomputed from the copied rows, which hold the same values as
        // `Θ`'s, so they are the same bits; the build holds no per-member
        // buffer beyond the codes and their sort buffer.
        let order = radix_sort_top_words(
            members
                .iter()
                .filter_map(|&v| {
                    let row = theta.row(v.index());
                    let key = (row[axis] / in_band(row)?) as f32;
                    Some(u64::from(total_order_bits(key)) << 32 | u64::from(v.0))
                })
                .collect(),
        );
        let ids: Vec<ObjectId> = order.iter().map(|&c| ObjectId(c as u32)).collect();
        let keys = order
            .iter()
            .map(|&c| from_total_order_bits((c >> 32) as u32))
            .collect();
        drop(order);
        let mut rows = Vec::with_capacity(ids.len() * k);
        for &v in &ids {
            rows.extend_from_slice(theta.row(v.index()));
        }
        let norms = (0..ids.len())
            .map(|i| row_norm(&rows[i * k..(i + 1) * k]))
            .collect();
        let delta = (k as f64 + 4.0) * f64::EPSILON;
        Self {
            axis,
            margin: (2.0 * ((2.0 * delta).sqrt() + 2.0 * delta + F32_KEY_ERROR)).max(1e-6),
            ids,
            keys,
            norms,
            rows,
            k,
            degenerate,
        }
    }

    /// Number of indexed members.
    fn len(&self) -> usize {
        self.ids.len() + self.degenerate.len()
    }

    /// Offers to `best` every member except `exclude` that can still enter
    /// it, and returns how many members were scored. `theta` must be the
    /// matrix the index was built from.
    pub fn offer_to(
        &self,
        theta: &MembershipMatrix,
        query: &QueryTerms<'_>,
        exclude: Option<ObjectId>,
        best: &mut BestK,
    ) -> usize {
        if best.k == 0 {
            return 0;
        }
        let sorted_row = |i: usize, _| self.row(i);
        let sorted_norm = |i: usize, _: &[f64]| self.norms[i];
        let mut scored = scan(
            query,
            &self.degenerate,
            |_, c: ObjectId| theta.row(c.index()),
            |_, row| row_norm(row),
            exclude,
            best,
        );
        let key = match self.query_key(query) {
            Some(key) if best.is_selective() => key,
            _ => {
                return scored + scan(query, &self.ids, sorted_row, sorted_norm, exclude, best);
            }
        };

        let (ids, keys) = (&self.ids, &self.keys);
        let n = keys.len();
        let key_at = |i: usize| f64::from(keys[i]);
        let start = keys.partition_point(|&x| f64::from(x) < key);
        let (mut lo, mut hi) = (start, start);
        let mut radius = self.radius(best);
        // lint: region(hot-path)
        loop {
            // Nearest unvisited key first: once it is out of reach, so is
            // every key beyond it on both sides.
            let i = match (lo > 0, hi < n) {
                (false, false) => break,
                (true, up) if !up || key - key_at(lo - 1) <= key_at(hi) - key => {
                    lo -= 1;
                    lo
                }
                _ => {
                    hi += 1;
                    hi - 1
                }
            };
            if (key_at(i) - key).abs() > radius {
                break;
            }
            let c = ids[i];
            if Some(c) == exclude {
                continue;
            }
            scored += 1;
            let score = query.score(self.row(i), || self.norms[i]);
            if best.offer(c, score) {
                radius = self.radius(best);
            }
        }
        // lint: end-region
        scored
    }

    /// The copied `Θ` row of `ids[i]`.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.k..(i + 1) * self.k]
    }

    /// The query's key, when the walk applies: a cosine query whose norm
    /// is in the band.
    fn query_key(&self, query: &QueryTerms<'_>) -> Option<f64> {
        if query.sim != Similarity::Cosine || !NORM_BAND.contains(&query.norm) {
            return None;
        }
        query.row.get(self.axis).map(|&x| x / query.norm)
    }

    /// How far from the query's key a member that can still enter `best`
    /// may lie: unbounded until `best` is full or while its `k`-th score is
    /// NaN.
    fn radius(&self, best: &BestK) -> f64 {
        match best.kth() {
            Some(kth) if !kth.is_nan() => (2.0 - 2.0 * kth).max(0.0).sqrt() + self.margin,
            _ => f64::INFINITY,
        }
    }
}

/// The best `k` members of `indexes` for `query_row` under `sim`, descending
/// with `cmp_scored`'s tie-breaking, `exclude` left out. Equal, bit for
/// bit, to [`super::top_k`] over the same members.
pub fn search(
    theta: &MembershipMatrix,
    indexes: &[CandidateIndex],
    query_row: &[f64],
    sim: Similarity,
    k: usize,
    exclude: Option<ObjectId>,
) -> Vec<(ObjectId, f64)> {
    let query = QueryTerms::new(sim, query_row);
    let n = indexes.iter().map(CandidateIndex::len).sum();
    let mut best = BestK::new(k, n);
    for index in indexes {
        index.offer_to(theta, &query, exclude, &mut best);
    }
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_sorted_and_degenerate_rows_go_to_the_side_list() {
        let mut theta = MembershipMatrix::from_rows(
            &[
                vec![0.9, 0.1],
                vec![0.2, 0.8],
                vec![0.5, 0.5],
                vec![0.6, 0.4],
                vec![0.3, 0.7],
            ],
            2,
        );
        theta.row_mut(1).fill(0.0);
        theta.row_mut(3)[0] = f64::NAN;
        let members: Vec<ObjectId> = (0..5).map(ObjectId).collect();
        let index = CandidateIndex::build(&theta, &members);
        assert_eq!(index.len(), 5);
        assert_eq!(index.degenerate, vec![ObjectId(1), ObjectId(3)]);
        assert!(index.keys.windows(2).all(|w| w[0] <= w[1]));
        for (i, &v) in index.ids.iter().enumerate() {
            assert_eq!(
                index.norms[i].to_bits(),
                row_norm(theta.row(v.index())).to_bits()
            );
            assert_eq!(index.row(i), theta.row(v.index()));
        }
        assert_eq!(index.margin, 1e-6);
    }

    #[test]
    fn radix_sort_orders_like_a_comparison_sort() {
        // Repeated keys, both zeros, extremes; the low bits ascend, as
        // the ids do in the build.
        let keys = (0..5000u64)
            .map(|i| ((i * 7919 % 4999) as f32 - 2500.0) / 977.0)
            .chain([0.0, -0.0, 1e-30, -1e30]);
        let mut codes: Vec<u64> = keys
            .enumerate()
            .map(|(p, x)| u64::from(total_order_bits(x)) << 32 | p as u64)
            .collect();
        for code in &codes {
            let bits = (code >> 32) as u32;
            assert_eq!(total_order_bits(from_total_order_bits(bits)), bits);
        }
        let sorted = radix_sort_top_words(codes.clone());
        codes.sort_unstable();
        assert_eq!(sorted, codes);
    }
}

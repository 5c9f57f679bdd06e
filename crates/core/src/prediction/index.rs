//! Exact cosine `top_k` over one object type from per-cluster sorted
//! projections.
//!
//! A [`CandidateIndex`] holds, for the members of one object type:
//!
//! * every member's [`row_norm`], summed in [`Similarity::score`]'s order;
//! * the members split into `K` partitions by their dominant cluster (the
//!   [`argmax`] of the row, ties to the lower index), and sorted inside
//!   partition `p` by their own normalised coordinate, `key = row[p] / norm`
//!   stored as `f32`, with the `K + 1` partition offsets;
//! * a copy of the members' `Θ` rows in that order (`K·8` bytes each), so a
//!   walk streams consecutive rows instead of gathering scattered ones from
//!   `Θ`: its cost no longer depends on where the allocator placed `Θ` or
//!   on which rows happen to share cache lines;
//! * a side list of members whose norm is zero, not finite, or too far from
//!   1 for the rounding argument below (`Θ` rows never are: a simplex row's
//!   norm lies in `[1/√K, 1]`).
//!
//! **Why the walk is exact.** For unit vectors `q̂`, `x̂` with cosine `c`,
//! `|q̂_p − x̂_p| ≤ ‖q̂ − x̂‖ = √(2 − 2c)` for every coordinate `p`. A cosine
//! search walks each partition `p` outward from the query's own coordinate
//! `q̂_p`, nearest key first, and leaves it once the next key is farther
//! than `√(2 − 2·kth) + margin`, where `kth` is the `k`-th best score kept
//! so far: every member past that point has a cosine below `kth`, so it
//! cannot enter the buffer (and `kth` only rises). The partitions share one
//! best-`k` buffer, so the radius is carried from one to the next. The
//! query's own dominant partition goes first, since it holds the query's
//! nearest rows and shrinks the radius the most. A simplex row's largest
//! normalised coordinate is at least `1/√K`, so for a confident query
//! (`q̂_p` far below `1/√K`) every other partition ends after one binary
//! search. The partition a row lands in only steers the cost: the bound
//! holds on any coordinate.
//!
//! **The margin.** Scores and keys are rounded. With `u = ε/2` and `K`
//! clusters, a computed score is within `δ = (K + 4)·ε` of the true cosine
//! (dot product `γ_K`, each norm `≈ (K/2 + 1)·u`, the division `u`; the
//! norm band rules out overflow and leaves underflow an absolute error far
//! below `δ·‖q‖‖x‖`), and a computed key is within `δ` of `x̂_p`; storing
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
//! band (zero or NaN rows included) or whose length is not `K`, and
//! `k ≥ n` all use the plain in-place scan over the same arrays.

use super::{row_norm, scan, BestK, QueryTerms, Similarity};
use genclus_hin::ObjectId;
use genclus_stats::simplex::argmax;
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

/// Sorts `codes` by their top 32 bits, stably, using `spare` (same length)
/// as scratch: a least-significant-digit radix sort, one byte per pass,
/// skipping bytes every code shares (keys of one partition agree in their
/// leading bytes).
fn radix_sort_top_words(codes: &mut [u64], spare: &mut [u64]) {
    let mut counts = [[0usize; 256]; 4];
    for &code in codes.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(code >> (32 + 8 * digit)) as u8 as usize] += 1;
        }
    }
    let n = codes.len();
    let (mut from, mut to) = (codes, spare);
    let mut in_spare = false;
    for (digit, count) in counts.iter_mut().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut offset = 0;
        for slot in count.iter_mut() {
            (*slot, offset) = (offset, offset + *slot);
        }
        for &code in from.iter() {
            let slot = &mut count[(code >> (32 + 8 * digit)) as u8 as usize];
            to[*slot] = code;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
        in_spare = !in_spare;
    }
    if in_spare {
        to.copy_from_slice(from);
    }
}

/// The per-type candidate index: precomputed norms plus one sorted
/// projection per dominant cluster, which let a cosine search stop early
/// and stay exact.
#[derive(Debug)]
pub struct CandidateIndex {
    /// Slack added to the pruning radius (module doc, "The margin").
    margin: f64,
    /// Partition `p`, the members whose dominant cluster is `p`, is
    /// `starts[p]..starts[p + 1]` of the arrays below (`K + 1` offsets).
    starts: Vec<usize>,
    /// Members with a norm in [`NORM_BAND`], by partition, ascending by
    /// key inside each (ties in `members` order).
    ids: Vec<ObjectId>,
    /// `row[p] / norm` of `ids[i]` in its partition `p`, rounded to `f32`.
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
        // Partition sizes, then their offsets. An in-band row is finite
        // and not all zero, so `argmax` names a real cluster.
        let mut starts = vec![0; k + 1];
        let mut degenerate = Vec::new();
        for &v in members {
            let row = theta.row(v.index());
            match in_band(row) {
                Some(_) => starts[argmax(row)] += 1,
                None => degenerate.push(v),
            }
        }
        degenerate.sort_unstable();
        let mut offset = 0;
        for slot in starts.iter_mut() {
            (*slot, offset) = (offset, offset + *slot);
        }

        // Sort on integer codes `key bits | id`. The partition is the most
        // significant digit: each code is written into its partition's
        // range, and a radix sort over the key's four bytes orders each
        // range, so the ids and keys come out in sequence. The build sits
        // on the load path: a comparator sort of `(key, id)` pairs is
        // about twice as slow. The norms are recomputed from the copied
        // rows, which hold the same values as `Θ`'s, so they are the same
        // bits; the build holds no per-member buffer beyond the codes and
        // their sort buffer.
        let mut next = starts.clone();
        let mut codes = vec![0; starts[k]];
        for &v in members {
            let row = theta.row(v.index());
            let Some(norm) = in_band(row) else {
                continue;
            };
            let p = argmax(row);
            let key = (row[p] / norm) as f32;
            codes[next[p]] = u64::from(total_order_bits(key)) << 32 | u64::from(v.0);
            next[p] += 1;
        }
        let largest = starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut spare = vec![0; largest];
        for w in starts.windows(2) {
            radix_sort_top_words(&mut codes[w[0]..w[1]], &mut spare[..w[1] - w[0]]);
        }
        drop(spare);
        let ids: Vec<ObjectId> = codes.iter().map(|&c| ObjectId(c as u32)).collect();
        let keys = codes
            .iter()
            .map(|&c| from_total_order_bits((c >> 32) as u32))
            .collect();
        drop(codes);
        let mut rows = Vec::with_capacity(ids.len() * k);
        for &v in &ids {
            rows.extend_from_slice(theta.row(v.index()));
        }
        let norms = (0..ids.len())
            .map(|i| row_norm(&rows[i * k..(i + 1) * k]))
            .collect();
        let delta = (k as f64 + 4.0) * f64::EPSILON;
        Self {
            margin: (2.0 * ((2.0 * delta).sqrt() + 2.0 * delta + F32_KEY_ERROR)).max(1e-6),
            starts,
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
        let mut scored = scan(
            query,
            &self.degenerate,
            |_, c: ObjectId| theta.row(c.index()),
            |_, row| row_norm(row),
            exclude,
            best,
        );
        if !self.walks(query) || !best.is_selective() {
            let sorted_row = |i: usize, _| self.row(i);
            let sorted_norm = |i: usize, _: &[f64]| self.norms[i];
            return scored + scan(query, &self.ids, sorted_row, sorted_norm, exclude, best);
        }
        // The query's own dominant partition first, then the others, all
        // under one radius.
        let own = argmax(query.row);
        let mut radius = self.radius(best);
        for p in std::iter::once(own).chain((0..self.k).filter(|&p| p != own)) {
            scored += self.walk(p, query, exclude, best, &mut radius);
        }
        scored
    }

    /// Walks partition `p` outward from the query's key `q̂_p`, offering
    /// `best` every member within `radius` (kept current as `best` fills),
    /// and returns how many members were scored.
    fn walk(
        &self,
        p: usize,
        query: &QueryTerms<'_>,
        exclude: Option<ObjectId>,
        best: &mut BestK,
        radius: &mut f64,
    ) -> usize {
        let key = query.row[p] / query.norm;
        let base = self.starts[p];
        let keys = &self.keys[base..self.starts[p + 1]];
        let n = keys.len();
        let key_at = |i: usize| f64::from(keys[i]);
        let start = keys.partition_point(|&x| f64::from(x) < key);
        let (mut lo, mut hi) = (start, start);
        let mut scored = 0;
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
            if (key_at(i) - key).abs() > *radius {
                break;
            }
            let j = base + i;
            let c = self.ids[j];
            if Some(c) == exclude {
                continue;
            }
            scored += 1;
            let score = query.score(self.row(j), || self.norms[j]);
            if best.offer(c, score) {
                *radius = self.radius(best);
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

    /// Whether the walk applies: a cosine query whose norm is in the band
    /// and whose row has `K` entries.
    fn walks(&self, query: &QueryTerms<'_>) -> bool {
        query.sim == Similarity::Cosine
            && NORM_BAND.contains(&query.norm)
            && query.row.len() == self.k
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
                vec![0.7, 0.3],
            ],
            2,
        );
        theta.row_mut(1).fill(0.0);
        theta.row_mut(3)[0] = f64::NAN;
        let members: Vec<ObjectId> = (0..6).map(ObjectId).collect();
        let index = CandidateIndex::build(&theta, &members);
        assert_eq!(index.len(), 6);
        assert_eq!(index.degenerate, vec![ObjectId(1), ObjectId(3)]);
        // Row 2 ties at 0.5 and goes to the lower cluster.
        assert_eq!(index.starts, vec![0, 3, 4]);
        assert_eq!(
            index.ids,
            vec![ObjectId(2), ObjectId(5), ObjectId(0), ObjectId(4)]
        );
        for w in index.starts.windows(2) {
            assert!(index.keys[w[0]..w[1]].windows(2).all(|w| w[0] <= w[1]));
        }
        for (i, &v) in index.ids.iter().enumerate() {
            let p = (index.starts[1]..).contains(&i) as usize;
            assert_eq!(argmax(theta.row(v.index())), p);
            let key = theta.row(v.index())[p] / index.norms[i];
            assert_eq!(index.keys[i], key as f32);
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
        let mut sorted = codes.clone();
        radix_sort_top_words(&mut sorted, &mut vec![0; codes.len()]);
        codes.sort_unstable();
        assert_eq!(sorted, codes);
    }
}

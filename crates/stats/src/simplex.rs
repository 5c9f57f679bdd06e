//! Probability-simplex vectors and the membership matrix `Θ`.
//!
//! GenClus represents the soft clustering as `Θ (|V| × K)` with each row on
//! the `K`-simplex. Rows feed into `log` (cross-entropy feature function,
//! Eq. 6), so they are kept strictly positive: every normalization floors
//! entries at [`THETA_FLOOR`] before renormalizing.

/// Smallest membership probability kept after normalization.
///
/// Flooring keeps `log θ` finite; `1e-12` is far below any probability the
/// model can distinguish while keeping `|log θ| ≤ ~27.6`, so one degenerate
/// row cannot dominate the structural objective.
pub const THETA_FLOOR: f64 = 1e-12;

/// Shannon entropy `−Σ p_k ln p_k` of a probability vector (nats).
///
/// Zero entries contribute zero (the `p ln p → 0` limit).
pub fn entropy(p: &[f64]) -> f64 {
    p.iter().filter(|&&x| x > 0.0).map(|&x| -x * x.ln()).sum()
}

/// Cross entropy `H(p, q) = −Σ p_k ln q_k` (nats).
///
/// This is the paper's `H(θ_j, θ_i)` with `p = θ_j` (the link target) and
/// `q = θ_i` (the link source); note the asymmetry. `q` entries are floored
/// at [`THETA_FLOOR`] so the result is finite.
pub fn cross_entropy(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    p.iter()
        .zip(q)
        .filter(|(&pk, _)| pk > 0.0)
        .map(|(&pk, &qk)| -pk * qk.max(THETA_FLOOR).ln())
        .sum()
}

/// Kullback–Leibler divergence `KL(p ‖ q)` in nats.
///
/// Provided for the feature-function ablation discussed in §3.3 of the paper
/// (cross entropy is preferred because it additionally rewards concentrated
/// `θ_i`).
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    cross_entropy(p, q) - entropy(p)
}

/// Normalizes `row` to the simplex with flooring.
///
/// Negative entries are clamped to zero first (callers accumulate weighted
/// sums that are mathematically non-negative; tiny negative dust can appear
/// from cancellation). If the row sums to zero it becomes uniform.
pub fn normalize_floored(row: &mut [f64]) {
    if row.is_empty() {
        return;
    }
    let mut sum = 0.0;
    for x in row.iter_mut() {
        if *x < 0.0 {
            *x = 0.0;
        }
        sum += *x;
    }
    if sum <= 0.0 || !sum.is_finite() {
        let u = 1.0 / row.len() as f64;
        row.iter_mut().for_each(|x| *x = u);
        return;
    }
    for x in row.iter_mut() {
        *x = (*x / sum).max(THETA_FLOOR);
    }
    // Renormalize after flooring so the row sums to exactly 1.
    let sum: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= sum);
}

/// Index of the largest entry (ties broken towards the lower index).
pub fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &x) in row.iter().enumerate() {
        if x > best_val {
            best_val = x;
            best = i;
        }
    }
    best
}

/// Soft cluster-membership matrix: one simplex row of length `k` per object.
///
/// This is the paper's `Θ`. Storage is flat row-major `Vec<f64>` so E/M steps
/// iterate cache-friendly slices; rows are guaranteed strictly positive and
/// summing to one as long as they are only mutated through
/// [`MembershipMatrix::set_row`] / [`MembershipMatrix::normalize_row`].
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipMatrix {
    data: Vec<f64>,
    n: usize,
    k: usize,
}

impl MembershipMatrix {
    /// A matrix of `n` uniform rows over `k` clusters.
    pub fn uniform(n: usize, k: usize) -> Self {
        assert!(k > 0, "cluster count must be positive");
        Self {
            data: vec![1.0 / k as f64; n * k],
            n,
            k,
        }
    }

    /// A matrix with rows sampled uniformly from the simplex
    /// (via `Dirichlet(1, …, 1)`).
    pub fn random<R: rand::Rng>(n: usize, k: usize, rng: &mut R) -> Self {
        assert!(k > 0, "cluster count must be positive");
        let mut m = Self::uniform(n, k);
        let alpha = vec![1.0; k];
        let mut buf = vec![0.0; k];
        for i in 0..n {
            crate::rng::sample_dirichlet_into(rng, &alpha, &mut buf);
            m.set_row(i, &buf);
        }
        m
    }

    /// Builds a matrix from rows, normalizing each.
    ///
    /// # Panics
    /// Panics if any row's length differs from `k`.
    pub fn from_rows(rows: &[Vec<f64>], k: usize) -> Self {
        let mut m = Self::uniform(rows.len(), k);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), k, "row {i} has length {} != k = {k}", r.len());
            m.set_row(i, r);
        }
        m
    }

    /// Builds a matrix from flat row-major `data`, normalizing each row
    /// exactly as [`Self::from_rows`] does — bit for bit the same matrix,
    /// without a `Vec` per row.
    ///
    /// # Panics
    /// Panics if `k` is zero or `data.len()` is not a multiple of `k`.
    pub fn from_flat(mut data: Vec<f64>, k: usize) -> Self {
        assert!(k > 0, "cluster count must be positive");
        assert!(
            data.len().is_multiple_of(k),
            "{} entries do not fill rows of k = {k}",
            data.len()
        );
        for row in data.chunks_exact_mut(k) {
            normalize_floored(row);
        }
        Self {
            n: data.len() / k,
            data,
            k,
        }
    }

    /// Number of objects (rows).
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.n
    }

    /// Number of clusters (columns).
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.k
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Mutable view of row `i`.
    ///
    /// Callers must re-establish the simplex invariant (e.g. via
    /// [`Self::normalize_row`]) before the row is read by model code.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.k..(i + 1) * self.k]
    }

    /// Overwrites row `i` with `values`, then floors + normalizes it.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        let row = self.row_mut(i);
        row.copy_from_slice(values);
        normalize_floored(row);
    }

    /// Floors + normalizes row `i` in place.
    pub fn normalize_row(&mut self, i: usize) {
        normalize_floored(self.row_mut(i));
    }

    /// The whole matrix as a flat row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat access for bulk parallel updates. Invariants are the
    /// caller's responsibility, as with [`Self::row_mut`].
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Hard labels: argmax of each row.
    pub fn hard_labels(&self) -> Vec<usize> {
        (0..self.n).map(|i| argmax(self.row(i))).collect()
    }

    /// Maximum absolute entry-wise difference to another matrix of the same
    /// shape; used as the EM convergence criterion.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.n, other.n);
        assert_eq!(self.k, other.k);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Splits the flat storage into disjoint per-row chunks of `rows_per_chunk`
    /// rows for scoped-thread parallel updates.
    pub fn par_chunks_mut(&mut self, rows_per_chunk: usize) -> std::slice::ChunksMut<'_, f64> {
        self.data.chunks_mut(rows_per_chunk.max(1) * self.k)
    }

    /// Serializes as `[n u64][k u64][n·k raw f64 bit patterns]` (LE; see
    /// [`crate::bytesio`]) and returns the byte offset of the first matrix
    /// entry within the emitted bytes. Because every item is 8 bytes, a
    /// caller that starts writing at an 8-aligned position gets an 8-aligned
    /// data payload — the contract the serve crate's zero-copy `Θ` view
    /// relies on.
    pub fn to_bytes(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        crate::bytesio::put_u64(out, self.n as u64);
        crate::bytesio::put_u64(out, self.k as u64);
        let data_offset = out.len() - start;
        out.reserve(self.data.len() * 8);
        for &x in &self.data {
            crate::bytesio::put_f64(out, x);
        }
        data_offset
    }

    /// Inverse of [`Self::to_bytes`]. Returns `None` on truncation, a
    /// corrupt length prefix, zero `k`, or non-finite entries; entries are
    /// restored bit-exactly so write → read → write is byte-identical.
    pub fn from_bytes(r: &mut crate::bytesio::ByteReader<'_>) -> Option<Self> {
        let n: usize = r.u64()?.try_into().ok()?;
        let k: usize = r.u64()?.try_into().ok()?;
        if k == 0 || n.checked_mul(k)?.checked_mul(8)? > r.remaining() {
            return None;
        }
        let mut data = Vec::with_capacity(n * k);
        for _ in 0..n * k {
            let x = r.f64()?;
            if !x.is_finite() {
                return None;
            }
            data.push(x);
        }
        Some(Self { data, n, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn entropy_of_uniform_is_ln_k() {
        let p = [0.25; 4];
        assert!((entropy(&p) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        let p = [0.0, 1.0, 0.0];
        assert_eq!(entropy(&p), 0.0);
    }

    #[test]
    fn cross_entropy_minimized_at_equality_for_point_mass() {
        // H(p, q) ≥ H(p); equality iff p == q. For p a point mass H(p) = 0.
        let p = [1.0, 0.0];
        assert!(cross_entropy(&p, &[1.0, 0.0]).abs() < 1e-9);
        assert!(cross_entropy(&p, &[0.5, 0.5]) > 0.5);
    }

    #[test]
    fn paper_figure4_cross_entropy_values() {
        // Fig. 4 of the paper: f(⟨1,3⟩) = −0.4701 γ, f(⟨1,4⟩) = −1.7174 γ,
        // f(⟨1,5⟩) = −2.3410 γ, where f = −H(θ_j, θ_i) times γ·w, with
        // θ_1 = (5/6, 1/12, 1/12), θ_3 = (7/8, 1/16, 1/16), θ_4 uniform,
        // θ_5 = (1/16, 1/16, 7/8).
        let theta1 = [5.0 / 6.0, 1.0 / 12.0, 1.0 / 12.0];
        let theta3 = [7.0 / 8.0, 1.0 / 16.0, 1.0 / 16.0];
        let theta4 = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];
        let theta5 = [1.0 / 16.0, 1.0 / 16.0, 7.0 / 8.0];
        assert!((cross_entropy(&theta3, &theta1) - 0.4701).abs() < 5e-4);
        assert!((cross_entropy(&theta4, &theta1) - 1.7174).abs() < 5e-4);
        assert!((cross_entropy(&theta5, &theta1) - 2.3410).abs() < 5e-4);
        // And the asymmetric pair from the same figure: f(⟨4,1⟩) = −1.0986 γ
        // (H(θ_1, θ_4) = ln 3 because θ_4 is uniform).
        assert!((cross_entropy(&theta1, &theta4) - 1.0986).abs() < 5e-4);
    }

    #[test]
    fn kl_is_nonnegative_and_zero_at_equality() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
        let q = [0.5, 0.25, 0.25];
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn normalize_handles_zero_row() {
        let mut row = [0.0, 0.0, 0.0];
        normalize_floored(&mut row);
        for &x in &row {
            assert!((x - 1.0 / 3.0).abs() < 1e-15);
        }
    }

    #[test]
    fn normalize_clamps_negatives() {
        let mut row = [-0.5, 1.0, 1.0];
        normalize_floored(&mut row);
        // The floored entry can dip a hair below THETA_FLOOR after the final
        // renormalization; strictly positive is the invariant that matters.
        assert!(row[0] >= THETA_FLOOR * 0.5);
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((row[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn membership_matrix_invariants() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = MembershipMatrix::random(50, 4, &mut rng);
        for i in 0..50 {
            let row = m.row(i);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn hard_labels_pick_argmax() {
        let m = MembershipMatrix::from_rows(
            &[
                vec![0.7, 0.2, 0.1],
                vec![0.1, 0.1, 0.8],
                vec![0.3, 0.4, 0.3],
            ],
            3,
        );
        assert_eq!(m.hard_labels(), vec![0, 2, 1]);
    }

    #[test]
    fn bytes_round_trip_is_exact_and_aligned() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let m = MembershipMatrix::random(17, 3, &mut rng);
        let mut bytes = Vec::new();
        let data_offset = m.to_bytes(&mut bytes);
        assert_eq!(data_offset, 16, "n and k headers precede the data");
        assert_eq!(bytes.len(), 16 + 17 * 3 * 8);
        let mut r = crate::bytesio::ByteReader::new(&bytes);
        let back = MembershipMatrix::from_bytes(&mut r).unwrap();
        assert_eq!(back, m, "bit-exact round trip");
        let mut again = Vec::new();
        back.to_bytes(&mut again);
        assert_eq!(again, bytes, "byte-identical re-serialization");
        // Truncation and corrupt prefixes are rejected, not panicked on.
        let mut r = crate::bytesio::ByteReader::new(&bytes[..bytes.len() - 1]);
        assert!(MembershipMatrix::from_bytes(&mut r).is_none());
        let mut corrupt = bytes.clone();
        corrupt[0] = 0xff; // absurd row count
        let mut r = crate::bytesio::ByteReader::new(&corrupt);
        assert!(MembershipMatrix::from_bytes(&mut r).is_none());
    }

    #[test]
    fn from_flat_is_bit_identical_to_from_rows() {
        // Unnormalized, negative, all-zero and sub-floor rows all take the
        // same per-row normalization either way.
        let rows = vec![
            vec![0.2, 0.3, 0.5],
            vec![3.0, -1.0, 1e-12],
            vec![0.0, 0.0, 0.0],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            vec![1e300, 2e300, 1.0],
        ];
        let flat: Vec<f64> = rows.concat();
        let a = MembershipMatrix::from_rows(&rows, 3);
        let b = MembershipMatrix::from_flat(flat, 3);
        assert_eq!((b.n_objects(), b.n_clusters()), (5, 3));
        let bits =
            |m: &MembershipMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(MembershipMatrix::from_flat(Vec::new(), 4).n_objects(), 0);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = MembershipMatrix::uniform(3, 2);
        let mut b = a.clone();
        b.set_row(1, &[0.9, 0.1]);
        assert!((a.max_abs_diff(&b) - 0.4).abs() < 1e-9);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}

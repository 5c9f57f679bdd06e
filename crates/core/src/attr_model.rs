//! Attribute mixture components (`β`).
//!
//! Every attribute in the user-specified subset is modelled as a mixture with
//! one component per cluster, shared by all objects; an object's mixing
//! proportions are its membership row `θ_v` (§3.2). Two component families
//! are supported, exactly as in the paper:
//!
//! * categorical distributions over a term vocabulary (text attributes,
//!   Eq. 3), and
//! * Gaussians over the reals (numerical attributes, Eq. 4).
//!
//! The M-step re-estimates components from responsibility-weighted
//! observation statistics; [`ComponentAccumulator`] collects those per worker
//! thread and merges across threads.

use crate::pool::padded_zeros;
use genclus_hin::AttributeData;
use rand::Rng;

/// Categorical components: a `K × m` row-stochastic matrix of term
/// probabilities, `β_{k,l}` in Eq. 3.
///
/// Construction precomputes two derived tables so the EM hot path never
/// calls `ln` per observation and never strides across component rows:
/// a `K × m` log-probability table backing [`Self::log_prob`], and a
/// term-major `m × K` transpose backing [`Self::probs_for_term`] (all `K`
/// probabilities of one term in one cache line).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalComponents {
    k: usize,
    m: usize,
    /// Row-major `K × m` probabilities; each row sums to 1 and is floored so
    /// `log` stays finite.
    beta: Vec<f64>,
    /// Cached `ln β`, row-major `K × m`.
    log_beta: Vec<f64>,
    /// Cached transpose of `beta`, term-major `m × K`.
    beta_by_term: Vec<f64>,
}

impl CategoricalComponents {
    /// Initializes near the corpus-wide term distribution with multiplicative
    /// noise, the standard PLSA-style random start: components begin distinct
    /// but none starts absurdly far from the data.
    pub fn init<R: Rng + ?Sized>(
        k: usize,
        table: &AttributeData,
        rng: &mut R,
        beta_floor: f64,
    ) -> Self {
        let m = table.vocab_size();
        let mut global = vec![0.0f64; m];
        for &(t, c) in table.all_term_counts() {
            global[t as usize] += c;
        }
        let total: f64 = global.iter().sum();
        if total <= 0.0 {
            global.iter_mut().for_each(|g| *g = 1.0);
        }
        let mut beta = vec![0.0; k * m];
        for row in beta.chunks_mut(m) {
            for (b, &g) in row.iter_mut().zip(&global) {
                *b = (g.max(beta_floor)) * (0.5 + rng.gen::<f64>());
            }
            normalize_with_floor(row, beta_floor);
        }
        Self::from_normalized(k, m, beta)
    }

    /// Builds from already row-normalized probabilities, deriving the cached
    /// log and transposed tables.
    fn from_normalized(k: usize, m: usize, beta: Vec<f64>) -> Self {
        debug_assert_eq!(beta.len(), k * m);
        let log_beta: Vec<f64> = beta.iter().map(|&b| b.ln()).collect();
        let mut beta_by_term = vec![0.0; k * m];
        for kk in 0..k {
            for l in 0..m {
                beta_by_term[l * k + kk] = beta[kk * m + l];
            }
        }
        Self {
            k,
            m,
            beta,
            log_beta,
            beta_by_term,
        }
    }

    /// Builds from explicit rows (tests / resuming).
    ///
    /// # Panics
    /// Panics if `rows` is not `K` rows of equal length.
    pub fn from_rows(rows: &[Vec<f64>], beta_floor: f64) -> Self {
        let k = rows.len();
        assert!(k > 0);
        let m = rows[0].len();
        let mut beta = Vec::with_capacity(k * m);
        for r in rows {
            assert_eq!(r.len(), m, "ragged component rows");
            beta.extend_from_slice(r);
        }
        for row in beta.chunks_mut(m) {
            normalize_with_floor(row, beta_floor);
        }
        Self::from_normalized(k, m, beta)
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.k
    }

    /// Vocabulary size.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.m
    }

    /// `β_{k,l}`.
    #[inline]
    pub fn prob(&self, k: usize, term: u32) -> f64 {
        self.beta[k * self.m + term as usize]
    }

    /// `ln β_{k,l}` (cached table lookup, no `ln` at call time).
    #[inline]
    pub fn log_prob(&self, k: usize, term: u32) -> f64 {
        self.log_beta[k * self.m + term as usize]
    }

    /// All `K` probabilities of `term`, contiguous (`β_{1,l} … β_{K,l}`) —
    /// the cache-friendly access pattern of the EM responsibility loop.
    #[inline]
    pub fn probs_for_term(&self, term: u32) -> &[f64] {
        let base = term as usize * self.k;
        &self.beta_by_term[base..base + self.k]
    }

    /// The `n` highest-probability terms of component `k`, descending —
    /// used by examples to label discovered clusters.
    pub fn top_terms(&self, k: usize, n: usize) -> Vec<(u32, f64)> {
        let row = &self.beta[k * self.m..(k + 1) * self.m];
        let mut idx: Vec<u32> = (0..self.m as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            row[b as usize]
                .partial_cmp(&row[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(n);
        idx.into_iter().map(|t| (t, row[t as usize])).collect()
    }
}

/// Gaussian components: one `(μ_k, σ_k²)` per cluster, Eq. 4.
///
/// Construction precomputes the per-component log-pdf constants so
/// [`Self::log_pdf`] is two flops and two table reads — no `ln` per
/// observation on the EM hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianComponents {
    mu: Vec<f64>,
    var: Vec<f64>,
    /// Cached `−½·ln(2π σ_k²)`.
    log_norm: Vec<f64>,
    /// Cached `1 / (2 σ_k²)`.
    inv_two_var: Vec<f64>,
}

impl GaussianComponents {
    /// Initializes means at the quantile midpoints of the pooled
    /// observations (plus a small seed-dependent jitter for multi-start
    /// diversity) and all variances at the global variance.
    ///
    /// Quantile seeding matters beyond convergence speed: when several
    /// numerical attributes are clustered jointly (the weather networks),
    /// each attribute gets its *own* component set and only the shared `Θ`
    /// ties them together. Random-draw means can lock the two attributes
    /// into different cluster permutations — a local optimum in which the
    /// cross-type links look inconsistent and strength learning drives
    /// their `γ` to zero. Ordering both attributes' components by value
    /// starts them aligned whenever cluster means are ordered consistently.
    pub fn init<R: Rng + ?Sized>(
        k: usize,
        table: &AttributeData,
        rng: &mut R,
        variance_floor: f64,
    ) -> Self {
        let mut all = table.all_values().to_vec();
        let (g_mean, g_std) = if all.is_empty() {
            (0.0, 1.0)
        } else {
            let mean = all.iter().sum::<f64>() / all.len() as f64;
            let var =
                all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / all.len().max(1) as f64;
            (mean, var.max(variance_floor).sqrt())
        };
        all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        // Percentile-clipped value range: robust to stray observations while
        // spanning all mixture modes.
        let (lo, hi) = if all.is_empty() {
            (g_mean - 1.0, g_mean + 1.0)
        } else {
            let p = |q: f64| all[((q * all.len() as f64) as usize).min(all.len() - 1)];
            (p(0.01), p(0.99))
        };
        let span = (hi - lo).max(1e-9);
        let mut mu: Vec<f64> = (0..k)
            .map(|i| {
                let jitter = 0.1 * g_std * genclus_stats::rng::standard_normal(rng);
                // Midpoint of the i-th of k equal-width value bands: means
                // are ordered by value, so co-clustered attributes with
                // consistently ordered cluster means start aligned.
                lo + span * (i as f64 + 0.5) / k as f64 + jitter
            })
            .collect();
        // Half the random starts shuffle the component order. Ordered starts
        // align attributes whose cluster means share an ordering; shuffled
        // starts explore other mean *combinations* (needed when clusters are
        // XOR-like in the attribute space, e.g. weather Setting 2), and
        // multi-start selection keeps whichever basin scores best.
        if rng.gen::<f64>() < 0.5 {
            use rand::seq::SliceRandom;
            mu.shuffle(rng);
        }
        Self::from_moments(mu, vec![g_std * g_std; k])
    }

    /// Builds from explicit parameters (tests / resuming).
    pub fn from_params(mu: Vec<f64>, var: Vec<f64>, variance_floor: f64) -> Self {
        assert_eq!(mu.len(), var.len());
        let var = var.into_iter().map(|v| v.max(variance_floor)).collect();
        Self::from_moments(mu, var)
    }

    /// Builds from positive variances, deriving the cached log-pdf
    /// constants.
    fn from_moments(mu: Vec<f64>, var: Vec<f64>) -> Self {
        debug_assert_eq!(mu.len(), var.len());
        debug_assert!(var.iter().all(|&v| v > 0.0));
        let log_norm = var
            .iter()
            .map(|&v| -0.5 * (2.0 * std::f64::consts::PI * v).ln())
            .collect();
        let inv_two_var = var.iter().map(|&v| 0.5 / v).collect();
        Self {
            mu,
            var,
            log_norm,
            inv_two_var,
        }
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.mu.len()
    }

    /// Mean of component `k`.
    #[inline]
    pub fn mean(&self, k: usize) -> f64 {
        self.mu[k]
    }

    /// Variance of component `k`.
    #[inline]
    pub fn variance(&self, k: usize) -> f64 {
        self.var[k]
    }

    /// `ln N(x; μ_k, σ_k²)` from the cached constants — allocation- and
    /// `ln`-free.
    #[inline]
    pub fn log_pdf(&self, k: usize, x: f64) -> f64 {
        let d = x - self.mu[k];
        self.log_norm[k] - d * d * self.inv_two_var[k]
    }
}

/// Components of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterComponents {
    /// Text attribute.
    Categorical(CategoricalComponents),
    /// Numerical attribute.
    Gaussian(GaussianComponents),
}

impl ClusterComponents {
    /// Random initialization matched to the attribute's kind.
    pub fn init<R: Rng + ?Sized>(
        k: usize,
        table: &AttributeData,
        rng: &mut R,
        beta_floor: f64,
        variance_floor: f64,
    ) -> Self {
        match table {
            AttributeData::Categorical { .. } => {
                Self::Categorical(CategoricalComponents::init(k, table, rng, beta_floor))
            }
            AttributeData::Numerical { .. } => {
                Self::Gaussian(GaussianComponents::init(k, table, rng, variance_floor))
            }
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        match self {
            Self::Categorical(c) => c.n_clusters(),
            Self::Gaussian(g) => g.n_clusters(),
        }
    }

    /// Serializes the component parameters (`β` rows or `μ/σ²` pairs) in
    /// the [`genclus_stats::bytesio`] convention. Only the primary
    /// parameters are written; the cached log/transpose tables are
    /// re-derived on load, bit-exactly (they are pure functions of the
    /// parameters), so write → read → write is byte-identical.
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        use genclus_stats::bytesio::{put_f64_slice, put_u64};
        match self {
            Self::Categorical(c) => {
                put_u64(out, 0);
                put_u64(out, c.k as u64);
                put_u64(out, c.m as u64);
                put_f64_slice(out, &c.beta);
            }
            Self::Gaussian(g) => {
                put_u64(out, 1);
                put_f64_slice(out, &g.mu);
                put_f64_slice(out, &g.var);
            }
        }
    }

    /// Inverse of [`Self::to_bytes`]; `None` on truncation, an unknown
    /// kind tag, shape mismatches, or parameters outside their domain
    /// (non-finite `β`/`μ`, non-positive `σ²`).
    pub fn from_bytes(r: &mut genclus_stats::bytesio::ByteReader<'_>) -> Option<Self> {
        match r.u64()? {
            0 => {
                let k: usize = r.u64()?.try_into().ok()?;
                let m: usize = r.u64()?.try_into().ok()?;
                let beta = r.f64_slice()?;
                if k == 0 || m == 0 || beta.len() != k.checked_mul(m)? {
                    return None;
                }
                if beta.iter().any(|&b| !(b > 0.0 && b.is_finite())) {
                    return None;
                }
                Some(Self::Categorical(CategoricalComponents::from_normalized(
                    k, m, beta,
                )))
            }
            1 => {
                let mu = r.f64_slice()?;
                let var = r.f64_slice()?;
                if mu.is_empty() || mu.len() != var.len() {
                    return None;
                }
                if mu.iter().any(|x| !x.is_finite())
                    || var.iter().any(|&v| !(v > 0.0 && v.is_finite()))
                {
                    return None;
                }
                Some(Self::Gaussian(GaussianComponents::from_moments(mu, var)))
            }
            _ => None,
        }
    }
}

/// Responsibility-weighted sufficient statistics for one attribute's M-step.
#[derive(Debug, Clone)]
pub enum ComponentAccumulator {
    /// `counts[k·m + l] = Σ_v c_{v,l} p(z_{v,l} = k)` (Eq. 10's β update).
    Categorical {
        /// Clusters.
        k: usize,
        /// Vocabulary size.
        m: usize,
        /// Flat `K × m` responsibility-weighted counts.
        counts: Vec<f64>,
    },
    /// Weighted moments for Eq. 11's μ/σ² updates.
    Gaussian {
        /// `Σ p(z = k)` per cluster.
        sum_w: Vec<f64>,
        /// `Σ x · p(z = k)` per cluster.
        sum_wx: Vec<f64>,
        /// `Σ x² · p(z = k)` per cluster.
        sum_wx2: Vec<f64>,
    },
}

impl ComponentAccumulator {
    /// A zeroed accumulator shaped like `components`. Its buffers share no
    /// cache line with other allocations: the EM step's workers update the
    /// accumulators of different row chunks at once.
    pub fn zeros_like(components: &ClusterComponents) -> Self {
        match components {
            ClusterComponents::Categorical(c) => Self::Categorical {
                k: c.n_clusters(),
                m: c.vocab_size(),
                counts: padded_zeros(c.n_clusters() * c.vocab_size()),
            },
            ClusterComponents::Gaussian(g) => Self::Gaussian {
                sum_w: padded_zeros(g.n_clusters()),
                sum_wx: padded_zeros(g.n_clusters()),
                sum_wx2: padded_zeros(g.n_clusters()),
            },
        }
    }

    /// Whether this accumulator's kind and dimensions fit `components`, i.e.
    /// whether a reset — rather than a rebuild — suffices to reuse it.
    pub fn shape_matches(&self, components: &ClusterComponents) -> bool {
        match (self, components) {
            (Self::Categorical { k, m, .. }, ClusterComponents::Categorical(c)) => {
                *k == c.n_clusters() && *m == c.vocab_size()
            }
            (Self::Gaussian { sum_w, .. }, ClusterComponents::Gaussian(g)) => {
                sum_w.len() == g.n_clusters()
            }
            _ => false,
        }
    }

    /// Zeroes the statistics so the buffer can be reused by the next EM step
    /// without reallocating.
    pub fn reset(&mut self) {
        match self {
            Self::Categorical { counts, .. } => counts.iter_mut().for_each(|c| *c = 0.0),
            Self::Gaussian {
                sum_w,
                sum_wx,
                sum_wx2,
            } => {
                sum_w.iter_mut().for_each(|x| *x = 0.0);
                sum_wx.iter_mut().for_each(|x| *x = 0.0);
                sum_wx2.iter_mut().for_each(|x| *x = 0.0);
            }
        }
    }

    /// Adds `weight` responsibility mass for `term` in cluster `k`.
    #[inline]
    pub fn add_term(&mut self, k: usize, term: u32, weight: f64) {
        match self {
            Self::Categorical { m, counts, .. } => counts[k * *m + term as usize] += weight,
            Self::Gaussian { .. } => unreachable!("term added to Gaussian accumulator"),
        }
    }

    /// Adds responsibility mass `weight` for value `x` in cluster `k`.
    #[inline]
    pub fn add_value(&mut self, k: usize, x: f64, weight: f64) {
        match self {
            Self::Gaussian {
                sum_w,
                sum_wx,
                sum_wx2,
            } => {
                sum_w[k] += weight;
                sum_wx[k] += weight * x;
                sum_wx2[k] += weight * x * x;
            }
            Self::Categorical { .. } => unreachable!("value added to categorical accumulator"),
        }
    }

    /// Merges another accumulator (from a worker thread) into this one.
    pub fn merge(&mut self, other: &Self) {
        match (self, other) {
            (Self::Categorical { counts, .. }, Self::Categorical { counts: oc, .. }) => {
                for (a, b) in counts.iter_mut().zip(oc) {
                    *a += b;
                }
            }
            (
                Self::Gaussian {
                    sum_w,
                    sum_wx,
                    sum_wx2,
                },
                Self::Gaussian {
                    sum_w: ow,
                    sum_wx: owx,
                    sum_wx2: owx2,
                },
            ) => {
                for (a, b) in sum_w.iter_mut().zip(ow) {
                    *a += b;
                }
                for (a, b) in sum_wx.iter_mut().zip(owx) {
                    *a += b;
                }
                for (a, b) in sum_wx2.iter_mut().zip(owx2) {
                    *a += b;
                }
            }
            _ => unreachable!("mismatched accumulator kinds"),
        }
    }

    /// Finalizes the M-step: turns sufficient statistics into new components.
    ///
    /// Clusters with (numerically) zero responsibility mass keep their
    /// previous parameters — re-estimating them from nothing would produce
    /// NaNs and destroy the component for good.
    pub fn finalize(
        &self,
        previous: &ClusterComponents,
        beta_floor: f64,
        variance_floor: f64,
    ) -> ClusterComponents {
        match (self, previous) {
            (Self::Categorical { k, m, counts }, ClusterComponents::Categorical(prev)) => {
                let mut beta = counts.clone();
                for (kk, row) in beta.chunks_mut(*m).enumerate() {
                    let mass: f64 = row.iter().sum();
                    if mass <= 0.0 {
                        for (b, l) in row.iter_mut().zip(0..*m as u32) {
                            *b = prev.prob(kk, l);
                        }
                    } else {
                        normalize_with_floor(row, beta_floor);
                    }
                }
                ClusterComponents::Categorical(CategoricalComponents::from_normalized(*k, *m, beta))
            }
            (
                Self::Gaussian {
                    sum_w,
                    sum_wx,
                    sum_wx2,
                },
                ClusterComponents::Gaussian(prev),
            ) => {
                let kn = sum_w.len();
                let mut mu = Vec::with_capacity(kn);
                let mut var = Vec::with_capacity(kn);
                for k in 0..kn {
                    if sum_w[k] <= 1e-12 {
                        mu.push(prev.mean(k));
                        var.push(prev.variance(k));
                    } else {
                        let m = sum_wx[k] / sum_w[k];
                        let v = (sum_wx2[k] / sum_w[k] - m * m).max(variance_floor);
                        mu.push(m);
                        var.push(v);
                    }
                }
                ClusterComponents::Gaussian(GaussianComponents::from_moments(mu, var))
            }
            _ => unreachable!("mismatched accumulator/component kinds"),
        }
    }
}

/// Normalizes a slice to sum 1 with a positive floor.
fn normalize_with_floor(row: &mut [f64], floor: f64) {
    let sum: f64 = row.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        let u = 1.0 / row.len() as f64;
        row.iter_mut().for_each(|x| *x = u);
        return;
    }
    for x in row.iter_mut() {
        *x = (*x / sum).max(floor);
    }
    let sum: f64 = row.iter().sum();
    row.iter_mut().for_each(|x| *x /= sum);
}

#[cfg(test)]
mod tests {
    use super::*;
    use genclus_stats::seeded_rng;

    fn text_table() -> AttributeData {
        AttributeData::categorical_from_rows(
            4,
            &[
                vec![(0, 5.0), (1, 1.0)],
                vec![(2, 3.0)],
                vec![(3, 2.0), (0, 1.0)],
            ],
        )
    }

    fn num_table() -> AttributeData {
        AttributeData::numerical_from_rows(&[vec![1.0, 1.2], vec![], vec![5.0]])
    }

    #[test]
    fn categorical_init_rows_are_stochastic() {
        let mut rng = seeded_rng(1);
        let c = CategoricalComponents::init(3, &text_table(), &mut rng, 1e-9);
        assert_eq!(c.n_clusters(), 3);
        assert_eq!(c.vocab_size(), 4);
        for k in 0..3 {
            let sum: f64 = (0..4).map(|l| c.prob(k, l)).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for l in 0..4u32 {
                assert!(c.prob(k, l) > 0.0);
            }
        }
    }

    #[test]
    fn categorical_init_differs_across_components() {
        let mut rng = seeded_rng(2);
        let c = CategoricalComponents::init(2, &text_table(), &mut rng, 1e-9);
        let diff: f64 = (0..4u32).map(|l| (c.prob(0, l) - c.prob(1, l)).abs()).sum();
        assert!(diff > 1e-4, "components must start distinct, diff = {diff}");
    }

    #[test]
    fn gaussian_init_uses_data_scale() {
        let mut rng = seeded_rng(3);
        let g = GaussianComponents::init(2, &num_table(), &mut rng, 1e-6);
        for k in 0..2 {
            assert!(g.mean(k) >= 1.0 && g.mean(k) <= 5.0);
            assert!(g.variance(k) > 0.0);
        }
    }

    #[test]
    fn gaussian_log_pdf_matches_closed_form() {
        let g = GaussianComponents::from_params(vec![0.0], vec![1.0], 1e-6);
        // N(0; 0, 1) = 1/√(2π)
        let expected = -(0.5 * (2.0 * std::f64::consts::PI).ln());
        assert!((g.log_pdf(0, 0.0) - expected).abs() < 1e-12);
        // Symmetry and monotone decay.
        assert!((g.log_pdf(0, 1.0) - g.log_pdf(0, -1.0)).abs() < 1e-12);
        assert!(g.log_pdf(0, 0.5) > g.log_pdf(0, 2.0));
    }

    #[test]
    fn accumulator_roundtrip_categorical() {
        let prev = ClusterComponents::Categorical(CategoricalComponents::from_rows(
            &[vec![0.25; 4], vec![0.25; 4]],
            1e-9,
        ));
        let mut acc = ComponentAccumulator::zeros_like(&prev);
        acc.add_term(0, 1, 3.0);
        acc.add_term(0, 2, 1.0);
        acc.add_term(1, 3, 2.0);
        let new = acc.finalize(&prev, 1e-9, 1e-6);
        if let ClusterComponents::Categorical(c) = new {
            assert!((c.prob(0, 1) - 0.75).abs() < 1e-6);
            assert!((c.prob(0, 2) - 0.25).abs() < 1e-6);
            assert!((c.prob(1, 3) - 1.0).abs() < 1e-6);
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn accumulator_roundtrip_gaussian() {
        let prev = ClusterComponents::Gaussian(GaussianComponents::from_params(
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            1e-6,
        ));
        let mut acc = ComponentAccumulator::zeros_like(&prev);
        // Cluster 0 sees {1, 3} with unit weight: mean 2, var 1.
        acc.add_value(0, 1.0, 1.0);
        acc.add_value(0, 3.0, 1.0);
        let new = acc.finalize(&prev, 1e-9, 1e-6);
        if let ClusterComponents::Gaussian(g) = new {
            assert!((g.mean(0) - 2.0).abs() < 1e-12);
            assert!((g.variance(0) - 1.0).abs() < 1e-12);
            // Cluster 1 got no mass: keeps previous parameters.
            assert_eq!(g.mean(1), 0.0);
            assert_eq!(g.variance(1), 1.0);
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn merge_combines_worker_partials() {
        let prev = ClusterComponents::Gaussian(GaussianComponents::from_params(
            vec![0.0],
            vec![1.0],
            1e-6,
        ));
        let mut a = ComponentAccumulator::zeros_like(&prev);
        let mut b = ComponentAccumulator::zeros_like(&prev);
        a.add_value(0, 1.0, 1.0);
        b.add_value(0, 3.0, 1.0);
        a.merge(&b);
        let new = a.finalize(&prev, 1e-9, 1e-6);
        if let ClusterComponents::Gaussian(g) = new {
            assert!((g.mean(0) - 2.0).abs() < 1e-12);
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn variance_floor_is_applied() {
        let prev = ClusterComponents::Gaussian(GaussianComponents::from_params(
            vec![0.0],
            vec![1.0],
            1e-6,
        ));
        let mut acc = ComponentAccumulator::zeros_like(&prev);
        acc.add_value(0, 2.0, 1.0);
        acc.add_value(0, 2.0, 1.0); // zero empirical variance
        let new = acc.finalize(&prev, 1e-9, 1e-4);
        if let ClusterComponents::Gaussian(g) = new {
            assert_eq!(g.variance(0), 1e-4);
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn top_terms_sorted_descending() {
        let c = CategoricalComponents::from_rows(&[vec![0.1, 0.6, 0.05, 0.25]], 1e-9);
        let top = c.top_terms(0, 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 3);
        assert!(top[0].1 > top[1].1);
    }
}

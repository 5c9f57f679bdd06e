//! Comparison baselines from the GenClus evaluation (§5.2.1).
//!
//! None of these methods models per-relation strengths — every link type is
//! treated as equally important, exactly as the paper configures them:
//!
//! * [`plsa`] — plain PLSA (Hofmann 1999), the shared text-mixture core of
//!   the two network-regularized topic models;
//! * [`netplsa`] — NetPLSA (Mei et al., WWW 2008): PLSA whose topic
//!   memberships are smoothed over the (homogenized) network after each EM
//!   iteration;
//! * [`itopicmodel`] — iTopicModel (Sun et al., ICDM 2009): PLSA whose
//!   membership update mixes neighbor memberships into the multinomial
//!   counts (a Markov-random-field prior on the document network);
//! * [`kmeans`](mod@kmeans) — Lloyd's k-means with k-means++ seeding, the attribute-only
//!   baseline of Figs. 7–8;
//! * [`interpolate`] — the neighbor-mean interpolation the paper applies so
//!   that k-means and spectral clustering can run on sensors with
//!   incomplete attributes;
//! * [`spectral`] — the "SpectralCombine" baseline: modularity matrix plus
//!   standardized attribute Gram matrix with equal weights, top-`K`
//!   eigenvectors (via [`eigen`] orthogonal iteration), then k-means in the
//!   embedding (Shiga et al., KDD 2007 framework with the Euclidean
//!   attribute term of Zha et al.).

pub mod eigen;
pub mod interpolate;
pub mod itopicmodel;
pub mod kmeans;
pub mod netplsa;
pub mod plsa;
pub mod spectral;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::interpolate::interpolate_features;
    pub use crate::itopicmodel::{fit_itopicmodel, ITopicConfig};
    pub use crate::kmeans::{kmeans, KMeansConfig, KMeansResult};
    pub use crate::netplsa::{fit_netplsa, NetPlsaConfig};
    pub use crate::plsa::{fit_plsa, PlsaConfig, PlsaResult};
    pub use crate::spectral::{spectral_combine, SpectralConfig, SpectralResult};
}

pub use prelude::*;

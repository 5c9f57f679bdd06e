//! **GenClus** — relation strength-aware clustering of heterogeneous
//! information networks with incomplete attributes.
//!
//! This crate implements the model and algorithm of
//!
//! > Yizhou Sun, Charu C. Aggarwal, Jiawei Han.
//! > *Relation Strength-Aware Clustering of Heterogeneous Information
//! > Networks with Incomplete Attributes.* PVLDB 5(5), 2012.
//!
//! Given a heterogeneous network (`genclus-hin`), a user-specified attribute
//! subset defining the clustering purpose, and a cluster count `K`, GenClus
//! learns simultaneously
//!
//! * a soft clustering `Θ` of *every* object — including objects with
//!   partial or no attribute observations, whose memberships are inferred
//!   through their links — and
//! * a non-negative strength `γ(r)` for every link type `r`, quantifying how
//!   much that relation should propagate cluster membership.
//!
//! The two are optimized alternately ([`algorithm::GenClus`]): an EM pass
//! ([`em::EmEngine`]) updates `Θ` and the attribute components `β` for fixed
//! `γ`, then a projected Newton pass ([`strength::StrengthLearner`])
//! re-learns `γ` from the pseudo-log-likelihood of the structural model,
//! whose per-object conditionals are Dirichlet distributions.
//!
//! # Quickstart
//!
//! ```
//! use genclus_core::prelude::*;
//! use genclus_hin::prelude::*;
//!
//! // A tiny network: two "sensor" clusters joined by nearest-neighbor links.
//! let mut schema = Schema::new();
//! let sensor = schema.add_object_type("sensor");
//! let nn = schema.add_relation("nn", sensor, sensor);
//! let reading = schema.add_numerical_attribute("reading");
//!
//! let mut b = HinBuilder::new(schema);
//! let vs: Vec<_> = (0..6).map(|i| b.add_object(sensor, format!("s{i}"))).collect();
//! for group in [[0usize, 1, 2], [3, 4, 5]] {
//!     for &i in &group {
//!         for &j in &group {
//!             if i != j { b.add_link(vs[i], vs[j], nn, 1.0).unwrap(); }
//!         }
//!     }
//! }
//! b.add_numeric(vs[0], reading, -5.0).unwrap(); // only two sensors report —
//! b.add_numeric(vs[3], reading, 5.0).unwrap();  // attributes are incomplete.
//! let network = b.build().unwrap();
//!
//! let config = GenClusConfig::new(2, vec![reading]).with_seed(7);
//! let fit = GenClus::new(config).unwrap().fit(&network).unwrap();
//! let labels = fit.model.hard_labels();
//! assert_eq!(labels[1], labels[0]); // un-instrumented sensors follow links
//! assert_ne!(labels[0], labels[3]);
//! ```

pub mod algorithm;
pub mod attr_model;
pub mod config;
pub mod em;
pub mod em_reference;
pub mod error;
pub mod feature;
pub mod history;
pub mod init;
pub mod model;
pub mod objective;
pub mod pool;
pub mod prediction;
pub mod strength;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::algorithm::{GenClus, GenClusFit, IterationView};
    pub use crate::attr_model::{CategoricalComponents, ClusterComponents, GaussianComponents};
    pub use crate::config::{GenClusConfig, InitStrategy};
    pub use crate::error::GenClusError;
    pub use crate::feature::FeatureKind;
    pub use crate::history::RunHistory;
    pub use crate::model::GenClusModel;
    pub use crate::prediction::{rank_candidates, rank_row, top_k, Similarity};
    pub use crate::strength::{StrengthLearner, StrengthOutcome};
}

pub use prelude::*;

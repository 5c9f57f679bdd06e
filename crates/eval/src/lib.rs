//! Evaluation metrics for the GenClus reproduction (§5.2 of the paper).
//!
//! * [`labels`] — partial ground-truth label sets (the DBLP four-area data
//!   labels only 20 conferences, 100 papers and 4 236 authors; evaluation is
//!   restricted to labeled objects);
//! * [`nmi`](mod@nmi) — Normalized Mutual Information (Strehl–Ghosh, √-normalized),
//!   the clustering accuracy measure of Figs. 5–8 and 10;
//! * [`map`] — Mean Average Precision for the link-prediction accuracy test
//!   of Tables 2–4.

pub mod labels;
pub mod map;
pub mod nmi;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::labels::LabelSet;
    pub use crate::map::{average_precision, link_prediction_map, mean_average_precision};
    pub use crate::nmi::{nmi, nmi_against};
}

pub use prelude::*;

//! # featurize — context featurization for online tuning
//!
//! OnlineTune's context feature (§5.1) captures the uncontrollable environmental factors
//! that change the configuration–performance relationship:
//!
//! * the **workload**: query arrival rate (one dimension) plus the query-composition
//!   embedding (the mean of per-query dense encodings), and
//! * the **underlying data**: three optimizer-derived statistics (estimated rows examined,
//!   predicate filter fraction, index usage).
//!
//! The [`ContextFeaturizer`] assembles these into a single context vector `c_t`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;

pub use context::{ContextFeaturizer, ContextFeaturizerConfig};

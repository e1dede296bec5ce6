//! Datasets and the PAS data pipelines.
//!
//! This crate implements §3.1–§3.3 of the paper:
//!
//! - [`schema`] — record types: raw prompts, (prompt, complement) pairs,
//!   datasets with JSON round-trips.
//! - [`corpus`] — the synthetic substitute for LMSYS-Chat-1M / WildChat: a
//!   seeded generator that emits realistic prompt text with latent
//!   [`pas_llm::PromptMeta`], near-duplicates, and junk, and registers
//!   everything in a [`pas_llm::World`].
//! - [`features`] — hashed text featurization shared by every trainable
//!   classifier in the workspace.
//! - [`select`] — the three-step data-selection pipeline (Figure 3a):
//!   HNSW deduplication → quality filtering → category classification with
//!   a really-trained classifier.
//! - [`golden`] — the curated golden few-shot examples per category
//!   (`D_golden` of Algorithm 1).
//! - [`genpipe`] — Algorithm 1 itself: few-shot generation, critic
//!   selection, and regeneration until correct (Figure 3b).
//! - [`stats`] — dataset distribution reporting (Figure 6).

pub mod corpus;
pub mod features;
pub mod genpipe;
pub mod golden;
pub mod schema;
pub mod select;
pub mod stats;

pub use corpus::{Corpus, CorpusConfig};
pub use features::{prompt_features, sparse_features, FEATURE_DIM};
pub use genpipe::{GenConfig, GenError, GenReport, Generator};
pub use golden::golden_for;
pub use schema::{PairDataset, PairRecord, PromptRecord, Source};
pub use select::{
    DedupBackend, SelectedPrompt, SelectionConfig, SelectionPipeline, SelectionReport,
};
pub use stats::DatasetStats;

//! Black-box Prompt Optimization (BPO) — the previous state of the art.
//!
//! BPO fine-tunes a rewriter on ~14k pairs distilled from *human preference
//! data* (Cheng et al., 2023). Two things distinguish it from PAS and drive
//! the comparison in Tables 1–2:
//!
//! 1. **Label noise.** Preference-derived supervision is noisier than
//!    Algorithm 1's critic-curated pairs; we train the same multi-label
//!    aspect model as PAS but with a calibrated fraction of corrupted
//!    target bits.
//! 2. **Rewriting, not complementing.** BPO replaces the user prompt. Most
//!    rewrites keep the request intact, but with a small probability the
//!    rewrite buries the original question behind its additions — intent
//!    drift, the instability that makes BPO *underperform the baseline* on
//!    some models in the paper (GPT-3.5, Qwen2-72B).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pas_core::PromptOptimizer;
use pas_data::features::{prompt_features, sparse_features, FEATURE_DIM};
use pas_data::PairDataset;
use pas_llm::teacher::realize_complement_in;
use pas_llm::world::{detect_aspects, Aspect, AspectSet};
use pas_nn::{MultiLabelClassifier, TrainParams};
use pas_text::top_keywords;

/// BPO training configuration.
#[derive(Debug, Clone)]
pub struct BpoConfig {
    /// Fraction of target bits corrupted by preference-label noise.
    pub label_noise: f32,
    /// Probability that a rewrite drifts from the original intent.
    pub drift_rate: f32,
    /// Aspect threshold at rewrite time.
    pub aspect_threshold: f32,
    /// Maximum requested aspects per rewrite.
    pub max_aspects: usize,
    /// Trainer parameters.
    pub trainer: TrainParams,
    /// Seed.
    pub seed: u64,
}

impl Default for BpoConfig {
    fn default() -> Self {
        BpoConfig {
            label_noise: 0.32,
            drift_rate: 0.22,
            aspect_threshold: 0.5,
            max_aspects: 3,
            trainer: TrainParams { epochs: 15, ..TrainParams::default() },
            seed: 0xb90,
        }
    }
}

/// The trained BPO rewriter.
#[derive(Debug, Clone)]
pub struct Bpo {
    aspect_model: MultiLabelClassifier,
    config: BpoConfig,
    trained_pairs: usize,
}

impl Bpo {
    /// Trains BPO on a pair dataset, corrupting targets with preference
    /// noise. In the paper BPO consumes ~14k human-preference pairs; pass a
    /// proportionally larger dataset to mirror that consumption.
    pub fn train(config: &BpoConfig, dataset: &PairDataset) -> Bpo {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let features: Vec<Vec<f32>> =
            dataset.pairs.iter().map(|p| prompt_features(&p.prompt)).collect();
        let targets: Vec<Vec<f32>> = dataset
            .pairs
            .iter()
            .map(|p| {
                let detected = detect_aspects(&p.complement);
                Aspect::ALL
                    .iter()
                    .map(|&a| {
                        let bit = detected.contains(a);
                        // Preference-label noise: bits flip independently.
                        let flipped = rng.random::<f32>() < config.label_noise;
                        if bit != flipped {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut aspect_model =
            MultiLabelClassifier::new(FEATURE_DIM, Aspect::ALL.len(), config.seed);
        aspect_model.train(&features, &targets, &config.trainer);
        Bpo { aspect_model, config: config.clone(), trained_pairs: dataset.len() }
    }

    /// The aspects the rewriter decides to add for `prompt`.
    pub fn predict_aspects(&self, prompt: &str) -> AspectSet {
        let probs = self.aspect_model.predict_probs(&sparse_features(prompt));
        let mut scored: Vec<(usize, f32)> = probs.into_iter().enumerate().collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut set = AspectSet::EMPTY;
        for &(i, p) in scored.iter().take(self.config.max_aspects) {
            if p >= self.config.aspect_threshold {
                set.insert(Aspect::from_index(i).expect("index in range"));
            }
        }
        if set.is_empty() {
            if let Some(&(i, _)) = scored.first() {
                set.insert(Aspect::from_index(i).expect("index in range"));
            }
        }
        set
    }

    /// Whether this particular prompt's rewrite drifts (deterministic).
    /// Longer, constraint-laden prompts are riskier to rewrite — exactly
    /// the "complex and challenging scenarios" where the paper observes
    /// BPO's instability.
    pub fn drifts(&self, prompt: &str) -> bool {
        let mut rng =
            StdRng::seed_from_u64(pas_text::fx_hash_str(prompt) ^ self.config.seed.rotate_left(5));
        let complexity = (prompt.split_whitespace().count() as f32 / 14.0).clamp(0.5, 2.2);
        rng.random::<f32>() < self.config.drift_rate * complexity
    }
}

impl PromptOptimizer for Bpo {
    fn name(&self) -> &str {
        "BPO"
    }

    /// Rewrites the prompt. A faithful rewrite keeps the original request
    /// up front; a drifted rewrite *replaces* it with a paraphrase that
    /// keeps only the topic keywords — the original constraints and framing
    /// are gone, so downstream models answer a subtly different question.
    fn optimize(&self, prompt: &str) -> String {
        let aspects = self.predict_aspects(prompt);
        let topic = top_keywords(prompt, 3).join(" ");
        let language = pas_text::lang::detect_language(prompt);
        let additions = realize_complement_in(language, &topic, aspects);
        if self.drifts(prompt) {
            match language {
                pas_text::lang::Language::Chinese => format!("请讨论 {topic}。{additions}"),
                _ => format!("Discuss {topic}. {additions}"),
            }
        } else {
            format!("{prompt} {additions}")
        }
    }

    fn requires_human_labels(&self) -> bool {
        true // distilled from human preference data
    }

    fn llm_agnostic(&self) -> bool {
        true
    }

    fn task_agnostic(&self) -> bool {
        true
    }

    fn training_pairs(&self) -> Option<usize> {
        Some(self.trained_pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_data::PairRecord;
    use pas_llm::teacher::realize_complement;
    use pas_llm::Category;

    fn dataset(n: usize) -> PairDataset {
        let mut ds = PairDataset::new();
        for i in 0..n {
            ds.pairs.push(PairRecord {
                prompt: format!("How do I tune query {i} against the orders table?"),
                complement: realize_complement(
                    "query orders table",
                    [Aspect::StepByStep, Aspect::Examples].into_iter().collect(),
                ),
                category: Category::Coding,
            });
        }
        ds
    }

    #[test]
    fn faithful_rewrites_keep_prompt_prefix() {
        let bpo = Bpo::train(&BpoConfig { drift_rate: 0.0, ..BpoConfig::default() }, &dataset(100));
        let prompt = "How do I tune query nine against the orders table?";
        let out = bpo.optimize(prompt);
        assert!(out.starts_with(prompt));
    }

    #[test]
    fn drifted_rewrites_lose_the_original_framing() {
        let bpo = Bpo::train(&BpoConfig { drift_rate: 3.0, ..BpoConfig::default() }, &dataset(50));
        let prompt = "How do I tune query three against the orders table?";
        let out = bpo.optimize(prompt);
        assert!(!out.starts_with(prompt), "drift must not keep the prompt prefix");
        assert!(!out.contains(prompt), "drift replaces the request entirely");
        // But the topic keywords survive the paraphrase.
        assert!(out.contains("query") || out.contains("orders"));
    }

    #[test]
    fn drift_rate_is_respected_in_aggregate() {
        let bpo = Bpo::train(&BpoConfig { drift_rate: 0.1, ..BpoConfig::default() }, &dataset(50));
        // 4-word prompts clamp complexity to 0.5, so the effective rate is
        // ~5%: expect roughly 25 drifted out of 500.
        let drifted =
            (0..500).filter(|i| bpo.drifts(&format!("prompt variant number {i}"))).count();
        assert!((8..=60).contains(&drifted), "drifted {drifted}/500");
    }

    #[test]
    fn label_noise_degrades_aspect_predictions() {
        let ds = dataset(300);
        let clean = Bpo::train(&BpoConfig { label_noise: 0.0, ..BpoConfig::default() }, &ds);
        let noisy = Bpo::train(&BpoConfig { label_noise: 0.4, ..BpoConfig::default() }, &ds);
        // On held-out prompts of the same family, the clean model should
        // recover the true aspects more often.
        let truth: AspectSet = [Aspect::StepByStep, Aspect::Examples].into_iter().collect();
        let score = |b: &Bpo| -> usize {
            (300..400)
                .map(|i| {
                    let p = format!("How do I tune query {i} against the orders table?");
                    b.predict_aspects(&p).intersection(truth).len()
                })
                .sum()
        };
        assert!(score(&clean) >= score(&noisy), "{} vs {}", score(&clean), score(&noisy));
    }

    #[test]
    fn flexibility_metadata_matches_table3() {
        let bpo = Bpo::train(&BpoConfig::default(), &dataset(10));
        assert!(bpo.requires_human_labels());
        assert!(bpo.llm_agnostic());
        assert!(bpo.task_agnostic());
        assert_eq!(bpo.training_pairs(), Some(10));
    }

    #[test]
    fn optimization_is_deterministic() {
        let bpo = Bpo::train(&BpoConfig::default(), &dataset(50));
        let p = "How do I tune query five against the orders table?";
        assert_eq!(bpo.optimize(p), bpo.optimize(p));
    }
}

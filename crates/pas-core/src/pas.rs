//! The PAS model: `M_p ← SFT(M; D_generated)`.
//!
//! Fine-tuning here is real gradient descent, not a stand-in: the generated
//! (prompt, complement) pairs become supervised examples for a multi-label
//! *aspect model* — given a prompt's features, which aspects should the
//! complementary prompt request? The targets are read off each pair's
//! complement **text** with [`detect_aspects`], so flawed pairs (the ones
//! Algorithm 1's selection phase would have removed) inject label noise and
//! measurably degrade the model — the mechanism behind the paper's Table 5
//! ablation.
//!
//! At augmentation time the model predicts aspects for the incoming prompt
//! and realizes them as a Figure 4-style complement. The base model's
//! capability bounds how faithfully the intended aspects make it into text
//! (`fidelity`), which is what separates a Qwen2-7B-based PAS from a
//! LLaMA-2-7B-based one (Table 2).

use std::io;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use pas_data::features::{prompt_features, sparse_features, FEATURE_DIM};
use pas_data::PairDataset;
use pas_fault::Journal;
use pas_llm::teacher::realize_complement_in;
use pas_llm::world::{detect_aspects, Aspect, AspectSet};
use pas_llm::{ChatModel, Critic, ModelProfile};
use pas_nn::{MultiLabelClassifier, SftCheckpoint, TrainParams};
use pas_text::top_keywords;

use crate::optimizer::PromptOptimizer;

/// PAS fine-tuning configuration.
#[derive(Debug, Clone)]
pub struct PasConfig {
    /// Profile name of the base model being fine-tuned (e.g.
    /// `"qwen2-7b-chat"`). Its capability bounds realization fidelity.
    pub base_model: String,
    /// Probability threshold above which an aspect is requested.
    pub aspect_threshold: f32,
    /// Maximum aspects per complement (Figure 4 keeps complements short).
    pub max_aspects: usize,
    /// Aspect-model training parameters.
    pub trainer: TrainParams,
    /// Seed for initialization and generation.
    pub seed: u64,
}

impl Default for PasConfig {
    fn default() -> Self {
        PasConfig {
            base_model: "qwen2-7b-chat".into(),
            aspect_threshold: 0.5,
            max_aspects: 3,
            trainer: TrainParams { epochs: 15, ..TrainParams::default() },
            seed: 0x9a5,
        }
    }
}

/// The fine-tuned plug-and-play prompt-complement model.
///
/// ```
/// use pas_core::{Pas, PasConfig, PromptOptimizer};
/// use pas_data::{PairDataset, PairRecord};
/// use pas_llm::Category;
///
/// let mut dataset = PairDataset::new();
/// dataset.pairs.push(PairRecord {
///     prompt: "How do I profile my parser?".into(),
///     complement: "please reason step by step".into(),
///     category: Category::Coding,
/// });
/// let (pas, _loss) = Pas::sft(&PasConfig::default(), &dataset);
/// let out = pas.optimize("How do I profile my tokenizer?");
/// assert!(out.starts_with("How do I profile my tokenizer?"));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pas {
    name: String,
    aspect_model: MultiLabelClassifier,
    /// Probability each intended aspect survives into the realized text.
    fidelity: f32,
    aspect_threshold: f32,
    max_aspects: usize,
    trained_pairs: usize,
    /// Flawed training complements the model will imitate — an SFT model
    /// reproduces its training distribution, so a contaminated dataset
    /// contaminates generations at the same rate (the Table 5 mechanism).
    contaminated_styles: Vec<String>,
    /// Fraction of the training set that was flawed.
    contamination_rate: f32,
    seed: u64,
}

impl Pas {
    /// Fine-tunes a PAS model on the generated dataset (§3.4's
    /// `M_p ← SFT(M; D_generated)`). Returns the trained model and the
    /// final training loss.
    pub fn sft(config: &PasConfig, dataset: &PairDataset) -> (Pas, f32) {
        Self::sft_with_journal(config, dataset, None).expect("journal-free SFT is infallible")
    }

    /// [`Pas::sft`] with per-epoch checkpointing to a fault journal.
    ///
    /// After every completed epoch the full trainer state (weights, Adam
    /// moments, shuffle-RNG state) is committed under `sft:{epoch}`, so a
    /// killed run can be resumed by reopening the same journal: training
    /// restarts after the highest committed epoch and the finished model is
    /// bit-identical to an uninterrupted run. With `journal = None` this is
    /// exactly [`Pas::sft`].
    pub fn sft_with_journal(
        config: &PasConfig,
        dataset: &PairDataset,
        journal: Option<&Journal>,
    ) -> io::Result<(Pas, f32)> {
        let base = ModelProfile::named(&config.base_model)
            .unwrap_or_else(|| panic!("unknown base model '{}'", config.base_model));
        let features: Vec<Vec<f32>> =
            dataset.pairs.iter().map(|p| prompt_features(&p.prompt)).collect();
        let targets: Vec<Vec<f32>> = dataset
            .pairs
            .iter()
            .map(|p| {
                let detected = detect_aspects(&p.complement);
                Aspect::ALL.iter().map(|&a| if detected.contains(a) { 1.0 } else { 0.0 }).collect()
            })
            .collect();
        let mut aspect_model =
            MultiLabelClassifier::new(FEATURE_DIM, Aspect::ALL.len(), config.seed);
        // Resume from the highest epoch the journal has a checkpoint for.
        let resume: Option<SftCheckpoint> = match journal.and_then(|j| {
            (0..=config.trainer.epochs).rev().find_map(|e| j.get(&format!("sft:{e}")))
        }) {
            None => None,
            Some(payload) => Some(serde_json::from_str(&payload).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("corrupt SFT checkpoint: {e}"))
            })?),
        };
        let mut io_err: Option<io::Error> = None;
        let loss = match journal {
            None => aspect_model.train(&features, &targets, &config.trainer),
            Some(j) => {
                let mut commit = |cp: &SftCheckpoint| {
                    if io_err.is_some() {
                        return; // already failing; don't mask the first error
                    }
                    let payload = serde_json::to_string(cp).expect("checkpoint serializes");
                    if let Err(e) = j.commit(&format!("sft:{}", cp.epochs_done), &payload) {
                        io_err = Some(e);
                    }
                };
                aspect_model.train_resumable(
                    &features,
                    &targets,
                    &config.trainer,
                    resume,
                    Some(&mut commit),
                )
            }
        };
        if let Some(e) = io_err {
            return Err(e);
        }
        let fidelity = (0.33 + 0.75 * base.capability).min(0.98);
        // An SFT model imitates its data: measure, with the same text rules
        // the pipeline critic applies, how much of the training set is
        // flawed, and keep those complements as styles to reproduce.
        let critic = Critic::default();
        let contaminated_styles: Vec<String> = dataset
            .pairs
            .iter()
            .filter(|p| !critic.is_correct_pair(&p.prompt, &p.complement))
            .map(|p| p.complement.clone())
            .collect();
        let contamination_rate = if dataset.is_empty() {
            0.0
        } else {
            contaminated_styles.len() as f32 / dataset.len() as f32
        };
        let pas = Pas {
            name: format!("PAS ({})", base.name),
            aspect_model,
            fidelity,
            aspect_threshold: config.aspect_threshold,
            max_aspects: config.max_aspects,
            trained_pairs: dataset.len(),
            contaminated_styles,
            contamination_rate,
            seed: config.seed,
        };
        Ok((pas, loss))
    }

    /// Aspects the model *intends* to request for `prompt` (before base-
    /// model realization noise): thresholded probabilities, top-k capped,
    /// falling back to the single most likely aspect.
    pub fn predict_aspects(&self, prompt: &str) -> AspectSet {
        let probs = self.aspect_model.predict_probs(&sparse_features(prompt));
        let mut scored: Vec<(usize, f32)> = probs.into_iter().enumerate().collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut set = AspectSet::EMPTY;
        for &(i, p) in scored.iter().take(self.max_aspects) {
            if p >= self.aspect_threshold {
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

    /// `p_c = M_p(p)`: generates the complementary prompt.
    pub fn augment(&self, prompt: &str) -> String {
        let mut rng =
            StdRng::seed_from_u64(pas_text::fx_hash_str(prompt) ^ self.seed.rotate_left(9));
        // Style imitation: a model fine-tuned on flawed pairs emits flawed
        // complements at the training contamination rate.
        if !self.contaminated_styles.is_empty() && rng.random::<f32>() < self.contamination_rate {
            let i = rng.random_range(0..self.contaminated_styles.len());
            return self.contaminated_styles[i].clone();
        }
        let intended = self.predict_aspects(prompt);
        // Base-model realization: a weaker base model drops intended
        // aspects from the generated text more often.
        let realized: AspectSet =
            intended.iter().filter(|_| rng.random::<f32>() < self.fidelity).collect();
        let final_set = if realized.is_empty() { intended } else { realized };
        let topic = top_keywords(prompt, 3).join(" ");
        realize_complement_in(pas_text::lang::detect_language(prompt), &topic, final_set)
    }

    /// `r_e = LLM(cat(p, p_c))`: augments and queries a downstream model.
    pub fn enhance<M: ChatModel>(&self, llm: &M, prompt: &str) -> String {
        llm.chat(&self.optimize(prompt))
    }

    /// Number of pairs the model was fine-tuned on.
    pub fn trained_pairs(&self) -> usize {
        self.trained_pairs
    }

    /// Realization fidelity derived from the base model.
    pub fn fidelity(&self) -> f32 {
        self.fidelity
    }
}

impl PromptOptimizer for Pas {
    fn name(&self) -> &str {
        &self.name
    }

    /// PAS complements — it never rewrites: the original prompt is kept
    /// verbatim and the complement is appended.
    fn optimize(&self, prompt: &str) -> String {
        format!("{prompt} {}", self.augment(prompt))
    }

    fn requires_human_labels(&self) -> bool {
        false // the dataset is generated fully automatically (Algorithm 1)
    }

    fn llm_agnostic(&self) -> bool {
        true // one trained PAS plugs into any ChatModel
    }

    fn task_agnostic(&self) -> bool {
        true // trained across all 14 categories at once
    }

    fn training_pairs(&self) -> Option<usize> {
        Some(self.trained_pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_data::{PairDataset, PairRecord};
    use pas_llm::Category;

    /// A tiny synthetic SFT set with a clean prompt→aspect mapping.
    fn toy_dataset(n: usize) -> PairDataset {
        let mut ds = PairDataset::new();
        for i in 0..n {
            // Coding prompts pair with step-by-step+examples complements;
            // writing prompts with style complements.
            if i % 2 == 0 {
                ds.pairs.push(PairRecord {
                    prompt: format!("How do I implement feature {i} in my parser code?"),
                    complement: pas_llm::teacher::realize_complement(
                        "parser code",
                        [Aspect::StepByStep, Aspect::Examples].into_iter().collect(),
                    ),
                    category: Category::Coding,
                });
            } else {
                ds.pairs.push(PairRecord {
                    prompt: format!("Help me write announcement number {i} for the team."),
                    complement: pas_llm::teacher::realize_complement(
                        "announcement team",
                        [Aspect::StyleConstraint, Aspect::Audience].into_iter().collect(),
                    ),
                    category: Category::Writing,
                });
            }
        }
        ds
    }

    #[test]
    fn sft_learns_prompt_to_aspect_mapping() {
        let (pas, loss) = Pas::sft(&PasConfig::default(), &toy_dataset(200));
        assert!(loss < 0.3, "training loss {loss}");
        let coding = pas.predict_aspects("How do I implement caching in my parser code?");
        assert!(coding.contains(Aspect::StepByStep) || coding.contains(Aspect::Examples));
        let writing = pas.predict_aspects("Help me write a kind announcement for the team.");
        assert!(writing.contains(Aspect::StyleConstraint) || writing.contains(Aspect::Audience));
    }

    #[test]
    fn optimize_preserves_the_original_prompt() {
        let (pas, _) = Pas::sft(&PasConfig::default(), &toy_dataset(50));
        let prompt = "How do I implement retry logic in my parser code?";
        let out = pas.optimize(prompt);
        assert!(out.starts_with(prompt), "PAS must complement, not rewrite");
        assert!(out.len() > prompt.len());
    }

    #[test]
    fn augmentation_is_deterministic() {
        let (pas, _) = Pas::sft(&PasConfig::default(), &toy_dataset(50));
        let p = "How do I implement pagination in my parser code?";
        assert_eq!(pas.augment(p), pas.augment(p));
    }

    #[test]
    fn weaker_base_model_realizes_fewer_aspects() {
        let ds = toy_dataset(200);
        let strong = Pas::sft(&PasConfig::default(), &ds).0;
        let weak = Pas::sft(
            &PasConfig { base_model: "llama-2-7b-instruct".into(), ..PasConfig::default() },
            &ds,
        )
        .0;
        assert!(strong.fidelity() > weak.fidelity());
        // Aggregate over many prompts: the weak base drops more aspects.
        let count = |pas: &Pas| -> usize {
            (0..200)
                .map(|i| {
                    let p = format!("How do I implement module {i} in my parser code?");
                    detect_aspects(&pas.augment(&p)).len()
                })
                .sum()
        };
        assert!(count(&strong) > count(&weak));
    }

    #[test]
    fn flexibility_metadata_matches_table3() {
        let (pas, _) = Pas::sft(&PasConfig::default(), &toy_dataset(20));
        assert!(!pas.requires_human_labels());
        assert!(pas.llm_agnostic());
        assert!(pas.task_agnostic());
        assert_eq!(pas.training_pairs(), Some(20));
    }

    #[test]
    fn empty_dataset_still_produces_a_model() {
        let (pas, _) = Pas::sft(&PasConfig::default(), &PairDataset::new());
        let out = pas.augment("anything at all");
        assert!(!out.is_empty());
        assert_eq!(pas.trained_pairs(), 0);
    }
}

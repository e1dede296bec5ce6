//! Trainable text classifiers over hashed feature vectors: trained on dense
//! rows, and the multi-label model infers from a sparse one.
//!
//! Two models back the PAS pipeline:
//!
//! - [`SoftmaxClassifier`] — single-label, used for the 14-way prompt
//!   category classifier of §3.1 (the paper fine-tunes BaiChuan-13B on 60k
//!   labeled examples; we train this on the synthetic labeled set).
//! - [`MultiLabelClassifier`] — independent sigmoid per label, used as the
//!   PAS aspect model: given a prompt's features, which complement aspects
//!   should the complementary prompt supply?
//!
//! Both are single linear layers trained with Adam; featurization lives in
//! `pas-data` so this crate stays purely numeric.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::layers::Linear;
use crate::loss::{bce_with_logits, sigmoid, softmax, softmax_cross_entropy};
use crate::matrix::Matrix;
use crate::optim::{Adam, AdamConfig, AdamState};

/// Shared training parameters.
#[derive(Debug, Clone)]
pub struct TrainParams {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams { epochs: 12, batch_size: 32, lr: 0.05, seed: 0xc1a55 }
    }
}

fn batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order.chunks(batch_size.max(1)).map(|c| c.to_vec()).collect()
}

fn stack_rows(features: &[Vec<f32>], idxs: &[usize], dim: usize) -> Matrix {
    let mut x = Matrix::zeros(idxs.len(), dim);
    for (r, &i) in idxs.iter().enumerate() {
        x.row_mut(r).copy_from_slice(&features[i]);
    }
    x
}

/// Single-label linear classifier with softmax output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoftmaxClassifier {
    layer: Linear,
    classes: usize,
}

impl SoftmaxClassifier {
    /// Creates a classifier for `feature_dim`-dimensional inputs and
    /// `classes` output classes.
    pub fn new(feature_dim: usize, classes: usize, seed: u64) -> Self {
        assert!(classes >= 2, "need at least two classes");
        let mut rng = StdRng::seed_from_u64(seed);
        SoftmaxClassifier { layer: Linear::new(feature_dim, classes, &mut rng), classes }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Input feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.layer.in_dim()
    }

    /// Trains on `(features, label)` pairs; returns the final-epoch mean loss.
    pub fn train(&mut self, features: &[Vec<f32>], labels: &[u32], params: &TrainParams) -> f32 {
        assert_eq!(features.len(), labels.len(), "features/labels length mismatch");
        if features.is_empty() {
            return 0.0;
        }
        let dim = self.feature_dim();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut adam = Adam::new(AdamConfig { lr: params.lr, ..AdamConfig::default() });
        let mut epoch_loss = 0.0;
        for _ in 0..params.epochs {
            let mut total = 0.0f32;
            let mut count = 0usize;
            for batch in batches(features.len(), params.batch_size, &mut rng) {
                let x = stack_rows(features, &batch, dim);
                let y: Vec<u32> = batch.iter().map(|&i| labels[i]).collect();
                let logits = self.layer.forward(&x);
                let (loss, grad) = softmax_cross_entropy(&logits, &y);
                self.layer.zero_grad();
                let _ = self.layer.backward(&x, &grad);
                adam.begin_step();
                adam.update(self.layer.weight.data_mut(), self.layer.grad_weight.data());
                adam.update(&mut self.layer.bias, &self.layer.grad_bias.clone());
                total += loss * batch.len() as f32;
                count += batch.len();
            }
            epoch_loss = total / count as f32;
        }
        epoch_loss
    }

    /// Class probabilities for one feature vector.
    pub fn probabilities(&self, features: &[f32]) -> Vec<f32> {
        let x = Matrix::from_vec(1, features.len(), features.to_vec());
        softmax(self.layer.forward(&x).row(0))
    }

    /// Most likely class.
    pub fn predict(&self, features: &[f32]) -> u32 {
        let p = self.probabilities(features);
        p.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i as u32).unwrap_or(0)
    }

    /// Accuracy over a labeled set.
    pub fn accuracy(&self, features: &[Vec<f32>], labels: &[u32]) -> f64 {
        if features.is_empty() {
            return 0.0;
        }
        let hits = features.iter().zip(labels).filter(|(f, &l)| self.predict(f) == l).count();
        hits as f64 / features.len() as f64
    }
}

/// A completed-epoch snapshot of an in-progress [`MultiLabelClassifier`]
/// training run: model weights, optimizer moments, and the shuffling RNG
/// state. Feeding it back into
/// [`MultiLabelClassifier::train_resumable`] continues training
/// bit-identically to a run that was never interrupted — every remaining
/// shuffle, gradient, and Adam update replays exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SftCheckpoint {
    /// Epochs fully completed.
    pub epochs_done: usize,
    /// Model weights after `epochs_done` epochs.
    pub model: MultiLabelClassifier,
    /// Optimizer state after `epochs_done` epochs.
    pub adam: AdamState,
    /// Shuffling-RNG state after `epochs_done` epochs.
    pub rng: [u64; 4],
    /// Mean loss of the last completed epoch.
    pub last_epoch_loss: f32,
}

/// Multi-label linear classifier with independent sigmoids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLabelClassifier {
    layer: Linear,
    labels: usize,
}

impl MultiLabelClassifier {
    /// Creates a classifier for `feature_dim` inputs and `labels` outputs.
    pub fn new(feature_dim: usize, labels: usize, seed: u64) -> Self {
        assert!(labels >= 1, "need at least one label");
        let mut rng = StdRng::seed_from_u64(seed);
        MultiLabelClassifier { layer: Linear::new(feature_dim, labels, &mut rng), labels }
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels
    }

    /// Input feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.layer.in_dim()
    }

    /// Trains on `(features, target-bitmask-rows)`; `targets[i]` has one 0/1
    /// entry per label. Returns the final-epoch mean loss.
    pub fn train(
        &mut self,
        features: &[Vec<f32>],
        targets: &[Vec<f32>],
        params: &TrainParams,
    ) -> f32 {
        self.train_resumable(features, targets, params, None, None)
    }

    /// [`MultiLabelClassifier::train`] with checkpoint/resume.
    ///
    /// With `resume`, training restarts *after* the checkpoint's completed
    /// epoch: weights, Adam moments, and the shuffle RNG are restored, so
    /// the remaining epochs replay bit-identically to an uninterrupted run.
    /// `on_epoch` (if given) receives a [`SftCheckpoint`] after every
    /// completed epoch — commit it to a journal to make the run killable.
    /// The fresh-start path consumes RNG and optimizer state in exactly the
    /// order [`MultiLabelClassifier::train`] always has, so existing
    /// seed-pinned results are unchanged.
    pub fn train_resumable(
        &mut self,
        features: &[Vec<f32>],
        targets: &[Vec<f32>],
        params: &TrainParams,
        resume: Option<SftCheckpoint>,
        mut on_epoch: Option<&mut dyn FnMut(&SftCheckpoint)>,
    ) -> f32 {
        assert_eq!(features.len(), targets.len(), "features/targets length mismatch");
        if features.is_empty() {
            return 0.0;
        }
        let adam_config = AdamConfig { lr: params.lr, ..AdamConfig::default() };
        let (mut rng, mut adam, start_epoch, mut epoch_loss) = match resume {
            None => (StdRng::seed_from_u64(params.seed), Adam::new(adam_config), 0, 0.0),
            Some(cp) => {
                assert_eq!(
                    cp.model.feature_dim(),
                    self.feature_dim(),
                    "checkpoint feature_dim mismatch"
                );
                assert_eq!(cp.model.label_count(), self.labels, "checkpoint label count mismatch");
                assert!(
                    cp.epochs_done <= params.epochs,
                    "checkpoint has more epochs ({}) than requested ({})",
                    cp.epochs_done,
                    params.epochs
                );
                *self = cp.model;
                (
                    StdRng::from_state(cp.rng),
                    Adam::restore(adam_config, cp.adam),
                    cp.epochs_done,
                    cp.last_epoch_loss,
                )
            }
        };
        let dim = self.feature_dim();
        for epoch in start_epoch..params.epochs {
            let mut total = 0.0f32;
            let mut count = 0usize;
            for batch in batches(features.len(), params.batch_size, &mut rng) {
                let x = stack_rows(features, &batch, dim);
                let mut y = Matrix::zeros(batch.len(), self.labels);
                for (r, &i) in batch.iter().enumerate() {
                    y.row_mut(r).copy_from_slice(&targets[i]);
                }
                let logits = self.layer.forward(&x);
                let (loss, grad) = bce_with_logits(&logits, &y);
                self.layer.zero_grad();
                let _ = self.layer.backward(&x, &grad);
                adam.begin_step();
                adam.update(self.layer.weight.data_mut(), self.layer.grad_weight.data());
                adam.update(&mut self.layer.bias, &self.layer.grad_bias.clone());
                total += loss * batch.len() as f32;
                count += batch.len();
            }
            epoch_loss = total / count as f32;
            if let Some(cb) = on_epoch.as_deref_mut() {
                cb(&SftCheckpoint {
                    epochs_done: epoch + 1,
                    model: self.clone(),
                    adam: adam.state(),
                    rng: rng.state(),
                    last_epoch_loss: epoch_loss,
                });
            }
        }
        epoch_loss
    }

    /// Per-label probabilities for one input given as its nonzero entries
    /// `(index, value)`, in ascending index order (`pas_data`'s
    /// `sparse_features`).
    ///
    /// The logits start at +0 and add each entry's weight row scaled by
    /// its value, in that order, then the bias. That is the dense forward
    /// `x·W + b` with only the zero inputs' terms skipped, and whenever
    /// every weight is finite it equals the dense forward bit for bit: a
    /// skipped term is ±0, and adding ±0 leaves a sum that starts at +0
    /// unchanged, since such a sum is never −0.
    pub fn predict_probs(&self, features: &[(usize, f32)]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.labels];
        for &(i, x) in features {
            pas_kernels::axpy(x, self.layer.weight.row(i), &mut logits);
        }
        pas_kernels::add(&mut logits, &self.layer.bias);
        logits.into_iter().map(sigmoid).collect()
    }

    /// Labels whose probability exceeds `threshold`.
    pub fn predict_labels(&self, features: &[(usize, f32)], threshold: f32) -> Vec<usize> {
        self.predict_probs(features)
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| (p >= threshold).then_some(i))
            .collect()
    }

    /// Micro-averaged F1 over a labeled set of sparse inputs at
    /// `threshold`.
    pub fn micro_f1(
        &self,
        features: &[Vec<(usize, f32)>],
        targets: &[Vec<f32>],
        threshold: f32,
    ) -> f64 {
        let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
        for (f, t) in features.iter().zip(targets) {
            let probs = self.predict_probs(f);
            for (&p, &truth) in probs.iter().zip(t) {
                let pred = p >= threshold;
                let actual = truth >= 0.5;
                match (pred, actual) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    (false, false) => {}
                }
            }
        }
        if tp == 0 {
            return 0.0;
        }
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = tp as f64 / (tp + fn_) as f64;
        2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Linearly separable 3-class toy set: class = argmax coordinate.
    fn toy_multiclass(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let v: Vec<f32> = (0..3).map(|_| rng.random::<f32>()).collect();
            let label = v
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i as u32)
                .unwrap();
            xs.push(v);
            ys.push(label);
        }
        (xs, ys)
    }

    #[test]
    fn softmax_classifier_learns_separable_data() {
        let (xs, ys) = toy_multiclass(300, 5);
        let mut clf = SoftmaxClassifier::new(3, 3, 1);
        clf.train(&xs, &ys, &TrainParams { epochs: 40, ..TrainParams::default() });
        assert!(clf.accuracy(&xs, &ys) > 0.9, "accuracy {}", clf.accuracy(&xs, &ys));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let clf = SoftmaxClassifier::new(4, 3, 2);
        let p = clf.probabilities(&[0.1, 0.2, 0.3, 0.4]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn multilabel_learns_identity_mapping() {
        // Each label fires iff the matching feature is high.
        let mut rng = StdRng::seed_from_u64(11);
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        for _ in 0..400 {
            let v: Vec<f32> =
                (0..4).map(|_| if rng.random::<f32>() > 0.5 { 1.0 } else { 0.0 }).collect();
            ts.push(v.clone());
            xs.push(v);
        }
        let mut clf = MultiLabelClassifier::new(4, 4, 3);
        clf.train(&xs, &ts, &TrainParams { epochs: 30, ..TrainParams::default() });
        let sparse: Vec<_> = xs.iter().map(|x| nonzeros(x)).collect();
        let f1 = clf.micro_f1(&sparse, &ts, 0.5);
        assert!(f1 > 0.95, "micro-F1 {f1}");
    }

    /// Toy multi-label set shared by the resume tests.
    fn toy_multilabel(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        for _ in 0..n {
            let v: Vec<f32> =
                (0..4).map(|_| if rng.random::<f32>() > 0.5 { 1.0 } else { 0.0 }).collect();
            ts.push(v.clone());
            xs.push(v);
        }
        (xs, ts)
    }

    #[test]
    fn resumable_matches_plain_train_bit_for_bit() {
        let (xs, ts) = toy_multilabel(200, 31);
        let params = TrainParams { epochs: 10, ..TrainParams::default() };
        let mut plain = MultiLabelClassifier::new(4, 4, 5);
        let plain_loss = plain.train(&xs, &ts, &params);
        let mut observed = MultiLabelClassifier::new(4, 4, 5);
        let mut checkpoints: Vec<SftCheckpoint> = Vec::new();
        let mut record = |cp: &SftCheckpoint| checkpoints.push(cp.clone());
        let observed_loss = observed.train_resumable(&xs, &ts, &params, None, Some(&mut record));
        assert_eq!(plain_loss.to_bits(), observed_loss.to_bits());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&observed).unwrap(),
            "checkpoint callback must not perturb training"
        );
        assert_eq!(checkpoints.len(), params.epochs);
        assert_eq!(checkpoints.last().unwrap().epochs_done, params.epochs);
    }

    #[test]
    fn resuming_mid_run_reproduces_the_uninterrupted_model() {
        let (xs, ts) = toy_multilabel(200, 32);
        let params = TrainParams { epochs: 12, ..TrainParams::default() };
        let mut uninterrupted = MultiLabelClassifier::new(4, 4, 6);
        let full_loss = uninterrupted.train(&xs, &ts, &params);
        // "Kill" the run after epoch 5: keep only that checkpoint.
        let mut killed = MultiLabelClassifier::new(4, 4, 6);
        let mut at_five: Option<SftCheckpoint> = None;
        let mut grab = |cp: &SftCheckpoint| {
            if cp.epochs_done == 5 {
                at_five = Some(cp.clone());
            }
        };
        killed.train_resumable(&xs, &ts, &params, None, Some(&mut grab));
        let checkpoint = at_five.expect("epoch 5 checkpoint");
        // Round-trip through JSON, as a journal would store it.
        let thawed: SftCheckpoint =
            serde_json::from_str(&serde_json::to_string(&checkpoint).unwrap()).unwrap();
        let mut resumed = MultiLabelClassifier::new(4, 4, 6);
        let resumed_loss = resumed.train_resumable(&xs, &ts, &params, Some(thawed), None);
        assert_eq!(full_loss.to_bits(), resumed_loss.to_bits());
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "resumed weights must be bit-identical"
        );
    }

    #[test]
    fn resume_from_final_epoch_is_a_noop() {
        let (xs, ts) = toy_multilabel(100, 33);
        let params = TrainParams { epochs: 6, ..TrainParams::default() };
        let mut trained = MultiLabelClassifier::new(4, 4, 7);
        let mut last: Option<SftCheckpoint> = None;
        let mut grab = |cp: &SftCheckpoint| last = Some(cp.clone());
        let loss = trained.train_resumable(&xs, &ts, &params, None, Some(&mut grab));
        let cp = last.unwrap();
        let mut resumed = MultiLabelClassifier::new(4, 4, 7);
        let resumed_loss = resumed.train_resumable(&xs, &ts, &params, Some(cp), None);
        assert_eq!(loss.to_bits(), resumed_loss.to_bits());
        assert_eq!(
            serde_json::to_string(&trained).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
    }

    #[test]
    fn predict_labels_thresholds() {
        let clf = MultiLabelClassifier::new(2, 3, 0);
        let labels = clf.predict_labels(&[], 2.0); // impossible threshold
        assert!(labels.is_empty());
        let all = clf.predict_labels(&[], 0.0);
        assert_eq!(all, vec![0, 1, 2]);
    }

    /// The nonzero entries of a dense input, in index order.
    fn nonzeros(x: &[f32]) -> Vec<(usize, f32)> {
        x.iter().enumerate().filter(|&(_, &v)| v != 0.0).map(|(i, &v)| (i, v)).collect()
    }

    /// The dense single-row forward the sparse path replaces: the blocked
    /// `gemm` over every input, the bias, then the sigmoid.
    fn dense_probs(clf: &MultiLabelClassifier, x: &[f32]) -> Vec<f32> {
        let row = Matrix::from_vec(1, x.len(), x.to_vec());
        clf.layer.forward(&row).row(0).iter().map(|&l| sigmoid(l)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Sparse inference against the dense forward, bit for bit, on
        // random classifiers (random weights, bias and width) and random
        // inputs, some of whose entries are ±0 so the skipped terms carry
        // both signs.
        #[test]
        fn sparse_inference_matches_the_dense_forward(
            seed in 0u64..u64::MAX,
            dim in 1usize..600,
            labels in 1usize..17,
            scale in -8.0f32..8.0,
            bias in proptest::collection::vec(-4.0f32..4.0, 16),
            slots in proptest::collection::vec(0usize..600, 0..40),
            values in proptest::collection::vec(-3.0f32..3.0, 40),
            kinds in proptest::collection::vec(0u8..4, 40),
        ) {
            let mut clf = MultiLabelClassifier::new(dim, labels, seed);
            for w in clf.layer.weight.data_mut() {
                *w *= scale;
            }
            clf.layer.bias.copy_from_slice(&bias[..labels]);
            let mut x = vec![0.0f32; dim];
            for ((&i, &v), &kind) in slots.iter().zip(&values).zip(&kinds) {
                x[i % dim] = match kind {
                    0 => -0.0,
                    1 => 1.0,
                    _ => v,
                };
            }
            let want = bits(&dense_probs(&clf, &x));
            proptest::prop_assert_eq!(bits(&clf.predict_probs(&nonzeros(&x))), want.clone());
            // Explicit ±0 entries are skipped terms too.
            let with_zeros: Vec<(usize, f32)> = x.iter().copied().enumerate().collect();
            proptest::prop_assert_eq!(bits(&clf.predict_probs(&with_zeros)), want);
        }
    }

    #[test]
    fn training_on_empty_set_is_noop() {
        let mut clf = SoftmaxClassifier::new(2, 2, 0);
        let loss = clf.train(&[], &[], &TrainParams::default());
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn noisier_labels_reduce_accuracy() {
        // The property the PAS ablation rests on: label noise in training
        // data degrades the learned model.
        let (xs, ys) = toy_multiclass(300, 21);
        let mut noisy = ys.clone();
        let mut rng = StdRng::seed_from_u64(99);
        for y in noisy.iter_mut() {
            if rng.random::<f32>() < 0.35 {
                *y = rng.random_range(0..3);
            }
        }
        let params = TrainParams { epochs: 40, ..TrainParams::default() };
        let mut clean_clf = SoftmaxClassifier::new(3, 3, 1);
        clean_clf.train(&xs, &ys, &params);
        let mut noisy_clf = SoftmaxClassifier::new(3, 3, 1);
        noisy_clf.train(&xs, &noisy, &params);
        let (vx, vy) = toy_multiclass(200, 77);
        assert!(clean_clf.accuracy(&vx, &vy) > noisy_clf.accuracy(&vx, &vy));
    }
}

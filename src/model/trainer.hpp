// Training and evaluation harness (paper §5.1: Adam, lr 1e-3, 80/20 split,
// RMSE metric for regression; accuracy and F1 for the validity classifier).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "model/dataset.hpp"
#include "model/predictive_model.hpp"
#include "tensor/adam.hpp"

namespace gnndse::model {

enum class Task { kRegression, kClassification };

struct TrainOptions {
  Task task = Task::kRegression;
  /// Objective columns (indices into Sample::target) the model predicts;
  /// ignored for classification. The paper trains one model on
  /// {latency, DSP, LUT, FF} and a separate one on {BRAM} (§5.2.1).
  std::vector<int> objectives{kLatency, kDsp, kLut, kFf};
  int epochs = 30;
  int batch_size = 32;
  float lr = 1e-3f;
  std::uint64_t seed = 1;
  bool verbose = false;
};

struct RegressionMetrics {
  /// RMSE per Objective (entries for objectives the model does not predict
  /// stay 0).
  std::array<float, kNumObjectives> rmse{};
  /// Sum over predicted objectives (the paper's "All" column convention).
  float rmse_sum = 0.0f;
};

struct ClassificationMetrics {
  float accuracy = 0.0f;
  float f1 = 0.0f;
};

class Trainer {
 public:
  Trainer(PredictiveModel& model, TrainOptions opts);

  /// Minibatch training on the given sample indices. Returns the mean
  /// training loss of the final epoch.
  float fit(const Dataset& ds, const std::vector<std::size_t>& train_idx);

  /// Raw model outputs, [n, out_dim] (logits for classification), in
  /// kChunk-sized batches through PredictiveModel::forward_infer: the
  /// tape-free fast path, or the tape for M3/M4. Bit-identical to
  /// predict_graphs_tape either way (enforced by tests/test_fastpath.cpp).
  tensor::Tensor predict(const Dataset& ds,
                         const std::vector<std::size_t>& idx);
  tensor::Tensor predict_graphs(
      const std::vector<const gnn::GraphData*>& graphs);
  tensor::Tensor predict_graphs(std::span<const gnn::GraphData> graphs);

  /// Reference implementation of predict_graphs through the autodiff Tape.
  /// Kept as the bit-identity baseline for tests and the tape-vs-fast
  /// benchmark (bench_fastpath).
  tensor::Tensor predict_graphs_tape(
      const std::vector<const gnn::GraphData*>& graphs);

  /// Fast-path forward over one prebuilt batch -> [B, out_dim]. The
  /// returned reference lives in the trainer's inference workspace until
  /// the next predict call. This is the DSE hot loop's entry point: the
  /// caller assembles (or reuses) a single GraphBatch that all three model
  /// heads share.
  const tensor::Tensor& predict_batch(const gnn::GraphBatch& batch);

  /// Graph-level embeddings (the encoder output that feeds the MLP head),
  /// [n, D] — the paper's Fig 6 visualizes these through t-SNE.
  tensor::Tensor embed_graphs(const std::vector<const gnn::GraphData*>& graphs);

  const TrainOptions& options() const { return opts_; }

  /// Inference workspace (telemetry/tests: workspace_bytes, num_slots).
  const gnn::InferenceSession& inference_session() const { return session_; }

  /// Prediction/embedding chunk size: one GraphBatch per kChunk graphs.
  static constexpr std::size_t kChunk = 256;

 private:
  tensor::Tensor batch_targets(const Dataset& ds,
                               const std::vector<std::size_t>& idx) const;

  PredictiveModel& model_;
  TrainOptions opts_;
  tensor::Adam adam_;
  gnn::InferenceSession session_;
};

/// Fast-path forward of one shared batch through several independent model
/// heads, dispatched as parallel tasks on the util pool (one task per
/// head). Each head runs entirely inside its own trainer's
/// InferenceSession workspace, so the results are bit-identical to calling
/// heads[i]->predict_batch(batch) sequentially — at every thread count
/// (enforced by tests/test_sweep.cpp). out[i] points into heads[i]'s
/// workspace and stays valid until that trainer's next predict call.
/// The batch must stay immutable for the duration of the call.
void predict_batch_concurrent(std::span<Trainer* const> heads,
                              const gnn::GraphBatch& batch,
                              std::span<const tensor::Tensor*> out);

RegressionMetrics eval_regression(Trainer& trainer, const Dataset& ds,
                                  const std::vector<std::size_t>& test_idx);

ClassificationMetrics eval_classification(Trainer& trainer, const Dataset& ds,
                                          const std::vector<std::size_t>& test_idx);

/// Combines two regression models (main objectives + BRAM) into one
/// five-objective metric row, as the paper reports in Table 2.
RegressionMetrics combine(const RegressionMetrics& main,
                          const RegressionMetrics& bram);

}  // namespace gnndse::model

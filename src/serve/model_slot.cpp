#include "serve/model_slot.hpp"

#include "model/weights.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace gnndse::serve {

std::shared_ptr<ModelSnapshot> snapshot_from_trained(
    dse::TrainedModels& models, double norm_factor) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->norm_factor = norm_factor;
  snap->base = models.main_model().options();
  snap->main_params = model::copy_params(models.main_model().params());
  snap->bram_params = model::copy_params(models.bram_model().params());
  snap->cls_params = model::copy_params(models.cls_model().params());
  return snap;
}

std::shared_ptr<ModelSnapshot> snapshot_from_files(
    const std::string& prefix, const model::ModelOptions& base,
    double norm_factor) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->norm_factor = norm_factor;
  snap->base = base;
  snap->main_params = model::load_raw_params(prefix + ".main.bin");
  snap->bram_params = model::load_raw_params(prefix + ".bram.bin");
  snap->cls_params = model::load_raw_params(prefix + ".cls.bin");
  return snap;
}

std::uint64_t ModelSlot::install(std::shared_ptr<ModelSnapshot> next) {
  std::lock_guard<std::mutex> lock(mu_);
  next->version = ++last_version_;
  snap_ = std::move(next);
  if (last_version_ > 1) obs::add(obs::counter("serve.model_swaps"));
  return last_version_;
}

void ModelInstance::ensure(const SnapshotPtr& snap) {
  if (!snap) throw std::runtime_error("serve: no model installed");
  if (snap_ && snap_->version == snap->version) return;

  // Rebuild from scratch: constructing with a fixed rng then overwriting
  // every parameter yields the snapshot weights exactly.
  util::Rng rng(1);
  model::ModelOptions mo = snap->base;
  mo.out_dim = 4;
  main_model_ = std::make_unique<model::PredictiveModel>(mo, rng);
  mo.out_dim = 1;
  bram_model_ = std::make_unique<model::PredictiveModel>(mo, rng);
  cls_model_ = std::make_unique<model::PredictiveModel>(mo, rng);
  model::assign_params(main_model_->params(), snap->main_params);
  model::assign_params(bram_model_->params(), snap->bram_params);
  model::assign_params(cls_model_->params(), snap->cls_params);

  model::TrainOptions to;
  main_trainer_ = std::make_unique<model::Trainer>(*main_model_, to);
  model::TrainOptions tb = to;
  tb.objectives = {model::kBram};
  bram_trainer_ = std::make_unique<model::Trainer>(*bram_model_, tb);
  model::TrainOptions tc = to;
  tc.task = model::Task::kClassification;
  cls_trainer_ = std::make_unique<model::Trainer>(*cls_model_, tc);

  norm_ = model::Normalizer(snap->norm_factor);
  snap_ = snap;
}

}  // namespace gnndse::serve

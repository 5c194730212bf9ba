// Flat binary serialization of model weights, so separate bench binaries
// can share one trained model bundle instead of retraining.
//
// Format: magic, count, then per parameter {rank, dims..., float data}.
// Loading requires an architecturally-identical model (same parameter
// shapes in the same order).
#pragma once

#include <string>
#include <vector>

#include "tensor/tape.hpp"

namespace gnndse::model {

void save_params(const std::vector<tensor::Parameter*>& params,
                 const std::string& path);

/// Throws std::runtime_error on mismatch or I/O failure.
void load_params(const std::vector<tensor::Parameter*>& params,
                 const std::string& path);

/// True when `path` exists and holds a weight file.
bool weights_exist(const std::string& path);

/// Deep copies of the current parameter values — the immutable snapshot
/// blobs the serve model slot hands to concurrent consumers.
std::vector<tensor::Tensor> copy_params(
    const std::vector<tensor::Parameter*>& params);

/// Reads a weight file into freestanding tensors (no model required), so a
/// snapshot can be taken without constructing a throwaway model first.
/// Throws std::runtime_error on I/O failure or a bad header.
std::vector<tensor::Tensor> load_raw_params(const std::string& path);

/// Assigns blob values into a model's parameters (count- and shape-checked;
/// throws std::runtime_error on mismatch).
void assign_params(const std::vector<tensor::Parameter*>& params,
                   const std::vector<tensor::Tensor>& values);

}  // namespace gnndse::model

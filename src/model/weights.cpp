#include "model/weights.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace gnndse::model {

namespace {
constexpr std::uint32_t kMagic = 0x474E4453;  // "GNDS"
}

void save_params(const std::vector<tensor::Parameter*>& params,
                 const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_params: cannot open " + path);
  const std::uint32_t magic = kMagic;
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const auto* p : params) {
    const auto& shape = p->value.shape();
    const std::uint32_t rank = static_cast<std::uint32_t>(shape.size());
    out.write(reinterpret_cast<const char*>(&rank), sizeof rank);
    for (auto dim : shape) {
      const std::int64_t d = dim;
      out.write(reinterpret_cast<const char*>(&d), sizeof d);
    }
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("save_params: write failed for " + path);
}

void load_params(const std::vector<tensor::Parameter*>& params,
                 const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_params: cannot open " + path);
  std::uint32_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (magic != kMagic)
    throw std::runtime_error("load_params: bad magic in " + path);
  if (count != params.size())
    throw std::runtime_error("load_params: parameter count mismatch");
  for (auto* p : params) {
    std::uint32_t rank = 0;
    in.read(reinterpret_cast<char*>(&rank), sizeof rank);
    std::vector<std::int64_t> shape(rank);
    for (auto& d : shape) in.read(reinterpret_cast<char*>(&d), sizeof d);
    if (shape != p->value.shape())
      throw std::runtime_error("load_params: shape mismatch");
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  if (!in) throw std::runtime_error("load_params: truncated file " + path);
}

bool weights_exist(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  return in && magic == kMagic;
}

std::vector<tensor::Tensor> copy_params(
    const std::vector<tensor::Parameter*>& params) {
  std::vector<tensor::Tensor> out;
  out.reserve(params.size());
  for (const auto* p : params) out.push_back(p->value);
  return out;
}

std::vector<tensor::Tensor> load_raw_params(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_raw_params: cannot open " + path);
  std::uint32_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (magic != kMagic)
    throw std::runtime_error("load_raw_params: bad magic in " + path);
  std::vector<tensor::Tensor> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t rank = 0;
    in.read(reinterpret_cast<char*>(&rank), sizeof rank);
    if (!in || rank > 8)
      throw std::runtime_error("load_raw_params: corrupt header in " + path);
    std::vector<std::int64_t> shape(rank);
    for (auto& d : shape) in.read(reinterpret_cast<char*>(&d), sizeof d);
    tensor::Tensor t(shape);
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
    out.push_back(std::move(t));
  }
  if (!in) throw std::runtime_error("load_raw_params: truncated file " + path);
  return out;
}

void assign_params(const std::vector<tensor::Parameter*>& params,
                   const std::vector<tensor::Tensor>& values) {
  if (params.size() != values.size())
    throw std::runtime_error("assign_params: parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->value.shape() != values[i].shape())
      throw std::runtime_error("assign_params: shape mismatch");
    params[i]->value = values[i];
  }
}

}  // namespace gnndse::model

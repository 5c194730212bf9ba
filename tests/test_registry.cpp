// kernels::Registry: provenance bookkeeping, the unified lookup every
// caller uses, near-miss suggestions in miss errors, and file/generated
// registration.
#include "kernels/registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "frontend/kernel_json.hpp"
#include "kernels/generator.hpp"
#include "kernels/kernels.hpp"
#include "kernels/kernels_extension.hpp"
#include "oracle/evaluator.hpp"

namespace gnndse {
namespace {

using kernels::Provenance;
using kernels::Registry;

TEST(Registry, GlobalHoldsAllCompiledKernels) {
  auto& reg = Registry::global();
  EXPECT_GE(reg.size(), 19u);
  EXPECT_EQ(reg.names(Provenance::kBuiltin).size(), 13u);
  EXPECT_EQ(reg.names(Provenance::kExtension).size(), 6u);
  for (const auto& n : kernels::training_kernel_names()) {
    EXPECT_TRUE(reg.contains(n)) << n;
    EXPECT_EQ(reg.entry(n).provenance, Provenance::kBuiltin) << n;
  }
  for (const auto& f : kernels::detail::extension_factories())
    EXPECT_EQ(reg.entry(f.name).provenance, Provenance::kExtension) << f.name;
}

TEST(Registry, MissSuggestsNearNames) {
  try {
    Registry::global().get("gemm-ncube");  // one deletion away
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gemm-ncubed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("builtin"), std::string::npos) << msg;
  }
}

TEST(Registry, MissStillThrowsInvalidArgument) {
  EXPECT_THROW(Registry::global().get("definitely-not-a-kernel"),
               std::invalid_argument);
  EXPECT_THROW(Registry::global().entry("definitely-not-a-kernel"),
               std::invalid_argument);
}

TEST(Registry, FileKernelsCarryTheirPath) {
  Registry reg;
  reg.add(Registry::global().get("atax"), Provenance::kBuiltin);
  const std::string path = ::testing::TempDir() + "reg_file_kernel.json";
  kir::Kernel k = Registry::global().get("bicg");
  k.name = "bicg-from-file";
  frontend::save_kernel_file(k, path);
  EXPECT_EQ(reg.add_file(path), "bicg-from-file");
  const auto entry = reg.entry("bicg-from-file");
  EXPECT_EQ(entry.provenance, Provenance::kFile);
  EXPECT_EQ(entry.origin, path);
  EXPECT_EQ(oracle::kernel_digest(entry.kernel), oracle::kernel_digest(k));
  std::remove(path.c_str());
}

TEST(Registry, ResolveLoadsPathsOnDemand) {
  Registry reg;
  const std::string path = ::testing::TempDir() + "reg_resolve_kernel.json";
  kir::Kernel k = kernels::generate(kernels::GeneratorConfig{}, 3);
  frontend::save_kernel_file(k, path);
  kir::Kernel loaded = reg.resolve(path);
  EXPECT_EQ(oracle::kernel_digest(loaded), oracle::kernel_digest(k));
  // Registered under its kernel name afterwards.
  EXPECT_TRUE(reg.contains(k.name));
  std::remove(path.c_str());
}

TEST(Registry, AddDirectoryRegistersSortedJsonFiles) {
  Registry reg;
  const std::string dir = ::testing::TempDir() + "reg_dir_kernels";
  std::filesystem::create_directories(dir);
  kernels::GeneratorConfig cfg;
  for (std::uint64_t seed = 10; seed < 13; ++seed)
    frontend::save_kernel_file(kernels::generate(cfg, seed),
                               dir + "/k" + std::to_string(seed) + ".json");
  std::ofstream(dir + "/notes.txt") << "ignored";
  auto names = reg.add_directory(dir);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(reg.names(Provenance::kFile).size(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(Registry, AddRejectsInvalidKernels) {
  Registry reg;
  kir::Kernel k = Registry::global().get("aes");
  k.loops[0].trip_count = -1;
  EXPECT_THROW(reg.add(std::move(k), Provenance::kGenerated),
               std::invalid_argument);
}

TEST(Registry, EmptyRegistryMissMentionsFileHint) {
  Registry reg;
  try {
    reg.get("anything");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(".json"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace gnndse

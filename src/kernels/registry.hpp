// The kernel registry: one lookup for every way a kernel can exist.
//
// Kernels used to come exclusively from two hand-coded string-switch
// factories (make_kernel / make_extension_kernel), which capped the system
// at the 19 compiled-in benchmarks. The registry unifies four sources
// behind a single name -> kernel mapping with provenance:
//   * builtin    — the 13 DAC'22 training + unseen kernels (src/kernels/),
//   * extension  — the 6 post-paper kernels (kernels_extension.cpp),
//   * file       — JSON loop-nest descriptions parsed by src/frontend/
//                  (no recompile needed),
//   * generated  — seeded random kernels from kernels::generate().
//
// Lookups that miss throw std::invalid_argument listing near-miss names
// (edit distance) and the available sources, instead of the old bare
// "unknown kernel". All methods are thread-safe.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kir/kernel.hpp"

namespace gnndse::kernels {

enum class Provenance { kBuiltin, kExtension, kFile, kGenerated };

/// "builtin" / "extension" / "file" / "generated".
const char* provenance_name(Provenance p);

struct KernelEntry {
  kir::Kernel kernel;
  Provenance provenance = Provenance::kBuiltin;
  /// Where the kernel came from: empty for compiled-in kernels, the source
  /// path for file kernels, "seed=<n>" for generated ones.
  std::string origin;
};

class Registry {
 public:
  /// An empty registry (no built-ins); mainly for tests.
  Registry() = default;

  /// The process-wide registry, pre-seeded with the 13 builtin and 6
  /// extension kernels.
  static Registry& global();

  /// Registers (or replaces, same name) a validated kernel.
  void add(kir::Kernel kernel, Provenance provenance, std::string origin = "");

  /// Parses `path` with the text frontend and registers the result under
  /// its own name with Provenance::kFile. Returns the kernel name.
  std::string add_file(const std::string& path);

  /// Registers every "*.json" file in `dir` (non-recursive, sorted order).
  /// Returns the names registered; throws if the directory cannot be read
  /// or any file fails to parse/validate.
  std::vector<std::string> add_directory(const std::string& dir);

  bool contains(const std::string& name) const;

  /// Entry lookup; throws std::invalid_argument with near-miss suggestions
  /// and a source summary when `name` is unknown.
  KernelEntry entry(const std::string& name) const;

  /// Kernel lookup (copy); same error contract as entry().
  kir::Kernel get(const std::string& name) const;

  /// Like get(), but a name that looks like a file path (contains '/' or
  /// ends in ".json") is loaded and registered first — this is what lets
  /// `gnndse dse my_kernel.json` run with no recompile.
  kir::Kernel resolve(const std::string& name_or_path);

  /// All registered names in registration order, optionally restricted to
  /// one provenance.
  std::vector<std::string> names() const;
  std::vector<std::string> names(Provenance p) const;

  std::size_t size() const;

 private:
  KernelEntry entry_locked(const std::string& name) const;

  mutable std::mutex mu_;
  std::vector<std::string> order_;
  std::map<std::string, KernelEntry> entries_;
};

}  // namespace gnndse::kernels

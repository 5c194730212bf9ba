// Extension kernels beyond the DAC'22 evaluation — the paper's future-work
// direction of covering more domains (§6). Usable anywhere the core suite
// is: database generation, training, DSE. The registry seeds itself from
// detail::extension_factories(); look the kernels up there
// (Registry::global().names(Provenance::kExtension)).
#pragma once

#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "kir/kernel.hpp"

namespace gnndse::kernels {

namespace detail {
/// The 6 extension kernel constructors, declaration order.
const std::vector<NamedFactory>& extension_factories();
}  // namespace detail

}  // namespace gnndse::kernels

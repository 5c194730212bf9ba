#include "hlssim/config.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace gnndse::hlssim {

const char* to_string(PipeMode m) {
  switch (m) {
    case PipeMode::kOff:
      return "off";
    case PipeMode::kCoarse:
      return "cg";
    case PipeMode::kFine:
      return "fg";
  }
  return "?";
}

std::string DesignConfig::key() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (i) oss << ';';
    oss << 'L' << i << ':' << to_string(loops[i].pipeline) << '/'
        << loops[i].parallel << '/' << loops[i].tile;
  }
  return oss.str();
}

namespace {

/// Parses a whole field as a factor >= 1; throws on anything else.
std::int64_t parse_factor(std::string_view field, const std::string& part) {
  std::int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), v);
  if (ec != std::errc() || end != field.data() + field.size() || v < 1)
    throw std::invalid_argument("bad factor in config key segment: " + part);
  return v;
}

}  // namespace

DesignConfig parse_config_key(const std::string& key) {
  DesignConfig cfg;
  if (key.empty()) return cfg;
  std::istringstream iss(key);
  std::string part;
  while (std::getline(iss, part, ';')) {
    const std::string label = 'L' + std::to_string(cfg.loops.size()) + ':';
    if (part.compare(0, label.size(), label) != 0)
      throw std::invalid_argument("bad config key segment: " + part +
                                  " (expected label " + label + ")");
    const auto colon = label.size() - 1;
    const auto s1 = part.find('/', colon);
    const auto s2 = s1 == std::string::npos ? s1 : part.find('/', s1 + 1);
    if (s2 == std::string::npos)
      throw std::invalid_argument("bad config key segment: " + part);
    LoopConfig lc;
    const std::string mode = part.substr(colon + 1, s1 - colon - 1);
    if (mode == "off")
      lc.pipeline = PipeMode::kOff;
    else if (mode == "cg")
      lc.pipeline = PipeMode::kCoarse;
    else if (mode == "fg")
      lc.pipeline = PipeMode::kFine;
    else
      throw std::invalid_argument("bad pipeline mode: " + mode);
    const std::string_view view(part);
    lc.parallel = parse_factor(view.substr(s1 + 1, s2 - s1 - 1), part);
    lc.tile = parse_factor(view.substr(s2 + 1), part);
    cfg.loops.push_back(lc);
  }
  if (key.back() == ';')
    throw std::invalid_argument("bad config key: trailing ';'");
  return cfg;
}

}  // namespace gnndse::hlssim

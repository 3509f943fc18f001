#include "src/middleware/r2f.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace harl::mw {

namespace {
constexpr char kHeader[] = "harl-r2f-v1";
}

RegionFileMap RegionFileMap::for_file(const std::string& logical_name,
                                      std::size_t region_count) {
  if (logical_name.empty()) throw std::invalid_argument("empty logical name");
  if (region_count == 0) throw std::invalid_argument("R2F needs >= 1 region");
  RegionFileMap map;
  map.logical_ = logical_name;
  map.physical_.reserve(region_count);
  const std::string stem = logical_name + ".r";
  for (std::size_t i = 0; i < region_count; ++i) {
    map.physical_.push_back(stem + std::to_string(i));
  }
  return map;
}

void RegionFileMap::save(std::ostream& os) const {
  os << kHeader << '\n' << logical_ << '\n';
  for (const auto& name : physical_) os << name << '\n';
}

RegionFileMap RegionFileMap::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::runtime_error("bad R2F header");
  }
  RegionFileMap map;
  if (!std::getline(is, map.logical_) || map.logical_.empty()) {
    throw std::runtime_error("R2F missing logical name");
  }
  while (std::getline(is, line)) {
    if (!line.empty()) map.physical_.push_back(line);
  }
  if (map.physical_.empty()) throw std::runtime_error("R2F has no regions");
  return map;
}

}  // namespace harl::mw

// Region-to-file mapping (paper Section III-G).
//
// HARL's Placing Phase maps each logical file region onto a separate
// physical PFS file so that each region can be striped with its own sizes.
// The R2F table records the logical-region -> physical-file translation; it
// is stored next to the application (like the RST) and loaded at MPI_Init.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace harl::mw {

class RegionFileMap {
 public:
  RegionFileMap() = default;

  /// Canonical naming: "<logical>.r<k>" for region k.
  static RegionFileMap for_file(const std::string& logical_name,
                                std::size_t region_count);

  const std::string& logical_name() const { return logical_; }
  std::size_t region_count() const { return physical_.size(); }
  const std::string& physical(std::size_t region) const {
    return physical_.at(region);
  }

  /// Text serialization: header, logical name, then one physical name per line.
  void save(std::ostream& os) const;
  static RegionFileMap load(std::istream& is);

 private:
  std::string logical_;
  std::vector<std::string> physical_;
};

}  // namespace harl::mw

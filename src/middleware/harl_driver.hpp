// The HARL middleware driver (paper Section III-G).
//
// In the paper, RST and R2F are stored in the application's directory,
// loaded when MPI_Init() runs and unloaded at MPI_Finalize(); the MPI-IO
// read/write paths then forward requests to the per-region physical files.
// This driver is that glue: it persists a Plan's RST + R2F next to the
// application, and at "init time" rebuilds the region layout and registers
// it (and the per-region physical file names) with the cluster's MDS.
//
// Two persistence forms are supported: the paper-shaped pair of text files
// (`<name>.rst` + `<name>.r2f`) and the versioned single-file Plan artifact
// (`<name>.plan`, see core/plan_artifact.hpp) which additionally carries the
// tier table and calibration fingerprint so Analysis and Placing can run as
// separate processes with stale-plan detection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/plan_artifact.hpp"
#include "src/core/planner.hpp"
#include "src/middleware/r2f.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/region_layout.hpp"

namespace harl::mw {

class HarlDriver {
 public:
  /// Persists `plan`'s RST and the derived R2F as
  /// `<directory>/<logical_name>.rst` / `.r2f`.
  static void save(const std::string& directory,
                   const std::string& logical_name, const core::Plan& plan);

  /// Persists `plan` as the versioned binary artifact
  /// `<directory>/<logical_name>.plan`, with the R2F names embedded.
  static void save_plan(const std::string& directory,
                        const std::string& logical_name,
                        const core::Plan& plan);

  /// Loads previously-saved artifacts.
  static core::RegionStripeTable load_rst(const std::string& directory,
                                          const std::string& logical_name);
  static RegionFileMap load_r2f(const std::string& directory,
                                const std::string& logical_name);
  static core::PlanArtifact load_plan(const std::string& directory,
                                      const std::string& logical_name);

  /// MPI_Init-time installation: builds the region layout from `rst` over
  /// the cluster's tier topology and registers the logical file (plus each
  /// physical region file) at the MDS.  Returns the layout for use by a
  /// ProgramRunner.  Two-tier RSTs fall back to the (num_hservers,
  /// num_sservers) view when the cluster's tier list collapsed; any other
  /// tier mismatch throws.
  static std::shared_ptr<pfs::RegionLayout> install(
      const core::RegionStripeTable& rst, const std::string& logical_name,
      pfs::Cluster& cluster);

  /// Installs a loaded Plan artifact: validates its tier table against the
  /// cluster (throws std::runtime_error on mismatch), then installs its RST
  /// using the artifact's embedded R2F names when present.
  static std::shared_ptr<pfs::RegionLayout> install(
      const core::PlanArtifact& artifact, const std::string& logical_name,
      pfs::Cluster& cluster);

  /// load_rst + install in one step.
  static std::shared_ptr<pfs::RegionLayout> load_and_install(
      const std::string& directory, const std::string& logical_name,
      pfs::Cluster& cluster);
};

}  // namespace harl::mw

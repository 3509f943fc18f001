// Rank programs: the unit of work the simulated MPI world executes.
//
// A workload generator (IOR, BTIO, ...) compiles to one RankProgram per
// rank: a sequence of independent I/O, collective I/O, compute and barrier
// actions.  Collective actions synchronize by *sequence number* (a rank's
// k-th collective/barrier matches every other rank's k-th), which is exactly
// MPI's ordering rule for collective calls.
#pragma once

#include <stdexcept>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"

namespace harl::mw {

/// A contiguous logical-file byte range.
struct Extent {
  Bytes offset = 0;
  Bytes size = 0;

  friend bool operator==(const Extent&, const Extent&) = default;
};

struct IoAction {
  enum class Kind {
    kIo,            ///< independent read/write of one extent
    kCollectiveIo,  ///< two-phase collective I/O of this rank's extents
    kCompute,       ///< local computation for `compute` seconds
    kBarrier,       ///< synchronization only
  };

  Kind kind = Kind::kIo;
  IoOp op = IoOp::kRead;
  std::vector<Extent> extents;
  Seconds compute = 0.0;

  static IoAction io(IoOp op, Bytes offset, Bytes size) {
    IoAction a;
    a.kind = Kind::kIo;
    a.op = op;
    a.extents = {Extent{offset, size}};
    return a;
  }

  static IoAction collective(IoOp op, std::vector<Extent> extents) {
    IoAction a;
    a.kind = Kind::kCollectiveIo;
    a.op = op;
    a.extents = std::move(extents);
    return a;
  }

  static IoAction compute_for(Seconds duration) {
    if (duration < 0.0) throw std::invalid_argument("negative compute time");
    IoAction a;
    a.kind = Kind::kCompute;
    a.compute = duration;
    return a;
  }

  static IoAction barrier() {
    IoAction a;
    a.kind = Kind::kBarrier;
    return a;
  }

  friend bool operator==(const IoAction&, const IoAction&) = default;
};

using RankProgram = std::vector<IoAction>;

/// Total bytes a program moves, by operation.
struct ProgramVolume {
  Bytes read = 0;
  Bytes write = 0;
};

inline ProgramVolume program_volume(const std::vector<RankProgram>& programs) {
  ProgramVolume v;
  for (const auto& prog : programs) {
    for (const auto& action : prog) {
      if (action.kind != IoAction::Kind::kIo &&
          action.kind != IoAction::Kind::kCollectiveIo) {
        continue;
      }
      for (const auto& e : action.extents) {
        (action.op == IoOp::kRead ? v.read : v.write) += e.size;
      }
    }
  }
  return v;
}

}  // namespace harl::mw

// Executes rank programs against the simulated PFS.
//
// The runner is the simulated analogue of the MPI-IO layer: it opens the
// file at the MDS, drives each rank's action sequence through its node's PFS
// client, implements two-phase collective I/O (shuffle between compute
// nodes, then aggregated contiguous accesses by one aggregator per node),
// and optionally records every PFS-level request into a TraceCollector —
// exactly where the paper's IOSIG instrumentation sits.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/middleware/mpi_world.hpp"
#include "src/middleware/program.hpp"
#include "src/obs/sink.hpp"
#include "src/pfs/layout.hpp"
#include "src/trace/collector.hpp"

namespace harl::pfs {
class ReplicaMap;
}

namespace harl::mw {

struct CollectiveOptions {
  /// Collective buffer size (ROMIO cb_buffer_size): each aggregator (one
  /// per compute node, the ROMIO cb_nodes default) issues its file range in
  /// sequential rounds of at most this many bytes rather than as one giant
  /// request.  0 disables chunking.
  Bytes buffer_size = 16 * MiB;
};

struct RunnerOptions {
  CollectiveOptions collective;
  /// Consult the MDS's region stripe table for every independent request
  /// before issuing it (paper Section III-F: "MDSs look up the RST table
  /// according to the request's offset and length").  Default off = the
  /// layout is cached at open time, as real clients do; turning it on makes
  /// RST size a measurable cost (bench_ablation_metadata).
  bool per_request_metadata = false;
  /// Namespace FileId: attributes this runner's requests to one file of a
  /// multi-file population (telemetry labels, trace fd).  obs::kNoId keeps
  /// the legacy single-file outputs byte-identical.
  std::uint32_t file = obs::kNoId;
  /// Replica placement for this file (owned by the caller, must outlive the
  /// runner).  When set, writes also land on each sub-request's replica and
  /// reads fail over to it once the primary's server has failed.
  const pfs::ReplicaMap* replicas = nullptr;
};

struct RunResult {
  Seconds makespan = 0.0;   ///< launch to simulator quiescence
  Bytes bytes_read = 0;     ///< application-level bytes
  Bytes bytes_written = 0;
  /// Simulated instant the launch's last rank finished.  Equals launch start
  /// + makespan for a solo run with no trailing background work; under a
  /// shared multi-file simulator run it is this file's own completion, while
  /// makespan spans the whole drain.
  Seconds completed_at = 0.0;

  double read_throughput() const {
    return makespan > 0.0 ? static_cast<double>(bytes_read) / makespan : 0.0;
  }
  double write_throughput() const {
    return makespan > 0.0 ? static_cast<double>(bytes_written) / makespan : 0.0;
  }
  double total_throughput() const {
    return makespan > 0.0
               ? static_cast<double>(bytes_read + bytes_written) / makespan
               : 0.0;
  }
};

namespace detail {
struct RunState;
}

class ProgramRunner {
 public:
  /// Registers `file_name` with `layout` at the cluster's MDS.  `collector`
  /// (optional) receives one record per PFS-level request.
  ProgramRunner(MpiWorld& world, std::string file_name,
                std::shared_ptr<const pfs::Layout> layout,
                trace::TraceCollector* collector = nullptr,
                RunnerOptions options = {});

  /// Convenience overload for callers that only tune collective I/O.
  ProgramRunner(MpiWorld& world, std::string file_name,
                std::shared_ptr<const pfs::Layout> layout,
                trace::TraceCollector* collector, CollectiveOptions collective)
      : ProgramRunner(world, std::move(file_name), std::move(layout),
                      collector, RunnerOptions{collective, false}) {}

  /// Runs one program per rank to completion (programs.size() must equal
  /// the world size) and returns the aggregate result.  May be called
  /// repeatedly; simulated time carries forward, makespan is per-call.
  RunResult run(const std::vector<RankProgram>& programs);

  /// A program set scheduled onto the shared simulator but not yet drained.
  /// Several runners — one per file of a namespace — can each launch() onto
  /// the same cluster, then a single Simulator::run() interleaves all their
  /// traffic; finish() harvests each file's result afterwards.
  struct Launch {
    std::shared_ptr<detail::RunState> state;
    Seconds start = 0.0;
  };

  /// Schedules the MPI_File_open fan-out and the rank programs.  The
  /// programs are compiled into one flat array of fixed-size op records
  /// (each rank's a contiguous slice; collective extents in one shared
  /// pool), so the caller's vector need not outlive the launch.  No
  /// simulated time elapses until the caller runs the simulator.  Throws
  /// std::invalid_argument for an independent I/O action without exactly
  /// one extent.
  Launch launch(const std::vector<RankProgram>& programs);

  /// Harvests the result of a drained launch.  Throws std::logic_error if
  /// any rank has not finished (deadlock / simulator not run to quiescence).
  RunResult finish(const Launch& launch) const;

 private:
  MpiWorld& world_;
  std::string file_name_;
  std::shared_ptr<const pfs::Layout> layout_;
  trace::TraceCollector* collector_;
  RunnerOptions options_;
};

}  // namespace harl::mw

#include "src/middleware/runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/interval.hpp"
#include "src/pfs/replication.hpp"
#include "src/sim/resource.hpp"

namespace harl::mw {

namespace detail {

/// One compiled action of a rank program: 24 bytes with no heap block of
/// its own.  A collective's extents live in RunState::extents.
struct OpRecord {
  union {
    Bytes offset;       ///< kIo: request offset
    std::size_t first;  ///< kCollectiveIo: first index in RunState::extents
    Seconds compute;    ///< kCompute: duration
  };
  Bytes size;  ///< kIo: request size; kCollectiveIo: extent count
  IoAction::Kind kind;
  IoOp op;
};
static_assert(sizeof(OpRecord) == 24);

/// Mutable execution state shared by all in-flight callbacks of one launch.
/// The runner's layout (shared_ptr member) and world outlive the simulator
/// drain; the programs are compiled at launch, so a launch() caller's vector
/// may die.
struct RunState {
  MpiWorld& world;
  const pfs::Layout& layout;
  trace::TraceCollector* collector;
  Bytes cb_buffer_size;
  bool per_request_metadata;
  std::uint32_t file;
  const pfs::ReplicaMap* replicas;
  std::string file_name;

  // The compiled programs: rank r's ops are ops[first[r] .. first[r + 1]),
  // in program order.  Neither vector grows after construction, so record
  // pointers stay valid for the whole launch.
  std::vector<OpRecord> ops;
  std::vector<std::size_t> first;
  std::vector<Extent> extents;  // every collective's extents, in op order

  std::vector<std::size_t> pc;        // per-rank index of its next op in ops
  std::vector<std::size_t> sync_seq;  // per-rank sync points passed
  std::vector<char> rank_done;        // per-rank completion latch
  std::size_t ranks_done = 0;
  Seconds completed_at = 0.0;  // instant the last rank finished

  struct SyncPoint {
    std::size_t arrived = 0;
    std::vector<const OpRecord*> ops;  // indexed by rank
  };
  std::map<std::size_t, SyncPoint> syncs;

  Bytes bytes_read = 0;
  Bytes bytes_written = 0;

  RunState(MpiWorld& w, const std::vector<RankProgram>& programs,
           const pfs::Layout& l, trace::TraceCollector* c,
           const RunnerOptions& opts, std::string name)
      : world(w),
        layout(l),
        collector(c),
        cb_buffer_size(opts.collective.buffer_size),
        per_request_metadata(opts.per_request_metadata),
        file(opts.file),
        replicas(opts.replicas),
        file_name(std::move(name)),
        sync_seq(programs.size(), 0),
        rank_done(programs.size(), 0) {
    std::size_t nops = 0;
    for (const auto& prog : programs) nops += prog.size();
    ops.reserve(nops);  // one allocation of the final size
    first.reserve(programs.size() + 1);
    for (const auto& prog : programs) {
      first.push_back(ops.size());
      for (const auto& action : prog) ops.push_back(compile(action));
    }
    first.push_back(ops.size());
    pc.assign(first.begin(), first.end() - 1);
  }

  std::size_t ranks() const { return pc.size(); }
  bool finished(std::size_t rank) const { return pc[rank] >= first[rank + 1]; }

  std::span<const Extent> extents_of(const OpRecord& rec) const {
    return std::span(extents).subspan(rec.first, rec.size);
  }

  sim::Simulator& sim() { return world.cluster().simulator(); }

  void account(IoOp op, Bytes size) {
    (op == IoOp::kRead ? bytes_read : bytes_written) += size;
  }

  void trace_request(std::uint32_t rank, IoOp op, Bytes offset, Bytes size,
                     Seconds t_start) {
    if (collector != nullptr) {
      // The FileId doubles as the trace fd, so multi-file traces keep their
      // per-file request streams separable (fd 0 = legacy single file).
      const std::uint32_t fd = file == obs::kNoId ? 0 : file;
      collector->record(rank, fd, op, offset, size, t_start, sim().now());
    }
  }

 private:
  OpRecord compile(const IoAction& action) {
    OpRecord rec{};
    rec.kind = action.kind;
    rec.op = action.op;
    switch (action.kind) {
      case IoAction::Kind::kIo:
        // Only one extent would be issued, while program_volume() counts
        // them all.
        if (action.extents.size() != 1) {
          throw std::invalid_argument(
              "independent I/O action needs one extent, has " +
              std::to_string(action.extents.size()));
        }
        rec.offset = action.extents.front().offset;
        rec.size = action.extents.front().size;
        break;
      case IoAction::Kind::kCollectiveIo:
        rec.first = extents.size();
        rec.size = action.extents.size();
        extents.insert(extents.end(), action.extents.begin(),
                       action.extents.end());
        break;
      case IoAction::Kind::kCompute:
        rec.compute = action.compute;
        break;
      case IoAction::Kind::kBarrier:
        break;
    }
    return rec;
  }
};

}  // namespace detail

namespace {

using detail::OpRecord;
using detail::RunState;

void step(const std::shared_ptr<RunState>& st, std::size_t rank);

void advance(const std::shared_ptr<RunState>& st, std::size_t rank) {
  ++st->pc[rank];
  step(st, rank);
}

/// Issues one aggregator's contiguous range as sequential rounds of at most
/// cb_buffer_size bytes (ROMIO collective buffering), tracing each round.
void issue_aggregator_rounds(const std::shared_ptr<RunState>& st,
                             std::size_t agg_rank, IoOp op, Bytes offset,
                             Bytes remaining,
                             const std::shared_ptr<sim::JoinCounter>& join) {
  const Bytes take = st->cb_buffer_size == 0
                         ? remaining
                         : std::min(remaining, st->cb_buffer_size);
  const Seconds t0 = st->sim().now();
  st->world.client_of(agg_rank)
      .io(st->layout, op, offset, take,
          [st, agg_rank, op, offset, take, remaining, join, t0] {
            st->trace_request(static_cast<std::uint32_t>(agg_rank), op, offset,
                              take, t0);
            if (remaining > take) {
              issue_aggregator_rounds(st, agg_rank, op, offset + take,
                                      remaining - take, join);
            } else {
              join->done();
            }
          },
          st->file, st->replicas);
}

/// Two-phase collective I/O over the ops gathered at one sync point.
void run_collective(const std::shared_ptr<RunState>& st,
                    const std::vector<const OpRecord*>& ops) {
  const std::size_t nranks = st->ranks();
  const IoOp op = ops.front()->op;
  for (const auto* rec : ops) {
    if (rec->op != op) {
      throw std::logic_error("collective ops disagree on read/write");
    }
  }

  // Aggregate file range across all ranks.
  Bytes lo = ~static_cast<Bytes>(0);
  Bytes hi = 0;
  Bytes app_bytes = 0;
  for (const auto* rec : ops) {
    for (const auto& e : st->extents_of(*rec)) {
      if (e.size == 0) continue;
      lo = std::min(lo, e.offset);
      hi = std::max(hi, e.offset + e.size);
      app_bytes += e.size;
    }
  }
  auto release_all = [st] {
    for (std::size_t r = 0; r < st->ranks(); ++r) advance(st, r);
  };
  if (app_bytes == 0) {
    st->sim().schedule_after(0.0, release_all);
    return;
  }
  st->account(op, app_bytes);

  // One aggregator per compute node (ranks 0..A-1 land on distinct nodes
  // under round-robin placement).
  const std::size_t A = std::min(st->world.cluster().num_clients(), nranks);
  const Bytes span = hi - lo;
  const Bytes base = span / A;
  const Bytes rem = span % A;
  struct AggRange {
    std::size_t rank;
    Bytes offset;
    Bytes size;
  };
  std::vector<AggRange> ranges;
  Bytes cursor = lo;
  for (std::size_t a = 0; a < A; ++a) {
    const Bytes size = base + (a < rem ? 1 : 0);
    if (size > 0) ranges.push_back(AggRange{a, cursor, size});
    cursor += size;
  }

  // Shuffle volumes: bytes rank r contributes to / receives from each
  // aggregator range.
  std::vector<std::vector<Bytes>> volume(nranks,
                                         std::vector<Bytes>(ranges.size(), 0));
  for (std::size_t r = 0; r < nranks; ++r) {
    for (const auto& e : st->extents_of(*ops[r])) {
      const ByteInterval ext = interval_of(e.offset, e.size);
      for (std::size_t a = 0; a < ranges.size(); ++a) {
        volume[r][a] +=
            intersect(ext, interval_of(ranges[a].offset, ranges[a].size))
                .length();
      }
    }
  }

  auto& network = st->world.cluster().network();

  auto do_phase2 = [st, ranges, op, release_all] {
    auto join = std::make_shared<sim::JoinCounter>(ranges.size(), release_all);
    for (const auto& range : ranges) {
      issue_aggregator_rounds(st, range.rank, op, range.offset, range.size,
                              join);
    }
  };

  auto do_shuffle = [st, volume, ranges, &network](std::function<void()> next) {
    std::size_t transfers = 0;
    for (std::size_t r = 0; r < volume.size(); ++r) {
      for (std::size_t a = 0; a < ranges.size(); ++a) {
        if (volume[r][a] > 0 &&
            st->world.node_of(r) != st->world.node_of(ranges[a].rank)) {
          ++transfers;
        }
      }
    }
    if (transfers == 0) {
      st->sim().schedule_after(0.0, std::move(next));
      return;
    }
    auto join = std::make_shared<sim::JoinCounter>(transfers, std::move(next));
    for (std::size_t r = 0; r < volume.size(); ++r) {
      for (std::size_t a = 0; a < ranges.size(); ++a) {
        if (volume[r][a] == 0) continue;
        const std::size_t src = st->world.node_of(r);
        const std::size_t dst = st->world.node_of(ranges[a].rank);
        if (src == dst) continue;
        network.client_transfer(src, dst, volume[r][a],
                                [join] { join->done(); });
      }
    }
  };

  if (op == IoOp::kWrite) {
    // Exchange data to aggregators, then aggregated writes.
    do_shuffle(do_phase2);
  } else {
    // Aggregated reads, then scatter to ranks.  Reuse the shuffle volumes
    // (direction reverses but the byte counts are identical).
    auto join = std::make_shared<sim::JoinCounter>(
        ranges.size(), [do_shuffle, release_all] { do_shuffle(release_all); });
    for (const auto& range : ranges) {
      issue_aggregator_rounds(st, range.rank, op, range.offset, range.size,
                              join);
    }
  }
}

void resolve_sync(const std::shared_ptr<RunState>& st, std::size_t seq) {
  auto node = st->syncs.extract(seq);
  const auto& ops = node.mapped().ops;

  const bool any_collective =
      std::any_of(ops.begin(), ops.end(), [](const OpRecord* rec) {
        return rec->kind == IoAction::Kind::kCollectiveIo;
      });
  if (!any_collective) {
    // Pure barrier: release everyone on the next event-loop turn.
    st->sim().schedule_after(0.0, [st] {
      for (std::size_t r = 0; r < st->ranks(); ++r) advance(st, r);
    });
    return;
  }
  for (const auto* rec : ops) {
    if (rec->kind != IoAction::Kind::kCollectiveIo) {
      throw std::logic_error("sync point mixes barrier and collective I/O");
    }
  }
  run_collective(st, ops);
}

void step(const std::shared_ptr<RunState>& st, std::size_t rank) {
  if (st->finished(rank)) {
    if (!st->rank_done[rank]) {
      st->rank_done[rank] = 1;
      if (++st->ranks_done == st->ranks()) {
        st->completed_at = st->sim().now();
      }
    }
    return;
  }
  const OpRecord& rec = st->ops[st->pc[rank]];

  switch (rec.kind) {
    case IoAction::Kind::kCompute:
      st->sim().schedule_after(rec.compute, [st, rank] { advance(st, rank); });
      return;

    case IoAction::Kind::kIo: {
      const Extent e{rec.offset, rec.size};
      const IoOp op = rec.op;
      st->account(op, e.size);
      const Seconds t0 = st->sim().now();
      auto issue = [st, rank, op, e, t0] {
        st->world.client_of(rank).io(
            st->layout, op, e.offset, e.size,
            [st, rank, op, e, t0] {
              st->trace_request(static_cast<std::uint32_t>(rank), op, e.offset,
                                e.size, t0);
              advance(st, rank);
            },
            st->file, st->replicas);
      };
      if (st->per_request_metadata) {
        // Placement resolution: the MDS consults the RST for this request.
        st->world.cluster().mds().placement_lookup(
            st->file_name,
            [issue = std::move(issue)](std::shared_ptr<const pfs::Layout>) {
              issue();
            });
      } else {
        issue();
      }
      return;
    }

    case IoAction::Kind::kBarrier:
    case IoAction::Kind::kCollectiveIo: {
      const std::size_t seq = st->sync_seq[rank]++;
      auto& sp = st->syncs[seq];
      if (sp.ops.empty()) sp.ops.resize(st->ranks(), nullptr);
      sp.ops[rank] = &rec;
      if (++sp.arrived == st->ranks()) resolve_sync(st, seq);
      return;
    }
  }
}

}  // namespace

ProgramRunner::ProgramRunner(MpiWorld& world, std::string file_name,
                             std::shared_ptr<const pfs::Layout> layout,
                             trace::TraceCollector* collector,
                             RunnerOptions options)
    : world_(world),
      file_name_(std::move(file_name)),
      layout_(std::move(layout)),
      collector_(collector),
      options_(options) {
  if (!layout_) throw std::invalid_argument("runner needs a layout");
  world_.cluster().mds().register_file(file_name_, layout_);
}

ProgramRunner::Launch ProgramRunner::launch(
    const std::vector<RankProgram>& programs) {
  if (programs.size() != world_.size()) {
    throw std::invalid_argument("one program per rank required");
  }
  auto& sim = world_.cluster().simulator();

  Launch launch;
  launch.start = sim.now();
  launch.state = std::make_shared<RunState>(world_, programs, *layout_,
                                            collector_, options_, file_name_);
  const auto& st = launch.state;

  // MPI_File_open: every compute node resolves the file at the MDS once,
  // then all ranks start.
  const std::size_t nodes = world_.cluster().num_clients();
  auto open_join = std::make_shared<sim::JoinCounter>(nodes, [st] {
    for (std::size_t r = 0; r < st->ranks(); ++r) step(st, r);
  });
  for (std::size_t nodeidx = 0; nodeidx < nodes; ++nodeidx) {
    world_.cluster().mds().lookup(
        file_name_, [open_join](std::shared_ptr<const pfs::Layout>) {
          open_join->done();
        });
  }
  return launch;
}

RunResult ProgramRunner::finish(const Launch& launch) const {
  const auto& st = launch.state;
  if (!st) throw std::logic_error("finish() of an empty launch");

  // The advance past a rank's final op leaves its pc at its end.
  for (std::size_t r = 0; r < st->ranks(); ++r) {
    if (!st->finished(r)) {
      throw std::logic_error("rank deadlocked: mismatched sync points?");
    }
  }

  RunResult result;
  result.makespan = world_.cluster().simulator().now() - launch.start;
  result.completed_at = st->completed_at;
  result.bytes_read = st->bytes_read;
  result.bytes_written = st->bytes_written;
  return result;
}

RunResult ProgramRunner::run(const std::vector<RankProgram>& programs) {
  Launch launch = this->launch(programs);
  world_.cluster().simulator().run();
  return finish(launch);
}

}  // namespace harl::mw

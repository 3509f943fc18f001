#include "src/pfs/client.hpp"

#include <stdexcept>
#include <utility>

#include "src/pfs/cache_manager.hpp"
#include "src/pfs/replication.hpp"

namespace harl::pfs {

Client::Client(sim::Simulator& sim, net::Network& network,
               std::vector<DataServer*> servers, std::size_t id)
    : sim_(sim), network_(network), servers_(std::move(servers)), id_(id) {
  if (servers_.empty()) throw std::invalid_argument("client needs servers");
}

void Client::attach_observer() {
  if (obs::Sink* obs = sim_.observer(); obs != nullptr) {
    obs->register_client(static_cast<std::uint32_t>(id_));
    observed_ = true;
  }
}

void Client::io(const Layout& layout, IoOp op, Bytes offset, Bytes size,
                sim::InlineTask on_complete, std::uint32_t file,
                const ReplicaMap* replicas) {
  ++requests_issued_;
  if (size == 0) {
    sim_.schedule_after(0.0, std::move(on_complete));
    return;
  }
  if (replicas != nullptr) [[unlikely]] {
    obs::Sink* obs = observed_ ? sim_.observer() : nullptr;
    io_replicated(obs, layout, op, offset, size, std::move(on_complete), file,
                  *replicas);
    return;
  }
  if (obs::Sink* obs = sim_.observer(); obs != nullptr && observed_)
      [[unlikely]] {
    io_observed(*obs, layout, op, offset, size, std::move(on_complete), file);
    return;
  }
  if (cache_ != nullptr && cache_->enabled()) [[unlikely]] {
    // The cache fronts the whole file request: hits read from the cache
    // devices, miss runs map through the layout inside the manager.
    if (op == IoOp::kRead) {
      auto join =
          std::make_shared<sim::JoinCounter>(1, std::move(on_complete));
      cache_->issue_read(id_, layout, offset, size, join, nullptr, obs::kNoId,
                         file);
      return;
    }
    cache_->invalidate(offset, size, file);
  }
  auto subs = layout.map(offset, size);
  if (subs.empty()) throw std::logic_error("layout mapped request to nothing");
  auto join =
      std::make_shared<sim::JoinCounter>(subs.size(), std::move(on_complete));
  for (const auto& sub : subs) {
    if (sub.server >= servers_.size()) {
      throw std::out_of_range("layout references unknown server");
    }
    if (op == IoOp::kRead) {
      issue_read(sub, join);
    } else {
      issue_write(op, sub, join);
    }
  }
}

void Client::issue_read(const SubRequest& sub,
                        const std::shared_ptr<sim::JoinCounter>& join) {
  DataServer& server = *servers_[sub.server];
  const std::size_t server_idx = sub.server;
  const Bytes bytes = sub.size;
  server.submit(IoOp::kRead, sub.object, sub.server_offset, bytes, sub.pieces,
                [this, server_idx, bytes, join] {
                  network_.transfer(id_, server_idx, bytes,
                                    net::Direction::kServerToClient,
                                    [join] { join->done(); });
                });
}

void Client::issue_write(IoOp op, const SubRequest& sub,
                         const std::shared_ptr<sim::JoinCounter>& join) {
  // Packed continuation: capturing the whole SubRequest would overflow
  // InlineTask's in-place buffer, so only the fields the server needs ride
  // along (52 bytes — the sizing case for InlineTask::kCapacity).
  struct SubmitAfterTransfer {
    DataServer* server;
    Bytes server_offset;
    Bytes size;
    std::shared_ptr<sim::JoinCounter> join;
    std::uint32_t object;
    std::uint32_t pieces;
    IoOp op;
    void operator()() {
      server->submit(op, object, server_offset, size, pieces,
                     [join = std::move(join)] { join->done(); });
    }
  };
  network_.transfer(
      id_, sub.server, sub.size, net::Direction::kClientToServer,
      SubmitAfterTransfer{servers_[sub.server], sub.server_offset, sub.size,
                          join, sub.object,
                          static_cast<std::uint32_t>(sub.pieces), op});
}

void Client::issue_read_observed(const SubRequest& sub,
                                 const std::shared_ptr<sim::JoinCounter>& join,
                                 std::uint32_t osub) {
  DataServer& server = *servers_[sub.server];
  const std::size_t server_idx = sub.server;
  const Bytes bytes = sub.size;
  server.submit(
      IoOp::kRead, sub.object, sub.server_offset, bytes, sub.pieces,
      [this, server_idx, bytes, osub, join] {
        network_.transfer(id_, server_idx, bytes,
                          net::Direction::kServerToClient,
                          [this, osub, join] {
                            sim_.observer()->sub_net_done(osub, sim_.now());
                            join->done();
                          });
      },
      osub);
}

void Client::issue_write_observed(IoOp op, const SubRequest& sub,
                                  const std::shared_ptr<sim::JoinCounter>& join,
                                  std::uint32_t osub) {
  struct SubmitAfterTransferObs {
    DataServer* server;
    Bytes server_offset;
    Bytes size;
    std::shared_ptr<sim::JoinCounter> join;
    std::uint32_t object;
    std::uint32_t pieces;
    IoOp op;
    std::uint32_t obs_sub;
    void operator()() {
      server->submit(
          op, object, server_offset, size, pieces,
          [join = std::move(join)] { join->done(); }, obs_sub);
    }
  };
  network_.transfer(id_, sub.server, sub.size, net::Direction::kClientToServer,
                    SubmitAfterTransferObs{
                        servers_[sub.server], sub.server_offset, sub.size,
                        join, sub.object,
                        static_cast<std::uint32_t>(sub.pieces), op, osub});
}

void Client::io_observed(obs::Sink& obs, const Layout& layout, IoOp op,
                         Bytes offset, Bytes size, sim::InlineTask on_complete,
                         std::uint32_t file) {
  // Cold mirror of io()/issue_read()/issue_write(): same data path, plus
  // request/sub-request attribution hooks.  The extra captures may spill
  // some lambdas past InlineTask's in-place buffer; only enabled runs pay.
  const bool cached = cache_ != nullptr && cache_->enabled();
  if (cached && op == IoOp::kRead) {
    // The cache splits the request into per-piece sub attributions (hit
    // spans on cache devices, miss runs on the home servers), so only the
    // request-level bracket lives here.
    const std::uint32_t req = obs.begin_request(
        static_cast<std::uint32_t>(id_), op, offset, size, sim_.now(), file);
    auto join = std::make_shared<sim::JoinCounter>(
        1, [this, req, done = std::move(on_complete)]() mutable {
          sim_.observer()->end_request(req, sim_.now());
          done();
        });
    cache_->issue_read(id_, layout, offset, size, join, &obs, req, file);
    return;
  }
  if (cached) cache_->invalidate(offset, size, file);
  auto subs = layout.map(offset, size);
  if (subs.empty()) throw std::logic_error("layout mapped request to nothing");
  const std::uint32_t req = obs.begin_request(
      static_cast<std::uint32_t>(id_), op, offset, size, sim_.now(), file);
  auto join = std::make_shared<sim::JoinCounter>(
      subs.size(), [this, req, done = std::move(on_complete)]() mutable {
        sim_.observer()->end_request(req, sim_.now());
        done();
      });
  for (const auto& sub : subs) {
    if (sub.server >= servers_.size()) {
      throw std::out_of_range("layout references unknown server");
    }
    const std::uint32_t osub =
        obs.begin_sub(req, sub.server, sub.object, sim_.now());
    if (op == IoOp::kRead) {
      issue_read_observed(sub, join, osub);
    } else {
      issue_write_observed(op, sub, join, osub);
    }
  }
}

void Client::io_replicated(obs::Sink* obs, const Layout& layout, IoOp op,
                           Bytes offset, Bytes size,
                           sim::InlineTask on_complete, std::uint32_t file,
                           const ReplicaMap& replicas) {
  // Replicated traffic bypasses the read cache: after a failure the cache's
  // fill sources may include the failed server, and rebuild writes do not
  // flow through Client::io's invalidation hook — routing around the cache
  // keeps the degraded path self-consistent.
  auto subs = layout.map(offset, size);
  if (subs.empty()) throw std::logic_error("layout mapped request to nothing");
  const Seconds now = sim_.now();
  std::size_t expected = 0;
  for (const auto& sub : subs) {
    if (sub.server >= servers_.size()) {
      throw std::out_of_range("layout references unknown server");
    }
    // Reads: one completion per sub (primary or its replica stand-in).
    // Writes: primary + replica copies, minus the failed primary.
    if (op == IoOp::kRead) {
      expected += 1;
    } else {
      expected += servers_[sub.server]->failed(now) ? 1 : 2;
    }
  }
  std::uint32_t req = obs::kNoId;
  std::shared_ptr<sim::JoinCounter> join;
  if (obs != nullptr) {
    req = obs->begin_request(static_cast<std::uint32_t>(id_), op, offset, size,
                             now, file);
    join = std::make_shared<sim::JoinCounter>(
        expected, [this, req, done = std::move(on_complete)]() mutable {
          sim_.observer()->end_request(req, sim_.now());
          done();
        });
  } else {
    join =
        std::make_shared<sim::JoinCounter>(expected, std::move(on_complete));
  }
  for (const auto& sub : subs) {
    const bool primary_failed = servers_[sub.server]->failed(now);
    if (op == IoOp::kRead) {
      SubRequest target = sub;
      if (primary_failed) {
        target = replicas.replica_of(sub);
        if (target.server >= servers_.size()) {
          throw std::out_of_range("replica map references unknown server");
        }
        ++degraded_reads_;
      }
      if (obs != nullptr) {
        const std::uint32_t osub =
            obs->begin_sub(req, static_cast<std::uint32_t>(target.server),
                           target.object, sim_.now());
        issue_read_observed(target, join, osub);
      } else {
        issue_read(target, join);
      }
      continue;
    }
    const SubRequest replica = replicas.replica_of(sub);
    if (replica.server >= servers_.size()) {
      throw std::out_of_range("replica map references unknown server");
    }
    ++replica_writes_;
    if (!primary_failed) {
      if (obs != nullptr) {
        const std::uint32_t osub =
            obs->begin_sub(req, static_cast<std::uint32_t>(sub.server),
                           sub.object, sim_.now());
        issue_write_observed(op, sub, join, osub);
      } else {
        issue_write(op, sub, join);
      }
    }
    if (obs != nullptr) {
      const std::uint32_t osub =
          obs->begin_sub(req, static_cast<std::uint32_t>(replica.server),
                         replica.object, sim_.now());
      issue_write_observed(op, replica, join, osub);
    } else {
      issue_write(op, replica, join);
    }
  }
}

}  // namespace harl::pfs

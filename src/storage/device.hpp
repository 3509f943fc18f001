// Abstract storage device model.
//
// A device converts one server-local access (op, server-local offset, size)
// into a service time.  Implementations may be stateful (HDD head position,
// SSD garbage-collection debt) and stochastic (seeded per device), which is
// what distinguishes the *simulated* service time from the cost model's
// *expected* service time in src/core/tiered_cost_model.hpp.
#pragma once

#include "src/common/io.hpp"
#include "src/common/units.hpp"
#include "src/storage/profiles.hpp"

namespace harl::storage {

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Service time of one access.  Advances internal state (head position,
  /// GC debt, RNG stream).
  virtual Seconds service_time(IoOp op, Bytes offset, Bytes size) = 0;

  /// Startup component (the paper's T_S: seek/flash-issue latency plus any
  /// stall) of the most recent service_time() call — observability splits
  /// each access into startup vs transfer.  0 for models without one.
  virtual Seconds last_startup() const { return 0.0; }

  /// The nominal parameter profile this device was built from.
  virtual const TierProfile& profile() const = 0;

  /// Restores construction-time state (including the RNG stream), so two
  /// identically-seeded devices replay identical service-time sequences.
  virtual void reset() = 0;
};

}  // namespace harl::storage

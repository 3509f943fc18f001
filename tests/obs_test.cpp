// Unit and integration tests for src/obs: label packing, metrics registry
// semantics (including deterministic merge), the flight recorder's spans,
// summaries and ring buffer, and — the load-bearing one — reconciliation of
// the measured T_X/T_S/T_T decomposition against the analytic
// tiered_cost_model on a deterministic single-request scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/core/tiered_cost_model.hpp"
#include "src/net/network.hpp"
#include "src/obs/health.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/timeseries.hpp"
#include "src/pfs/cluster.hpp"
#include "src/pfs/layout.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"
#include "src/storage/profiles.hpp"

namespace harl {
namespace {

// ------------------------------------------------------------- label set ----

TEST(LabelSet, DefaultsToAllAbsent) {
  const obs::LabelSet l;
  EXPECT_EQ(l.server_value(), obs::LabelSet::kNone);
  EXPECT_EQ(l.region_value(), obs::LabelSet::kNoneRegion);
  EXPECT_EQ(l.client_value(), obs::LabelSet::kNone);
  EXPECT_FALSE(l.has_op());
}

TEST(LabelSet, PacksFieldsIndependently) {
  const obs::LabelSet l =
      obs::LabelSet{}.server(3).tier(1).region(42).client(7).op(IoOp::kWrite);
  EXPECT_EQ(l.server_value(), 3u);
  EXPECT_EQ(l.tier_value(), 1u);
  EXPECT_EQ(l.region_value(), 42u);
  EXPECT_EQ(l.client_value(), 7u);
  EXPECT_TRUE(l.has_op());
  EXPECT_EQ(l.op_value(), IoOp::kWrite);
  // A partial set leaves the other fields absent.
  const obs::LabelSet partial = obs::LabelSet{}.tier(0).op(IoOp::kRead);
  EXPECT_EQ(partial.server_value(), obs::LabelSet::kNone);
  EXPECT_EQ(partial.tier_value(), 0u);
  EXPECT_EQ(partial.op_value(), IoOp::kRead);
}

TEST(LabelSet, BitsRoundTrip) {
  const obs::LabelSet l = obs::LabelSet{}.server(9).region(100).op(IoOp::kRead);
  EXPECT_EQ(obs::LabelSet::from_bits(l.bits()), l);
}

// ------------------------------------------------------- metrics registry ----

TEST(MetricsRegistry, CountersGaugesAndHistograms) {
  obs::MetricsRegistry reg;
  const auto c = reg.family("bytes", obs::MetricsRegistry::Kind::kCounter);
  const auto g = reg.family("depth", obs::MetricsRegistry::Kind::kGauge);
  const auto h = reg.family("lat", obs::MetricsRegistry::Kind::kHistogram);
  const obs::LabelSet s0 = obs::LabelSet{}.server(0);
  const obs::LabelSet s1 = obs::LabelSet{}.server(1);

  reg.add(c, s0, 100.0);
  reg.add(c, s0, 20.0);
  reg.add(c, s1, 7.0);
  reg.set_max(g, s0, 3.0);
  reg.set_max(g, s0, 2.0);  // lower sample must not win
  reg.observe(h, s0, 1e-3);
  reg.observe(h, s0, 4e-3);

  EXPECT_DOUBLE_EQ(reg.value("bytes", s0), 120.0);
  EXPECT_DOUBLE_EQ(reg.value("bytes", s1), 7.0);
  EXPECT_DOUBLE_EQ(reg.value("depth", s0), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("missing", s0), 0.0);
  const obs::QuantileSketch* lat = reg.sketch("lat", s0);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 2u);
  EXPECT_DOUBLE_EQ(lat->max(), 4e-3);
  EXPECT_EQ(lat->sub_bits(), obs::MetricsRegistry::kHistogramSubBits);
  EXPECT_EQ(reg.sketch("lat", s1), nullptr);
  EXPECT_EQ(reg.sketch("bytes", s0), nullptr);  // scalars are not sketches
}

TEST(MetricsRegistry, FamilyKindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.family("x", obs::MetricsRegistry::Kind::kCounter);
  EXPECT_THROW(reg.family("x", obs::MetricsRegistry::Kind::kHistogram),
               std::invalid_argument);
}

std::string registry_json(const obs::MetricsRegistry& reg) {
  std::ostringstream out;
  reg.write_json(out);
  return out.str();
}

TEST(MetricsRegistry, MergeIsExactAndOrderIndependent) {
  // Shards as the parallel harness produces them: same families, label sets
  // inserted in different orders, merged in different orders — the JSON dump
  // (the canonical serialized form) must be byte-identical either way.
  auto make_shard = [](std::uint32_t first, std::uint32_t second, double w) {
    obs::MetricsRegistry reg;
    const auto c = reg.family("bytes", obs::MetricsRegistry::Kind::kCounter);
    const auto h = reg.family("lat", obs::MetricsRegistry::Kind::kHistogram);
    reg.add(c, obs::LabelSet{}.server(first), w);
    reg.add(c, obs::LabelSet{}.server(second), 2.0 * w);
    reg.observe(h, obs::LabelSet{}.server(first), w * 1e-3);
    return reg;
  };
  const obs::MetricsRegistry a = make_shard(0, 1, 10.0);
  const obs::MetricsRegistry b = make_shard(1, 0, 5.0);

  obs::MetricsRegistry ab;
  ab.merge(a);
  ab.merge(b);
  obs::MetricsRegistry ba;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(registry_json(ab), registry_json(ba));
  EXPECT_DOUBLE_EQ(ab.value("bytes", obs::LabelSet{}.server(0)), 20.0);
  EXPECT_DOUBLE_EQ(ab.value("bytes", obs::LabelSet{}.server(1)), 25.0);
}

TEST(MetricsRegistry, SketchFamiliesObserveAndMergeLikeCounters) {
  // kSketch is a first-class family kind: observe() feeds the sketch, the
  // sketch() accessor exposes it, merge is exact/order-independent, and the
  // JSON dump carries the p50/p95/p99/p999 summary.
  auto make_shard = [](std::uint32_t first, std::uint32_t second, double w) {
    obs::MetricsRegistry reg;
    const auto q = reg.family("svc", obs::MetricsRegistry::Kind::kSketch);
    reg.observe(q, obs::LabelSet{}.server(first), w * 0.25);
    reg.observe(q, obs::LabelSet{}.server(second), w * 0.5);
    return reg;
  };
  const obs::MetricsRegistry a = make_shard(0, 1, 1.0);
  const obs::MetricsRegistry b = make_shard(1, 0, 2.0);

  obs::MetricsRegistry ab;
  ab.merge(a);
  ab.merge(b);
  obs::MetricsRegistry ba;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(registry_json(ab), registry_json(ba));

  const obs::QuantileSketch* s0 = ab.sketch("svc", obs::LabelSet{}.server(0));
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(s0->count(), 2u);
  EXPECT_DOUBLE_EQ(s0->min(), 0.25);
  EXPECT_DOUBLE_EQ(s0->max(), 1.0);
  EXPECT_EQ(ab.sketch("svc", obs::LabelSet{}.server(9)), nullptr);

  EXPECT_EQ(s0->sub_bits(), obs::MetricsRegistry::kSketchSubBits);

  const std::string json = registry_json(ab);
  EXPECT_NE(json.find("\"type\": \"sketch\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(MetricsRegistry, HistogramExportIsPinned) {
  // kHistogram families are 5-bit sketches exported without a p999.  The
  // literal fixes their bucket bounds, quantiles and field set: a zero
  // sample, a sub-microsecond one and values across many octaves.
  obs::MetricsRegistry reg;
  const auto h = reg.family("lat", obs::MetricsRegistry::Kind::kHistogram);
  for (double x : {0.0, 4e-7, 1e-6, 3e-3, 3e-3, 0.5, 12.0}) {
    reg.observe(h, obs::LabelSet{}.server(0), x);
  }
  reg.observe(h, obs::LabelSet{}.server(1).op(IoOp::kWrite), 250e-6);
  const std::string expected =
      R"([)" "\n"
      R"(  {"name": "lat", "type": "histogram", "labels": {"server": 1, )"
      R"("op": "write"}, "count": 1, "sum": 0.00025000000000000001, )"
      R"("min": 0.00025000000000000001, "max": 0.00025000000000000001, )"
      R"("mean": 0.00025000000000000001, "p50": 0.00025000000000000001, )"
      R"("p95": 0.00025000000000000001, "p99": 0.00025000000000000001, )"
      R"("buckets": [[0.000244140625, 0.00025177001953125, 1]]},)" "\n"
      R"(  {"name": "lat", "type": "histogram", "labels": {"server": 0}, )"
      R"("count": 7, "sum": 12.506001400000001, "min": 0, "max": 12, )"
      R"("mean": 1.7865716285714286, "p50": 0.0030059814453125, )"
      R"("p95": 12, "p99": 12, "buckets": [[3.9488077163696289e-07, )"
      R"(4.0233135223388672e-07, 1], [9.8347663879394531e-07, )"
      R"(1.0132789611816406e-06, 1], [0.00299072265625, 0.0030517578125, )"
      R"(2], [0.5, 0.515625, 1], [12, 12.25, 1]]})" "\n"
      R"(])";
  EXPECT_EQ(registry_json(reg), expected);
}

TEST(MetricsRegistry, RealFormatsLikeTheStreamAtPrecision17) {
  // Every export writes doubles through obs::Real; its bytes must be the
  // stream's own at precision 17, or every byte-identity golden breaks.
  std::vector<double> xs = {0.0,
                            -0.0,
                            1.0,
                            0.1,
                            -2.5,
                            1e-7,
                            123456789.0,
                            1e17,
                            1e21,
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity()};
  std::mt19937_64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) xs.push_back(x);
    xs.push_back(std::uniform_real_distribution<double>(0.0, 1e-2)(rng));
  }
  for (double x : xs) {
    std::ostringstream want;
    want.precision(17);
    want << x;
    std::ostringstream got;
    got << obs::Real{x};
    ASSERT_EQ(got.str(), want.str());
  }
}

TEST(MetricsRegistry, FamilyNamesWithControlBytesStayValidJson) {
  // Every control byte is escaped: \n and \t in short form, the rest as
  // \u00XX, so even a malformed family name yields valid JSON.
  obs::MetricsRegistry reg;
  const std::string name = std::string("a\x01") + "b\rc\"d\\e\n\tf";
  reg.add(reg.family(name, obs::MetricsRegistry::Kind::kCounter),
          obs::LabelSet{}, 1.0);
  EXPECT_EQ(registry_json(reg),
            R"([
  {"name": "a\u0001b\u000dc\"d\\e\n\tf", "type": "counter", )"
            R"("labels": {}, "value": 1}
])");
}

TEST(MetricsRegistry, SeriesHandlesStayValidAcrossGrowthAndMerge) {
  obs::MetricsRegistry reg;
  using Kind = obs::MetricsRegistry::Kind;
  const auto c = reg.family("bytes", Kind::kCounter);
  const auto h = reg.family("lat", Kind::kSketch);
  const obs::LabelSet s3 = obs::LabelSet{}.server(3).op(IoOp::kRead);
  const auto hc = reg.series(c, s3);
  const auto hh = reg.series(h, s3);
  ASSERT_TRUE(hc.resolved());
  reg.add(hc, 5.0);
  reg.observe(hh, 2e-3);

  // Grow both families past any small-vector capacity, then merge a
  // registry whose family ids differ and which adds series of its own.
  for (std::uint32_t s = 100; s < 200; ++s) {
    reg.add(c, obs::LabelSet{}.server(s), 1.0);
    reg.observe(h, obs::LabelSet{}.server(s), 1e-3);
  }
  obs::MetricsRegistry other;
  other.family("other", Kind::kGauge);
  other.add(other.family("bytes", Kind::kCounter), s3, 7.0);
  other.add(other.family("bytes", Kind::kCounter), obs::LabelSet{}.server(9),
            1.0);
  other.observe(other.family("lat", Kind::kSketch), s3, 8e-3);
  reg.merge(other);

  reg.add(hc, 1.0);
  reg.observe(hh, 4e-3);
  EXPECT_DOUBLE_EQ(reg.value("bytes", s3), 13.0);
  const obs::QuantileSketch* lat = reg.sketch("lat", s3);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 3u);
  EXPECT_DOUBLE_EQ(lat->max(), 8e-3);
  EXPECT_DOUBLE_EQ(lat->min(), 2e-3);

  // The LabelSet overloads resolve to the very same series.
  EXPECT_EQ(reg.series(c, s3).index, hc.index);
  reg.add(c, s3, 2.0);
  EXPECT_DOUBLE_EQ(reg.value("bytes", s3), 15.0);
  EXPECT_FALSE(obs::MetricsRegistry::Series{}.resolved());
}

// ------------------------------------------------------------ time series ----

TEST(TimeSeries, RollsUpWindowsAndClipsBusyAtBoundaries) {
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 16});
  // A job whose service straddles the w0/w1 boundary: latency lands in the
  // arrival window, busy time splits exactly across the two windows
  // (dyadic endpoints keep the clipped spans float-exact).
  ts.record_job(3, /*arrival=*/0.5, /*start=*/0.75, /*finish=*/1.25,
                /*depth=*/2);
  ts.record_cache(100, 50, 0.25);

  EXPECT_EQ(ts.window_of(0.5), 0);
  EXPECT_EQ(ts.window_jobs(0, 3), 1u);
  EXPECT_DOUBLE_EQ(ts.window_latency_mean(0, 3), 0.75);
  const auto stats = ts.window_stats(0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].server, 3u);

  std::ostringstream os;
  ts.write_json(os, 0);
  const std::string json = os.str();
  // busy 0.25 s in window 0 and 0.25 s in window 1.
  EXPECT_NE(json.find("\"busy_s\": [0.25, 0.25]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hit_bytes\": [100, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"depth_max\": [2, 0]"), std::string::npos);
}

TEST(TimeSeries, BoundedRingDropsOldestWindowsLoudly) {
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 4});
  for (int w = 0; w < 10; ++w) {
    ts.record_job(0, w + 0.1, w + 0.2, w + 0.4, 1);
  }
  EXPECT_EQ(ts.window_count(), 4u);
  EXPECT_EQ(ts.dropped_windows(), 6u);
  EXPECT_EQ(ts.last_window(), 9);
  // Dropped windows read as idle, and late data for them is discarded.
  EXPECT_EQ(ts.window_jobs(0, 0), 0u);
  ts.record_job(0, 0.5, 0.6, 0.7, 1);
  EXPECT_EQ(ts.window_jobs(0, 0), 0u);
}

TEST(TimeSeries, FullRingDiscardsSamplesOlderThanItsFront) {
  // The ring fills with windows 1..4 and has dropped none; data for window
  // 0 must be discarded, not land in window 1 (the front) or evict it.
  obs::TimeSeries ts(obs::TimeSeries::Options{1.0, 4});
  for (int w = 1; w <= 4; ++w) {
    ts.record_job(0, w + 0.1, w + 0.2, w + 0.4, 1);
  }
  ASSERT_EQ(ts.window_count(), 4u);
  ASSERT_EQ(ts.dropped_windows(), 0u);

  ts.record_job(0, 0.5, 0.6, 0.7, 9);    // late job, all in window 0
  ts.record_job(2, 0.5, 0.75, 1.25, 9);  // late arrival, service into w1
  ts.record_cache(100, 50, 0.25);
  EXPECT_EQ(ts.window_count(), 4u);
  EXPECT_EQ(ts.dropped_windows(), 0u);
  EXPECT_EQ(ts.window_jobs(1, 0), 1u);
  EXPECT_EQ(ts.window_jobs(1, 2), 0u);

  // Only the busy span that falls inside window 1 is kept.
  std::ostringstream after;
  ts.write_json(after, 0);
  const std::string json = after.str();
  EXPECT_NE(json.find("\"depth_max\": [1, 1, 1, 1]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"busy_s\": [0.25, 0, 0, 0]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hit_bytes\": [0, 0, 0, 0]"), std::string::npos)
      << json;

  // A window newer than the front still evicts the oldest, as before.
  ts.record_job(0, 6.1, 6.2, 6.4, 1);
  EXPECT_EQ(ts.dropped_windows(), 1u);
  EXPECT_EQ(ts.window_jobs(1, 0), 0u);
  EXPECT_EQ(ts.window_jobs(6, 0), 1u);
}

// ---------------------------------------------------------- health monitor ----

/// A recorder with its telemetry plane armed at window width `interval`.
obs::TelemetryOptions telemetry(Seconds interval, Seconds slo = 0.0) {
  obs::TelemetryOptions t;
  t.interval = interval;
  t.slo = slo;
  return t;
}

/// Drives one synthetic job per (window, server) directly through the Sink
/// surface: server `slow`'s latency is `slow_lat`, everyone else's 0.1 s.
void feed_window(obs::Recorder& rec, const std::vector<std::uint32_t>& tracks,
                 std::int64_t w, int slow, double slow_lat) {
  for (std::size_t s = 0; s < tracks.size(); ++s) {
    const double arrival = static_cast<double>(w) + 0.05;
    const double lat = static_cast<int>(s) == slow ? slow_lat : 0.1;
    rec.resource_event(tracks[s], arrival, arrival, arrival + lat);
  }
}

TEST(HealthMonitor, FlagAndRecoverHysteresis) {
  // The named constants this test pins: flag at score >= 2 for two
  // windows, recover at score <= 1.25 for two windows.
  static_assert(obs::HealthMonitor::kFlagThreshold == 2.0);
  static_assert(obs::HealthMonitor::kRecoverThreshold == 1.25);
  static_assert(obs::HealthMonitor::kFlagWindows == 2);
  static_assert(obs::HealthMonitor::kRecoverWindows == 2);
  obs::Recorder rec(obs::Recorder::Options{}, telemetry(1.0));
  obs::HealthMonitor& hm = *rec.health();
  std::vector<std::uint32_t> tracks;
  for (std::uint32_t s = 0; s < 3; ++s) {
    tracks.push_back(rec.register_server(s, 0, "srv", false));
  }

  // Windows 0-1 healthy; 2-3 server 0 slow (score 10 >= threshold).  One
  // slow window must NOT flag (hysteresis); the second must.
  feed_window(rec, tracks, 0, -1, 0.0);
  feed_window(rec, tracks, 1, -1, 0.0);
  feed_window(rec, tracks, 2, 0, 1.0);
  feed_window(rec, tracks, 3, 0, 1.0);
  feed_window(rec, tracks, 4, 0, 0.1);  // watermark: scores windows 0-3
  EXPECT_TRUE(hm.is_flagged(0));
  EXPECT_FALSE(hm.is_flagged(1));
  EXPECT_NEAR(hm.server_score(0), 10.0, 1e-9);

  // Two healthy windows recover it — but only after BOTH have scored.
  feed_window(rec, tracks, 5, -1, 0.0);  // scores window 4: one healthy
  EXPECT_TRUE(hm.is_flagged(0));
  feed_window(rec, tracks, 6, -1, 0.0);  // scores window 5: second healthy
  EXPECT_FALSE(hm.is_flagged(0));
  hm.finalize();  // scores the trailing window 6 (idempotent afterwards)
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.straggler_flagged",
                                       obs::LabelSet{}.server(0)),
                   1.0);
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.recovered",
                                       obs::LabelSet{}.server(0)),
                   1.0);

  std::ostringstream os;
  hm.write_json(os, 0);
  EXPECT_NE(os.str().find("\"flag_count\": 1"), std::string::npos);

  // Both instants reach the recorder's own trace, on its "health" track.
  std::ostringstream trace;
  rec.write_trace_json(trace);
  EXPECT_NE(trace.str().find("\"straggler_flagged\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"straggler_recovered\""), std::string::npos);
}

TEST(HealthMonitor, DeadBandResetsBothStreaks) {
  // Scores inside (kRecoverThreshold, kFlagThreshold) are the hysteresis
  // dead band: a straggler that hovers at ~1.5x never accumulates enough
  // consecutive slow windows to flag.
  obs::Recorder rec(obs::Recorder::Options{}, telemetry(1.0));
  std::vector<std::uint32_t> tracks;
  for (std::uint32_t s = 0; s < 3; ++s) {
    tracks.push_back(rec.register_server(s, 0, "srv", false));
  }
  // Alternate slow (score 10) and dead-band (score 1.5) windows: the flag
  // streak resets every other window, so server 0 is never flagged.
  for (std::int64_t w = 0; w < 8; ++w) {
    feed_window(rec, tracks, w, 0, w % 2 == 0 ? 1.0 : 0.15);
  }
  rec.health()->finalize();
  EXPECT_FALSE(rec.health()->is_flagged(0));
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.straggler_flagged",
                                       obs::LabelSet{}.server(0)),
                   0.0);
}

TEST(HealthMonitor, SloAttainmentTracksRequestsAndSubs) {
  obs::Recorder rec(obs::Recorder::Options{}, telemetry(1.0, 0.5));
  rec.register_server(2, 0, "srv", true);

  // Request 1 (read): sub resident 0.3 s <= SLO, request latency 0.4 s.
  const std::uint32_t r1 = rec.begin_request(0, IoOp::kRead, 0, KiB, 0.0);
  const std::uint32_t s1 = rec.begin_sub(r1, 2, 0, KiB, 0.0);
  rec.sub_storage(s1, 0.0, 0.1, 0.05, 0.2);  // (0.1-0.0) + 0.2 = 0.3
  rec.sub_net_done(s1, 0.35);
  rec.end_request(r1, 0.4);
  // Request 2 (read): sub resident 0.8 s > SLO, request latency 0.9 s.
  const std::uint32_t r2 = rec.begin_request(0, IoOp::kRead, 0, KiB, 1.0);
  const std::uint32_t s2 = rec.begin_sub(r2, 2, 0, KiB, 1.0);
  rec.sub_storage(s2, 1.0, 1.6, 0.05, 0.2);  // (1.6-1.0) + 0.2 = 0.8
  rec.sub_net_done(s2, 1.85);
  rec.end_request(r2, 1.9);
  rec.health()->finalize();

  const obs::LabelSet by_server = obs::LabelSet{}.server(2);
  const obs::LabelSet by_op = obs::LabelSet{}.op(IoOp::kRead);
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.slo.subs_total", by_server),
                   2.0);
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.slo.subs_met", by_server),
                   1.0);
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.slo.requests_total", by_op),
                   2.0);
  EXPECT_DOUBLE_EQ(rec.metrics().value("health.slo.requests_met", by_op),
                   1.0);

  std::ostringstream os;
  rec.health()->write_json(os, 0);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"read_total\": 2, \"read_met\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"slo_subs_total\": 2, \"slo_subs_met\": 1"),
            std::string::npos);
}

/// One fixed sink-call sequence over 3 servers: every request (alternating
/// write/read) puts one sub on each server, server 0 turns 10x slow from
/// window 2 on (so the monitor flags it mid-run and it stays flagged), and
/// cache events ride along.
void drive_sequence(obs::Recorder& rec) {
  std::vector<std::uint32_t> disks;
  for (std::uint32_t s = 0; s < 3; ++s) {
    disks.push_back(rec.register_server(s, s == 2 ? 1 : 0, "srv", s == 2));
  }
  rec.register_client(0);
  rec.set_tenant_of({0, 1});
  Seconds t = 0.0;
  for (int i = 0; i < 40; ++i) {
    const IoOp op = i % 2 == 0 ? IoOp::kWrite : IoOp::kRead;
    const std::uint32_t file = static_cast<std::uint32_t>(i % 2);
    const std::uint32_t req =
        rec.begin_request(0, op, static_cast<Bytes>(i) * KiB, 3 * KiB, t, file);
    Seconds done = t;
    for (std::uint32_t s = 0; s < 3; ++s) {
      const std::uint32_t sub = rec.begin_sub(req, s, 0, KiB, t);
      const Seconds arrival = t + 0.01;
      const Seconds service = s == 0 && t >= 2.0 ? 0.2 : 0.02;
      rec.resource_event(disks[s], arrival, arrival, arrival + service);
      rec.server_access(s, op, static_cast<std::uint32_t>(i / 10), KiB, 1,
                        arrival);
      rec.sub_storage(sub, arrival, arrival, 0.005, service);
      done = std::max(done, arrival + service);
      if (op == IoOp::kRead) {
        rec.sub_net_done(sub, arrival + service + 0.01);
        done = std::max(done, arrival + service + 0.01);
      }
    }
    rec.end_request(req, done);
    if (i % 8 == 0) rec.cache_event(4 * KiB, KiB, done);
    t += 0.25;
  }
}

/// `json` without the lines of the health.* metric series.
std::string without_health_series(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"name\": \"health.") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(Recorder, TelemetryLeavesRecorderOutputsUnchanged) {
  // The same call sequence with and without the telemetry plane: arming it
  // adds the health.* families and nothing else to the recorder's outputs.
  obs::Recorder::Options options;
  options.trace = false;
  obs::Recorder off(options);
  obs::Recorder on(options, telemetry(1.0, 0.1));
  ASSERT_EQ(off.health(), nullptr);
  ASSERT_NE(on.health(), nullptr);
  drive_sequence(off);
  drive_sequence(on);
  EXPECT_TRUE(on.health()->is_flagged(0));
  on.health()->finalize();

  const auto a = off.resource_summaries();
  const auto b = on.resource_summaries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].entity, b[i].entity);
    EXPECT_EQ(a[i].jobs, b[i].jobs);
    EXPECT_EQ(a[i].busy, b[i].busy);
    EXPECT_EQ(a[i].queue_delay, b[i].queue_delay);
    EXPECT_EQ(a[i].depth_max, b[i].depth_max);
    EXPECT_EQ(a[i].busy_timeline->values(), b[i].busy_timeline->values());
    EXPECT_EQ(a[i].depth_timeline->values(), b[i].depth_timeline->values());
  }
  EXPECT_EQ(off.requests_completed(), on.requests_completed());

  std::ostringstream off_json;
  std::ostringstream on_json;
  off.write_metrics_json(off_json);
  on.write_metrics_json(on_json);
  // Not vacuous: the armed run flagged server 0 and checked the SLO.
  EXPECT_NE(on_json.str().find("health.straggler_flagged"), std::string::npos);
  EXPECT_NE(on_json.str().find("health.slo.tenant_total"), std::string::npos);
  EXPECT_EQ(off_json.str().find("health."), std::string::npos);
  EXPECT_EQ(without_health_series(on_json.str()),
            without_health_series(off_json.str()));
}

// -------------------------------------------------------------- timeline ----

TEST(Timeline, CoalescesInsteadOfGrowing) {
  obs::Timeline tl(1e-3, 8, /*take_max=*/false);
  // Busy the first millisecond, then jump 10 simulated seconds ahead: the
  // bucket width must double until t fits, and the recorded busy-seconds
  // must be conserved across coalescing.
  tl.add_span(0.0, 1e-3);
  tl.add_span(10.0, 10.5);
  EXPECT_LE(tl.values().size(), 8u);
  double total = 0.0;
  for (double v : tl.values()) total += v;
  EXPECT_NEAR(total, 1e-3 + 0.5, 1e-9);
  EXPECT_GE(tl.bucket_width() * 8.0, 10.5);
}

TEST(Timeline, MaxModeKeepsHighWaterMarks) {
  obs::Timeline tl(1.0, 4, /*take_max=*/true);
  tl.sample_max(0.5, 3.0);
  tl.sample_max(0.6, 2.0);  // lower sample in the same bucket must not win
  EXPECT_DOUBLE_EQ(tl.values()[0], 3.0);
}

// ----------------------------------------------------- recorder: resources ----

TEST(Recorder, FifoSpansWaitsAndSummaries) {
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(rec.register_server(0, 0, "disk", false));

  // Two back-to-back jobs: the second queues behind the first.
  res.submit(1e-3, [] {});
  res.submit(2e-3, [] {});
  sim.run();

  const auto summaries = rec.resource_summaries();
  ASSERT_EQ(summaries.size(), 1u);
  const auto& s = summaries[0];
  EXPECT_EQ(s.kind, obs::TrackKind::kServerDisk);
  EXPECT_EQ(s.jobs, 2u);
  EXPECT_NEAR(s.busy, res.busy_time(), 1e-12);
  EXPECT_NEAR(s.queue_delay, 1e-3, 1e-12);  // job 2 waited for job 1
  EXPECT_EQ(s.depth_max, 2u);
  ASSERT_NE(s.wait, nullptr);
  ASSERT_NE(s.service, nullptr);
  EXPECT_EQ(s.service->count(), 2u);
  EXPECT_NEAR(s.service->max(), 2e-3, 1e-12);
  // One X span per job plus one wait record for the queued job (async b/e
  // pairs are stored once and expanded at export time).
  EXPECT_EQ(rec.trace_events_recorded(), 3u);
  EXPECT_NEAR(rec.last_time(), 3e-3, 1e-12);
}

TEST(Recorder, RingBufferBoundsTraceMemory) {
  obs::Recorder::Options opts;
  opts.max_trace_events = 8;
  sim::Simulator sim;
  obs::Recorder rec(opts);
  sim.set_observer(&rec);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(rec.register_server(0, 0, "disk", false));
  for (int i = 0; i < 100; ++i) res.submit(1e-4, [] {});
  sim.run();

  EXPECT_GT(rec.trace_events_recorded(), 8u);
  EXPECT_EQ(rec.trace_events_dropped(), rec.trace_events_recorded() - 8u);
  // The exported trace holds only the ring's survivors (plus metadata).
  std::ostringstream out;
  rec.write_trace_json(out);
  const std::string json = out.str();
  std::size_t spans = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++spans;
  }
  EXPECT_LE(spans, 8u);
  EXPECT_GT(spans, 0u);
}

TEST(Recorder, TraceJsonHasChromeTraceShape) {
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  sim::FifoResource res(sim, "disk");
  res.set_obs_track(rec.register_server(2, 1, "sserver_2", true));
  res.submit(1e-3, [] {});
  res.submit(1e-3, [] {});
  sim.run();

  std::ostringstream out;
  rec.write_trace_json(out, "harl-test");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("sserver_2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // service span
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);  // queue wait
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
}

// ------------------------------------------- recorder: request attribution ----

/// Deterministic one-tier cluster: fixed startup window (min == max), flat
/// per-byte rates, no GC, no faults — every component of the paper's
/// decomposition is analytically known.
pfs::ClusterConfig deterministic_config() {
  storage::TierProfile det;
  det.name = "det";
  det.read = storage::OpProfile{500e-6, 500e-6, 1e-8};
  det.write = storage::OpProfile{500e-6, 500e-6, 1e-8};
  pfs::ClusterConfig cfg;
  cfg.tiers = {pfs::TierGroup{"det", 2, det, /*is_ssd=*/true, {}}};
  cfg.num_clients = 1;
  cfg.network = net::NetworkParams{1e-9, 40e-6};
  cfg.server_per_stripe_overhead = 50e-6;
  return cfg;
}

/// The analytic cost parameters matching what the simulator actually charges
/// an uncontended request: each transfer serializes on two FIFO links, so
/// the model sees 2 hops and twice the per-message latency.
core::TieredCostParams matching_params(const pfs::ClusterConfig& cfg) {
  core::TieredCostParams params;
  for (const auto& group : cfg.tiers) {
    params.tiers.push_back(core::TierSpec{group.count, group.profile, {}});
  }
  params.t = cfg.network.per_byte;
  params.net_latency = 2.0 * cfg.network.message_latency;
  params.net_hops = 2;
  params.per_stripe_overhead = cfg.server_per_stripe_overhead;
  return params;
}

TEST(Recorder, ReconcilesMeasuredDecompositionAgainstCostModel) {
  // Acceptance scenario: single request, idle deterministic cluster.  The
  // measured T_X/T_S/T_T (+ queue wait) must sum to the request's completion
  // time exactly, and the tiered cost model with the matching parameters
  // must predict that completion time to float round-off.
  for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
    const pfs::ClusterConfig cfg = deterministic_config();
    const core::TieredCostParams params = matching_params(cfg);
    const std::vector<Bytes> stripes = {64 * KiB};

    sim::Simulator sim;
    obs::Recorder rec(obs::Recorder::Options{.max_request_samples = 16});
    rec.set_predictor([&](IoOp o, Bytes offset, Bytes size) {
      return core::request_cost(params, o, offset, size, stripes);
    });
    sim.set_observer(&rec);
    pfs::Cluster cluster(sim, cfg);
    auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

    bool completed = false;
    cluster.client(0).io(*layout, op, 0, 64 * KiB, [&] { completed = true; });
    sim.run();
    ASSERT_TRUE(completed);

    ASSERT_EQ(rec.requests().size(), 1u);
    const obs::Recorder::RequestSample& r = rec.requests().front();
    EXPECT_EQ(r.op, op);
    ASSERT_EQ(r.subs.size(), 1u);  // 64K at offset 0 touches one server
    const obs::Recorder::SubSample& sub = r.subs.front();

    // Analytically known components.
    const Seconds hop = 40e-6 + 64.0 * 1024.0 * 1e-9;
    EXPECT_NEAR(sub.t_x, 2.0 * hop, 1e-12);           // two serialized links
    EXPECT_NEAR(sub.t_s, 500e-6, 1e-12);              // fixed startup window
    EXPECT_NEAR(sub.t_t, 64.0 * 1024.0 * 1e-8 + 50e-6, 1e-12);
    EXPECT_NEAR(sub.wait, 0.0, 1e-12);                // idle queue

    // The decomposition must account for the whole request, end to end.
    EXPECT_NEAR(sub.wait + sub.t_s + sub.t_t + sub.t_x, r.latency(), 1e-12);

    // And the analytic model must reconcile with the measurement.
    ASSERT_GE(r.predicted, 0.0);
    EXPECT_NEAR(r.predicted, r.latency(), 1e-9);
    const obs::QuantileSketch* err = rec.metrics().sketch(
        "model.rel_error", obs::LabelSet{}.region(r.region).op(op));
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->count(), 1u);
    EXPECT_LT(err->max(), 1e-6);
  }
}

TEST(Recorder, SubComponentsSumEvenUnderContention) {
  // A striped request whose sub-transfers contend on the client NIC: the
  // per-sub identity wait + T_S + T_T + T_X == done - issue must still hold
  // exactly, because queueing shows up in wait (storage) or T_X (network).
  const pfs::ClusterConfig cfg = deterministic_config();
  sim::Simulator sim;
  obs::Recorder rec(obs::Recorder::Options{.max_request_samples = 16});
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  int completed = 0;
  cluster.client(0).io(*layout, IoOp::kRead, 0, 256 * KiB,
                       [&] { ++completed; });
  cluster.client(0).io(*layout, IoOp::kWrite, 256 * KiB, 256 * KiB,
                       [&] { ++completed; });
  sim.run();
  ASSERT_EQ(completed, 2);

  ASSERT_EQ(rec.requests().size(), 2u);
  for (const auto& r : rec.requests()) {
    ASSERT_GT(r.subs.size(), 1u);
    Seconds last_done = 0.0;
    for (const auto& sub : r.subs) {
      EXPECT_NEAR(sub.wait + sub.t_s + sub.t_t + sub.t_x,
                  sub.done - sub.issue, 1e-12);
      last_done = std::max(last_done, sub.done);
    }
    // The request completes when its slowest sub-request does.
    EXPECT_NEAR(last_done, r.done, 1e-12);
  }
  EXPECT_EQ(rec.requests_completed(), 2u);
}

TEST(Recorder, ReproducesFig1aImbalanceOrderingUnderRoundRobin) {
  // The paper's Fig. 1a story: uniform round-robin striping on a hybrid
  // cluster loads every server with the same bytes, so the HDD servers'
  // I/O time dominates the SSD servers'.  The recorder's per-server
  // summaries and metrics must reproduce that ordering.
  pfs::ClusterConfig cfg;  // paper default: 6 HServers + 2 SServers
  cfg.num_clients = 4;
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);

  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    cluster.client(i % 4).io(*layout, i % 2 ? IoOp::kRead : IoOp::kWrite,
                             static_cast<Bytes>(i) * MiB, 1 * MiB,
                             [&] { ++completed; });
  }
  sim.run();
  ASSERT_EQ(completed, 16);

  double hdd_busy = 0.0, ssd_busy = 0.0;
  std::size_t hdd_n = 0, ssd_n = 0;
  for (const auto& s : rec.resource_summaries()) {
    if (s.kind != obs::TrackKind::kServerDisk) continue;
    EXPECT_GT(s.jobs, 0u);
    if (s.is_ssd) {
      ssd_busy += s.busy;
      ++ssd_n;
    } else {
      hdd_busy += s.busy;
      ++hdd_n;
    }
  }
  ASSERT_EQ(hdd_n, 6u);
  ASSERT_EQ(ssd_n, 2u);
  EXPECT_GT(hdd_busy / static_cast<double>(hdd_n),
            ssd_busy / static_cast<double>(ssd_n));

  // Same ordering through the metrics registry's per-server byte counters:
  // round-robin spreads bytes evenly, so the imbalance is time, not bytes.
  const auto& reg = rec.metrics();
  const double bytes_h0 = reg.value(
      "pfs.server.bytes", obs::LabelSet{}.server(0).tier(0).op(IoOp::kRead));
  const double bytes_s7 = reg.value(
      "pfs.server.bytes", obs::LabelSet{}.server(7).tier(1).op(IoOp::kRead));
  EXPECT_DOUBLE_EQ(bytes_h0, bytes_s7);
}

TEST(Recorder, MetricsJsonIsWellFormedEnoughToGrep) {
  const pfs::ClusterConfig cfg = deterministic_config();
  sim::Simulator sim;
  obs::Recorder rec;
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  bool completed = false;
  cluster.client(0).io(*layout, IoOp::kRead, 0, 64 * KiB,
                       [&] { completed = true; });
  sim.run();
  ASSERT_TRUE(completed);

  std::ostringstream out;
  rec.write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"horizon_s\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"resources\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"depth_timeline\""), std::string::npos);
  EXPECT_NE(json.find("client.request.latency"), std::string::npos);
  EXPECT_NE(json.find("request.t_x"), std::string::npos);
}

TEST(Recorder, IdleRegisteredServersEmitNoServerSeries) {
  // Series are resolved on first use: a server that is registered but never
  // accessed must not appear in any pfs.server.* family.
  obs::Recorder rec;
  for (std::uint32_t s = 0; s < 4; ++s) {
    rec.register_server(s, s < 2 ? 0 : 1, "srv", s >= 2);
  }
  const std::uint32_t req = rec.begin_request(0, IoOp::kRead, 0, 4096, 0.0);
  const std::uint32_t sub = rec.begin_sub(req, 2, 0, 4096, 0.0);
  rec.server_access(2, IoOp::kRead, 0, 4096, 1, 0.1);
  rec.server_access(2, IoOp::kRead, 1, 4096, 1, 0.2);  // region switch
  rec.sub_storage(sub, 0.1, 0.1, 0.01, 0.05);
  rec.sub_net_done(sub, 0.2);
  rec.end_request(req, 0.2);

  const obs::LabelSet used =
      obs::LabelSet{}.server(2).tier(1).op(IoOp::kRead);
  EXPECT_DOUBLE_EQ(rec.metrics().value("pfs.server.accesses", used), 2.0);
  EXPECT_DOUBLE_EQ(rec.metrics().value("pfs.server.bytes", used), 8192.0);
  EXPECT_DOUBLE_EQ(rec.metrics().value("pfs.server.region_switches",
                                       obs::LabelSet{}.server(2).tier(1)),
                   1.0);
  ASSERT_NE(rec.metrics().sketch("pfs.server.time", used), nullptr);
  EXPECT_EQ(rec.metrics().sketch("pfs.server.time", used)->count(), 1u);

  std::ostringstream out;
  rec.metrics().write_json(out);
  std::istringstream lines(out.str());
  int server_series = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"pfs.server.") == std::string::npos) continue;
    ++server_series;
    EXPECT_NE(line.find("\"server\": 2"), std::string::npos) << line;
  }
  // accesses, bytes, pieces, time (read) and region_switches.
  EXPECT_EQ(server_series, 5);
}

TEST(Recorder, StaleEndIsIgnored) {
  // A request or sub-request id that already completed is dead: ending it
  // again must neither complete a second request nor free its slot twice
  // (two live requests would then share one slot).
  obs::Recorder rec(obs::Recorder::Options{.max_request_samples = 16});
  rec.register_server(0, 0, "srv", false);
  const std::uint32_t r = rec.begin_request(0, IoOp::kRead, 0, KiB, 0.0);
  rec.end_request(r, 0.1);
  rec.end_request(r, 0.2);  // stale
  EXPECT_EQ(rec.requests_completed(), 1u);
  const std::uint32_t a = rec.begin_request(0, IoOp::kRead, 0, KiB, 0.3);
  const std::uint32_t b = rec.begin_request(0, IoOp::kRead, 0, KiB, 0.3);
  EXPECT_NE(a, b);

  // A write sub completes at its storage stage; a late sub_net_done for it
  // is stale too.
  const std::uint32_t w = rec.begin_request(0, IoOp::kWrite, 0, KiB, 0.4);
  const std::uint32_t sub = rec.begin_sub(w, 0, 0, KiB, 0.4);
  rec.sub_storage(sub, 0.5, 0.5, 0.01, 0.05);
  rec.sub_net_done(sub, 0.6);  // stale
  const std::uint32_t s1 = rec.begin_sub(w, 0, 0, KiB, 0.6);
  const std::uint32_t s2 = rec.begin_sub(w, 0, 0, KiB, 0.6);
  EXPECT_NE(s1, s2);
  rec.sub_storage(s1, 0.6, 0.6, 0.01, 0.05);
  rec.sub_storage(s2, 0.6, 0.65, 0.01, 0.05);
  rec.end_request(w, 0.7);
  ASSERT_EQ(rec.requests().size(), 2u);
  EXPECT_EQ(rec.requests().back().subs.size(), 3u);
  // A sub of a request that already ended gets no id.
  EXPECT_EQ(rec.begin_sub(w, 0, 0, KiB, 0.8), obs::kNoId);
}

/// 64 requests (both ops, 4 clients, 3 stripes each) issued at once on a
/// 4-server cluster, so queues build up; a cost-model predictor prices each.
void run_contended(obs::Recorder& rec) {
  pfs::ClusterConfig cfg = deterministic_config();
  cfg.tiers[0].count = 4;
  cfg.num_clients = 4;
  const core::TieredCostParams params = matching_params(cfg);
  const std::vector<Bytes> stripes = {64 * KiB};
  rec.set_predictor([params, stripes](IoOp op, Bytes offset, Bytes size) {
    return core::request_cost(params, op, offset, size, stripes);
  });
  sim::Simulator sim;
  sim.set_observer(&rec);
  pfs::Cluster cluster(sim, cfg);
  auto layout = pfs::make_fixed_layout(cluster.num_servers(), 64 * KiB);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    cluster.client(static_cast<std::size_t>(i % 4))
        .io(*layout, i % 2 == 0 ? IoOp::kWrite : IoOp::kRead,
            static_cast<Bytes>(i) * 192 * KiB, 192 * KiB,
            [&] { ++completed; });
  }
  sim.run();
  ASSERT_EQ(completed, 64);
}

TEST(Recorder, DefaultKeepsNoRequestSamplesAndExportsTheSame) {
  // No export reads the request-sample ring, so a default recorder keeps
  // none; its metrics, time series and health summary must equal those of
  // a recorder that keeps every sample, fed the same run.
  const obs::TelemetryOptions armed = telemetry(1e-3, 2e-3);
  obs::Recorder plain(obs::Recorder::Options{}, armed);
  obs::Recorder sampled(obs::Recorder::Options{.max_request_samples = 128},
                        armed);
  run_contended(plain);
  run_contended(sampled);

  EXPECT_TRUE(plain.requests().empty());
  ASSERT_EQ(sampled.requests().size(), 64u);
  EXPECT_EQ(plain.requests_completed(), 64u);
  EXPECT_EQ(sampled.requests_completed(), 64u);

  auto exports = [](obs::Recorder& rec) {
    rec.health()->finalize();
    std::ostringstream metrics, series, health;
    rec.write_metrics_json(metrics);
    rec.health()->timeseries().write_json(series);
    rec.health()->write_json(health);
    return std::vector<std::string>{metrics.str(), series.str(),
                                    health.str()};
  };
  const auto a = exports(plain);
  const auto b = exports(sampled);
  // Not vacuous: the run filled several windows, priced every request and
  // checked the SLO.
  EXPECT_GT(plain.health()->timeseries().window_count(), 2u);
  EXPECT_NE(a[0].find("\"model.rel_error\""), std::string::npos);
  EXPECT_NE(a[0].find("\"health.slo.subs_met\""), std::string::npos);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
  EXPECT_EQ(a[2], b[2]);
}

/// Jobs with nondecreasing arrivals whose finishes come out of order
/// (services of random length), as no FIFO resource would produce.
struct DepthJob {
  Seconds arrival = 0.0;
  Seconds finish = 0.0;
};
std::vector<DepthJob> out_of_order_jobs() {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> gap(0.0, 0.2);
  std::uniform_real_distribution<double> service(0.01, 1.5);
  std::vector<DepthJob> jobs;
  Seconds t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += i % 7 == 3 ? 0.0 : gap(rng);  // some equal arrivals too
    jobs.push_back({t, t + service(rng)});
  }
  return jobs;
}

/// Brute force: jobs so far (this one included) still in flight at the
/// arrival of job `i`.
std::uint64_t brute_depth(const std::vector<DepthJob>& jobs, std::size_t i) {
  std::uint64_t depth = 0;
  for (std::size_t j = 0; j <= i; ++j) {
    if (jobs[j].finish > jobs[i].arrival) ++depth;
  }
  return depth;
}

TEST(Recorder, InflightDepthIsExactForOutOfOrderFinishes) {
  const auto jobs = out_of_order_jobs();
  obs::Recorder rec;
  const std::uint32_t track = rec.register_server(0, 0, "srv", false);
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    rec.resource_event(track, jobs[i].arrival, jobs[i].arrival,
                       jobs[i].finish);
    want = std::max(want, brute_depth(jobs, i));
  }
  EXPECT_GT(want, 3u);
  EXPECT_EQ(rec.resource_summaries()[0].depth_max, want);
}

/// The integers of JSON array `key` in `json` (first occurrence).
std::vector<std::int64_t> json_int_array(const std::string& json,
                                         const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": [");
  EXPECT_NE(at, std::string::npos) << key;
  std::vector<std::int64_t> out;
  if (at == std::string::npos) return out;
  std::istringstream in(json.substr(json.find('[', at) + 1));
  for (std::int64_t v; in >> v;) {
    out.push_back(v);
    char sep = 0;
    if (!(in >> sep) || sep != ',') break;
  }
  return out;
}

TEST(HealthMonitor, InflightDepthIsExactForOutOfOrderFinishes) {
  const auto jobs = out_of_order_jobs();
  obs::Recorder rec(obs::Recorder::Options{}, telemetry(1.0));
  const obs::HealthMonitor& hm = *rec.health();
  const std::uint32_t track = rec.register_server(0, 0, "srv", false);
  std::map<std::int64_t, std::uint64_t> want;  // window -> max depth
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    rec.resource_event(track, jobs[i].arrival, jobs[i].arrival,
                       jobs[i].finish);
    auto& w = want[hm.timeseries().window_of(jobs[i].arrival)];
    w = std::max(w, brute_depth(jobs, i));
  }
  std::ostringstream out;
  hm.timeseries().write_json(out);
  const std::string json = out.str();
  const auto windows = json_int_array(json, "window_index");
  const auto depth = json_int_array(json, "depth_max");
  ASSERT_EQ(windows.size(), depth.size());
  ASSERT_FALSE(windows.empty());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    auto it = want.find(windows[i]);
    const std::uint64_t expected = it == want.end() ? 0 : it->second;
    EXPECT_EQ(static_cast<std::uint64_t>(depth[i]), expected)
        << "window " << windows[i];
  }
}

}  // namespace
}  // namespace harl

// Tests for the deterministic telemetry subsystem: registry semantics,
// histogram bucketing, event sinks, the thread-count bit-identity
// contract, and the wiring into the trainers, filters, exact algorithm,
// and net layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "attacks/registry.h"
#include "core/exact_algorithm.h"
#include "data/regression.h"
#include "dgd/elimination_stats.h"
#include "dgd/trainer.h"
#include "filters/instrumented.h"
#include "filters/registry.h"
#include "net/sync_network.h"
#include "runtime/runtime.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "util/error.h"

using namespace redopt;
using linalg::Vector;
namespace tel = redopt::telemetry;

namespace {

/// Restores the global telemetry switch, sinks, registry values, and the
/// runtime thread count around each test.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = runtime::threads();
    tel::set_enabled(false);
    tel::clear_sinks();
    tel::registry().reset();
  }
  void TearDown() override {
    tel::set_enabled(false);
    tel::clear_sinks();
    tel::registry().reset();
    runtime::set_threads(previous_threads_);
  }

 private:
  std::size_t previous_threads_ = 1;
};

dgd::TrainerConfig paper_config(std::size_t iterations) {
  filters::FilterParams fp;
  fp.n = 6;
  fp.f = 1;
  dgd::TrainerConfig cfg;
  cfg.filter = filters::make_filter("cge", fp);
  cfg.schedule = std::make_shared<dgd::HarmonicSchedule>(0.3);
  cfg.projection = std::make_shared<dgd::BoxProjection>(dgd::BoxProjection::cube(2, 10.0));
  cfg.iterations = iterations;
  cfg.trace_stride = 0;
  return cfg;
}

const tel::MetricValue* find_metric(const tel::Snapshot& snapshot, const std::string& name) {
  for (const auto& m : snapshot) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// Reads a counter's merged value through a snapshot, so a misspelled name
/// never silently registers a fresh zero-valued counter.
std::uint64_t counter_value(const std::string& name) {
  const auto snapshot = tel::registry().snapshot();
  const auto* m = find_metric(snapshot, name);
  return (m != nullptr && m->kind == tel::MetricValue::Kind::kCounter) ? m->counter : 0;
}

/// Asserts every kStable metric has bit-identical merged values in the two
/// snapshots (the core of the determinism contract).
void expect_stable_metrics_equal(const tel::Snapshot& a, const tel::Snapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    ASSERT_EQ(x.name, y.name);
    if (x.determinism != tel::Determinism::kStable) continue;
    EXPECT_EQ(x.counter, y.counter) << x.name;
    EXPECT_EQ(x.gauge, y.gauge) << x.name;
    EXPECT_EQ(x.bucket_counts, y.bucket_counts) << x.name;
    EXPECT_EQ(x.overflow_count, y.overflow_count) << x.name;
    EXPECT_EQ(x.count, y.count) << x.name;
    EXPECT_EQ(x.sum, y.sum) << x.name;
    EXPECT_EQ(x.min, y.min) << x.name;
    EXPECT_EQ(x.max, y.max) << x.name;
  }
}

/// A node that rebroadcasts nothing; used for fault-model tests.
class SilentNode final : public net::Node {
 public:
  explicit SilentNode(std::vector<net::Message> to_send_round0 = {})
      : to_send_(std::move(to_send_round0)) {}

  std::vector<net::Message> on_round(std::size_t round,
                                     const std::vector<net::Message>& inbox) override {
    delivered_ += inbox.size();
    if (round == 0) return to_send_;
    return {};
  }

  std::size_t delivered() const { return delivered_; }

 private:
  std::vector<net::Message> to_send_;
  std::size_t delivered_ = 0;
};

net::Message broadcast_msg(Vector payload) {
  net::Message m;
  m.to = net::kBroadcast;
  m.tag = "b";
  m.payload = std::move(payload);
  return m;
}

}  // namespace

TEST_F(TelemetryTest, RegistrationIsIdempotentByName) {
  tel::Registry r;
  const auto a = r.counter("requests");
  const auto b = r.counter("requests");
  EXPECT_EQ(r.size(), 1u);
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST_F(TelemetryTest, ReRegistrationMismatchesThrow) {
  tel::Registry r;
  r.counter("m");
  EXPECT_THROW(r.gauge("m"), PreconditionError);
  EXPECT_THROW(r.histogram("m", tel::BucketLayout::linear(0.0, 1.0, 4)), PreconditionError);
  EXPECT_THROW(r.counter("m", tel::Determinism::kUnstable), PreconditionError);

  r.histogram("h", tel::BucketLayout::linear(0.0, 1.0, 4));
  EXPECT_THROW(r.histogram("h", tel::BucketLayout::linear(0.0, 1.0, 5)), PreconditionError);
  EXPECT_NO_THROW(r.histogram("h", tel::BucketLayout::linear(0.0, 1.0, 4)));
}

TEST_F(TelemetryTest, SnapshotOrderIsNameSortedNotRegistrationOrder) {
  // Regression for rule D2: manifest byte-identity must not depend on
  // the order call sites happened to register metrics in (nor on any
  // hash-table layout).  Two registries with the same metrics registered
  // in opposite orders must produce identical snapshots.
  const auto layout = tel::BucketLayout::linear(0.0, 1.0, 3);
  tel::Registry first;
  first.counter("b.count").inc(2);
  first.gauge("a.ratio").set(0.5);
  first.histogram("c.size", layout).observe(1.5);

  tel::Registry second;
  second.histogram("c.size", layout).observe(1.5);
  second.gauge("a.ratio").set(0.5);
  second.counter("b.count").inc(2);

  const auto sa = first.snapshot();
  const auto sb = second.snapshot();
  ASSERT_EQ(sa.size(), 3u);
  EXPECT_EQ(sa[0].name, "a.ratio");
  EXPECT_EQ(sa[1].name, "b.count");
  EXPECT_EQ(sa[2].name, "c.size");
  expect_stable_metrics_equal(sa, sb);
  // The serialized forms (what a manifest actually contains) match too.
  EXPECT_EQ(tel::render_prometheus(sa), tel::render_prometheus(sb));
}

TEST_F(TelemetryTest, BucketLayoutConstruction) {
  const auto lin = tel::BucketLayout::linear(1.0, 0.5, 3);
  EXPECT_EQ(lin.upper_bounds, (std::vector<double>{1.0, 1.5, 2.0}));
  const auto exp = tel::BucketLayout::exponential(1e-2, 10.0, 3);
  EXPECT_EQ(exp.upper_bounds, (std::vector<double>{1e-2, 1e-1, 1.0}));
  EXPECT_THROW(tel::BucketLayout::explicit_bounds({1.0, 1.0}), PreconditionError);
  EXPECT_THROW(tel::BucketLayout::explicit_bounds({}), PreconditionError);
  EXPECT_THROW(tel::BucketLayout::exponential(0.0, 2.0, 3), PreconditionError);
}

TEST_F(TelemetryTest, HistogramBucketingIsInclusiveOnUpperBounds) {
  tel::Registry r;
  const auto h = r.histogram("h", tel::BucketLayout::explicit_bounds({1.0, 2.0, 4.0}));
  h.observe(0.5);  // bucket le=1
  h.observe(1.0);  // bucket le=1 (boundary value is included)
  h.observe(1.5);  // bucket le=2
  h.observe(4.0);  // bucket le=4
  h.observe(5.0);  // overflow
  const auto snap = r.snapshot();
  const auto* m = find_metric(snap, "h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->bucket_counts, (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(m->overflow_count, 1u);
  EXPECT_EQ(m->count, 5u);
  EXPECT_DOUBLE_EQ(m->sum, 12.0);
  EXPECT_DOUBLE_EQ(m->min, 0.5);
  EXPECT_DOUBLE_EQ(m->max, 5.0);
}

TEST_F(TelemetryTest, HistogramNanGoesToOverflowAndSkipsAggregates) {
  tel::Registry r;
  const auto h = r.histogram("h", tel::BucketLayout::explicit_bounds({1.0}));
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  const auto snap = r.snapshot();
  const auto* m = find_metric(snap, "h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 2u);
  EXPECT_EQ(m->overflow_count, 1u);
  EXPECT_DOUBLE_EQ(m->sum, 0.5);
  EXPECT_DOUBLE_EQ(m->min, 0.5);
  EXPECT_DOUBLE_EQ(m->max, 0.5);
}

TEST_F(TelemetryTest, ResetZeroesValuesButKeepsRegistrations) {
  tel::Registry r;
  const auto c = r.counter("c");
  const auto g = r.gauge("g");
  const auto h = r.histogram("h", tel::BucketLayout::linear(0.0, 1.0, 2));
  c.inc(7);
  g.set(3.5);
  h.observe(0.5);
  r.reset();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  const auto snap = r.snapshot();
  const auto* m = find_metric(snap, "h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 0u);
}

namespace redopt::telemetry {
struct RegistryTestPeer {
  static std::size_t thread_cache_size() { return Registry::thread_cache_size(); }
};
}  // namespace redopt::telemetry

TEST_F(TelemetryTest, ThreadShardCacheHoldsOnlyLiveRegistries) {
  // A thread that records into thousands of short-lived registries (one
  // per replica island or job manifest) must not keep a shard handle per
  // registry it ever used: the cache holds the live ones only.
  constexpr std::size_t kRegistries = 5000;
  std::size_t largest_cache = 0;
  std::uint64_t wrong_counts = 0;
  std::uint64_t keeper_total = 0;
  std::thread([&] {
    tel::Registry keeper;
    const auto kept = keeper.counter("kept");
    for (std::size_t k = 0; k < kRegistries; ++k) {
      tel::Registry island;
      const auto c = island.counter("c");
      const auto h = island.histogram("h", tel::BucketLayout::linear(0.0, 1.0, 4));
      c.inc(k % 7 + 1);
      c.inc();
      h.observe(0.5);
      kept.inc();
      largest_cache = std::max(largest_cache, tel::RegistryTestPeer::thread_cache_size());
      const auto snap = island.snapshot();
      const auto* hist = find_metric(snap, "h");
      if (c.value() != k % 7 + 2 || hist == nullptr || hist->count != 1) ++wrong_counts;
    }
    keeper_total = kept.value();
  }).join();
  // keeper + the island of the iteration.
  EXPECT_LE(largest_cache, 2u);
  EXPECT_EQ(wrong_counts, 0u);
  EXPECT_EQ(keeper_total, kRegistries);
}

TEST_F(TelemetryTest, CountersAndHistogramsAreBitIdenticalAcrossThreadCounts) {
  tel::Registry r;
  const auto c = r.counter("work.items");
  const auto h = r.histogram("work.size", tel::BucketLayout::linear(0.0, 16.0, 8));
  const std::size_t kItems = 1000;

  auto workload = [&] {
    runtime::parallel_for(0, kItems, [&](std::size_t i) {
      c.inc(i % 3 + 1);
      // Integer-valued observations: the double sum is exact in any
      // recording order, so even the sum must match bit-for-bit.
      h.observe(static_cast<double>(i % 100));
    });
  };

  runtime::set_threads(1);
  workload();
  const auto serial = r.snapshot();
  r.reset();

  runtime::set_threads(4);
  workload();
  const auto parallel = r.snapshot();

  expect_stable_metrics_equal(serial, parallel);
  const auto* m = find_metric(parallel, "work.items");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->counter, 0u);
}

TEST_F(TelemetryTest, JsonlSinkSerializationAndFileRoundTrip) {
  tel::Event e("demo");
  e.with("i", static_cast<std::int64_t>(-3));
  e.with("u", static_cast<std::uint64_t>(7));
  e.with("d", 0.5);
  e.with("flag", true);
  e.with("s", std::string("a\"b\x01"));
  e.with_nd("wall_s", 1.5);
  const std::string expected =
      "{\"event\":\"demo\",\"fields\":{\"i\":-3,\"u\":7,\"d\":0.5,\"flag\":true,"
      "\"s\":\"a\\\"b\\u0001\"},\"nd\":{\"wall_s\":1.5}}";
  EXPECT_EQ(tel::JsonlSink::to_json(e), expected);

  // No-nd events omit the "nd" key entirely, so stripping nd objects from a
  // manifest leaves such lines untouched.
  tel::Event bare("bare");
  bare.with("x", static_cast<std::int64_t>(1));
  EXPECT_EQ(tel::JsonlSink::to_json(bare), "{\"event\":\"bare\",\"fields\":{\"x\":1}}");

  const auto path =
      (std::filesystem::temp_directory_path() / "redopt_test_telemetry.jsonl").string();
  {
    auto sink = std::make_shared<tel::JsonlSink>(path);
    tel::set_enabled(true);
    tel::add_sink(sink);
    tel::emit(e);
    tel::emit(bare);
    tel::remove_sink(sink.get());
  }
  std::ifstream in(path);
  std::string line1, line2, line3;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_FALSE(std::getline(in, line3));
  EXPECT_EQ(line1, expected);
  EXPECT_EQ(line2, "{\"event\":\"bare\",\"fields\":{\"x\":1}}");
  std::remove(path.c_str());

  EXPECT_THROW(tel::JsonlSink("/nonexistent-dir/x/y.jsonl"), PreconditionError);
}

TEST_F(TelemetryTest, EmitRequiresEnabledAndASink) {
  auto sink = std::make_shared<tel::MemorySink>();
  const tel::Event e("ping");

  // Sink attached but telemetry disabled: no emission.
  tel::add_sink(sink);
  EXPECT_FALSE(tel::tracing_enabled());
  tel::emit(e);
  EXPECT_TRUE(sink->events().empty());

  // Enabled without a sink: tracing stays off.
  tel::clear_sinks();
  tel::set_enabled(true);
  EXPECT_FALSE(tel::tracing_enabled());

  tel::add_sink(sink);
  EXPECT_TRUE(tel::tracing_enabled());
  tel::emit(e);
  ASSERT_EQ(sink->events().size(), 1u);
  EXPECT_EQ(sink->events()[0].name, "ping");

  tel::remove_sink(sink.get());
  EXPECT_FALSE(tel::tracing_enabled());
}

TEST_F(TelemetryTest, MetricsSnapshotEventsRouteUnstableValuesToNd) {
  tel::Registry r;
  r.counter("stable.count").inc(4);
  r.counter("wall.count", tel::Determinism::kUnstable).inc(9);

  auto sink = std::make_shared<tel::MemorySink>();
  tel::set_enabled(true);
  tel::add_sink(sink);
  tel::emit_metrics_snapshot(r.snapshot());

  ASSERT_EQ(sink->events().size(), 2u);
  const auto& stable = sink->events()[0];
  EXPECT_EQ(stable.name, "metric");
  ASSERT_EQ(stable.fields.size(), 3u);  // name, kind, value
  EXPECT_EQ(stable.fields[2].first, "value");
  EXPECT_TRUE(stable.nd_fields.empty());

  const auto& unstable = sink->events()[1];
  ASSERT_EQ(unstable.fields.size(), 2u);  // name, kind only
  ASSERT_EQ(unstable.nd_fields.size(), 1u);
  EXPECT_EQ(unstable.nd_fields[0].first, "value");
  EXPECT_EQ(std::get<std::uint64_t>(unstable.nd_fields[0].second), 9u);
}

TEST_F(TelemetryTest, ScopeRecordsCallsAndSeconds) {
  tel::set_enabled(true);
  {
    tel::Scope scope("unit.op");
    EXPECT_GE(scope.elapsed_seconds(), 0.0);
  }
  { tel::Scope scope("unit.op"); }
  EXPECT_EQ(counter_value("unit.op.calls"), 2u);
  const auto snap = tel::registry().snapshot();
  const auto* seconds = find_metric(snap, "unit.op.seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->determinism, tel::Determinism::kUnstable);
  EXPECT_EQ(seconds->count, 2u);

  // Disabled at construction: fully inert.
  tel::set_enabled(false);
  { tel::Scope scope("unit.op"); }
  tel::set_enabled(true);
  EXPECT_EQ(counter_value("unit.op.calls"), 2u);
}

TEST_F(TelemetryTest, RenderPrometheusExposition) {
  tel::Registry r;
  r.counter("app.requests").inc(3);
  r.gauge("app.ratio").set(0.25);
  const auto h =
      r.histogram("app.latency", tel::BucketLayout::explicit_bounds({1.0, 2.0}),
                  tel::Determinism::kUnstable);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string text = tel::render_prometheus(r.snapshot());
  EXPECT_NE(text.find("# TYPE redopt_app_requests counter\nredopt_app_requests 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("redopt_app_ratio 0.25"), std::string::npos);
  EXPECT_NE(text.find("# NONDETERMINISTIC redopt_app_latency"), std::string::npos);
  // Cumulative bucket counts plus the +Inf bucket.
  EXPECT_NE(text.find("redopt_app_latency_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("redopt_app_latency_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("redopt_app_latency_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("redopt_app_latency_count 3"), std::string::npos);
}

TEST_F(TelemetryTest, InstrumentedFilterIsAPureDecorator) {
  filters::FilterParams fp;
  fp.n = 6;
  fp.f = 1;
  const filters::FilterPtr inner = filters::make_filter("cge", fp);
  const auto wrapped = filters::instrument(inner, "unit");

  rng::Rng rng(7);
  std::vector<Vector> gradients;
  for (std::size_t i = 0; i < 6; ++i) {
    gradients.push_back(Vector{rng.uniform(), rng.uniform()});
  }

  EXPECT_EQ(wrapped->name(), inner->name());
  EXPECT_EQ(wrapped->expected_inputs(), inner->expected_inputs());
  EXPECT_EQ(wrapped->accepted_inputs(gradients), inner->accepted_inputs(gradients));
  EXPECT_EQ(wrapped->apply(gradients), inner->apply(gradients));

  // One apply() recorded: 6 norms observed, n - f accepted, f rejected,
  // and exactly the surviving agents' accept counters bumped.
  EXPECT_EQ(counter_value("unit.filter.cge.accepted_total"), 5u);
  EXPECT_EQ(counter_value("unit.filter.cge.rejected_total"), 1u);
  const auto snap = tel::registry().snapshot();
  const auto* norms = find_metric(snap, "unit.filter.cge.gradient_norm");
  ASSERT_NE(norms, nullptr);
  EXPECT_EQ(norms->count, 6u);
  const auto accepted = inner->accepted_inputs(gradients);
  for (std::size_t i = 0; i < 6; ++i) {
    const bool in = std::find(accepted.begin(), accepted.end(), i) != accepted.end();
    EXPECT_EQ(counter_value("unit.filter.cge.accept.agent_" + std::to_string(i)), in ? 1u : 0u);
  }
}

TEST_F(TelemetryTest, TrainerTelemetryIsBitIdenticalAcrossThreadCounts) {
  tel::set_enabled(true);
  rng::Rng rng(11);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.03, 1, rng);
  const auto attack = attacks::make_attack("gradient_reverse");
  const auto cfg = paper_config(120);

  runtime::set_threads(1);
  const auto r1 = dgd::train(inst.problem, {0}, attack.get(), cfg);
  const auto serial = tel::registry().snapshot();
  tel::registry().reset();

  runtime::set_threads(4);
  const auto r4 = dgd::train(inst.problem, {0}, attack.get(), cfg);
  const auto parallel = tel::registry().snapshot();

  EXPECT_EQ(r1.estimate, r4.estimate);
  expect_stable_metrics_equal(serial, parallel);
  const auto* iters = find_metric(parallel, "dgd.iterations");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->counter, 120u);
}

TEST_F(TelemetryTest, CgeAcceptCountersMatchEliminationStats) {
  tel::set_enabled(true);
  rng::Rng rng(2);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.05, 1, rng);
  const auto attack = attacks::make_attack("gradient_reverse");
  const auto cfg = paper_config(300);

  const auto stats = dgd::analyze_cge_elimination(inst.problem, {0}, attack.get(), cfg);
  dgd::train(inst.problem, {0}, attack.get(), cfg);

  std::uint64_t accepted_total = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(counter_value("dgd.filter.cge.accept.agent_" + std::to_string(i)),
              stats.survival_counts[i])
        << "agent " << i;
    accepted_total += stats.survival_counts[i];
  }
  EXPECT_EQ(counter_value("dgd.filter.cge.accepted_total"), accepted_total);
  EXPECT_EQ(counter_value("dgd.filter.cge.rejected_total"), 300u * 6u - accepted_total);
  EXPECT_EQ(counter_value("dgd.iterations"), 300u);
}

TEST_F(TelemetryTest, ExactAlgorithmCountersAndEvent) {
  auto sink = std::make_shared<tel::MemorySink>();
  tel::set_enabled(true);
  tel::add_sink(sink);

  rng::Rng rng(1);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  const auto result = core::run_exact_algorithm(inst.problem.costs, 1);
  EXPECT_EQ(result.subsets_evaluated, 6u);

  EXPECT_EQ(counter_value("exact.runs"), 1u);
  EXPECT_EQ(counter_value("exact.outer_candidates"), 6u);
  EXPECT_GT(counter_value("exact.inner_evaluations"), 0u);

  const tel::Event* run_event = nullptr;
  for (const auto& e : sink->events()) {
    if (e.name == "exact.run") run_event = &e;
  }
  ASSERT_NE(run_event, nullptr);
  ASSERT_GE(run_event->fields.size(), 4u);
  EXPECT_EQ(run_event->fields[0].first, "n");
  EXPECT_EQ(std::get<std::uint64_t>(run_event->fields[0].second), 6u);
  EXPECT_EQ(run_event->fields[1].first, "f");
  EXPECT_EQ(std::get<std::uint64_t>(run_event->fields[1].second), 1u);
  EXPECT_EQ(run_event->fields[2].first, "sampled");
  EXPECT_FALSE(std::get<bool>(run_event->fields[2].second));
  // The inner-evaluation count depends on the lane-local pruning pattern,
  // so it travels in the nd section.
  ASSERT_EQ(run_event->nd_fields.size(), 1u);
  EXPECT_EQ(run_event->nd_fields[0].first, "inner_evaluations");
}

TEST_F(TelemetryTest, LosslessNetworkDeliversEverythingItSends) {
  SilentNode sender({broadcast_msg(Vector{1.0, 2.0})});
  SilentNode r1, r2;
  net::SyncNetwork network({&sender, &r1, &r2});
  network.run(2);
  const auto& s = network.stats();
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.messages_delivered, 2u);
  EXPECT_EQ(s.messages_dropped, 0u);
  EXPECT_EQ(s.messages_delayed, 0u);
  EXPECT_EQ(s.scalars_transferred, 4u);
  EXPECT_EQ(counter_value("net.messages_sent"), 2u);
  EXPECT_EQ(counter_value("net.messages_delivered"), 2u);
  EXPECT_EQ(counter_value("net.rounds"), 2u);
}

TEST_F(TelemetryTest, DropAllFaultsDeliverNothing) {
  net::LinkFaults faults;
  faults.drop_probability = 1.0;
  SilentNode sender({broadcast_msg(Vector{1.0})});
  SilentNode r1, r2;
  net::SyncNetwork network({&sender, &r1, &r2}, faults);
  network.run(3);
  const auto& s = network.stats();
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.messages_dropped, 2u);
  EXPECT_EQ(s.messages_delivered, 0u);
  EXPECT_EQ(r1.delivered() + r2.delivered(), 0u);
  EXPECT_EQ(counter_value("net.messages_dropped"), 2u);
}

TEST_F(TelemetryTest, DelayedMessagesArriveAndConserveCounts) {
  net::LinkFaults faults;
  faults.max_delay = 3;
  faults.seed = 5;
  SilentNode sender({broadcast_msg(Vector{1.0, 2.0, 3.0})});
  std::vector<SilentNode> receivers(4);
  std::vector<net::Node*> nodes{&sender};
  for (auto& r : receivers) nodes.push_back(&r);
  net::SyncNetwork network(nodes, faults);
  // Enough rounds for every delayed copy (max 3 extra rounds) to land.
  network.run(8);
  const auto& s = network.stats();
  EXPECT_EQ(s.messages_sent, 4u);
  EXPECT_EQ(s.messages_dropped, 0u);
  EXPECT_EQ(s.messages_delivered, 4u);  // conservation: all sent arrive
  std::size_t received = 0;
  for (const auto& r : receivers) received += r.delivered();
  EXPECT_EQ(received, 4u);
  EXPECT_EQ(s.scalars_transferred, 12u);
}

TEST_F(TelemetryTest, FaultyNetworkIsReproducible) {
  auto run_once = [] {
    net::LinkFaults faults;
    faults.drop_probability = 0.4;
    faults.max_delay = 2;
    faults.seed = 9;
    SilentNode sender({broadcast_msg(Vector{1.0})});
    std::vector<SilentNode> receivers(5);
    std::vector<net::Node*> nodes{&sender};
    for (auto& r : receivers) nodes.push_back(&r);
    net::SyncNetwork network(nodes, faults);
    network.run(6);
    return network.stats();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_delayed, b.messages_delayed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_sent, a.messages_dropped + a.messages_delivered + 0u);
}

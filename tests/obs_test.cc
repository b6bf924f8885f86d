// The observability layer's contracts: registry merges are deterministic
// across thread counts, spans nest per track, the Chrome-trace export
// round-trips through the strict JSON parser, attaching observers never
// changes simulated results, and every simulated-cost span/counter field is
// bit-identical across thread counts {1,2,8}, against the serial oracles,
// and across the cached-vs-fresh grid paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/pagerank.h"
#include "engine/gas_engine.h"
#include "engine/plan_cache.h"
#include "engine/reference_engine.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "harness/grid.h"
#include "harness/partition_cache.h"
#include "obs/chrome_trace.h"
#include "obs/exec_context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/ingest.h"
#include "sim/cluster.h"
#include "util/thread_pool.h"

namespace gdp::obs {
namespace {

constexpr uint32_t kMachines = 9;
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, CounterAddsAndMerges) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  c->Add(40);
  c->Increment();
  c->Increment();
  EXPECT_EQ(c->Value(), 42u);
  // Same name, same handle.
  EXPECT_EQ(registry.GetCounter("c"), c);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ObsMetricsTest, GaugeSetAndSetMax) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->SetMax(3);  // lower: no change
  EXPECT_EQ(g->Value(), 7);
  g->SetMax(11);
  EXPECT_EQ(g->Value(), 11);
}

TEST(ObsMetricsTest, HistogramBucketsByBitWidth) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Observe(0);     // bit_width 0
  h->Observe(1);     // bit_width 1
  h->Observe(2);     // bit_width 2
  h->Observe(3);     // bit_width 2
  h->Observe(1024);  // bit_width 11
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_EQ(h->Sum(), 1030u);
  EXPECT_EQ(h->Max(), 1024u);
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 2u);
  EXPECT_EQ(h->BucketCount(11), 1u);
  EXPECT_EQ(h->BucketCount(3), 0u);
}

TEST(ObsMetricsTest, HistogramValueAtQuantileWalksBucketBoundaries) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(h->ValueAtQuantile(0.5), 0u);  // empty histogram

  // 90 samples in [4, 8) (bit_width 3), 10 samples in [512, 1024)
  // (bit_width 10).
  for (int i = 0; i < 90; ++i) h->Observe(5);
  for (int i = 0; i < 10; ++i) h->Observe(700);
  // Any quantile within the first 90 samples resolves to bucket 3's upper
  // bound 2^3 - 1; the tail lands in bucket 10 (upper bound 2^10 - 1).
  EXPECT_EQ(h->ValueAtQuantile(0.0), 7u);
  EXPECT_EQ(h->ValueAtQuantile(0.5), 7u);
  EXPECT_EQ(h->ValueAtQuantile(0.9), 7u);
  EXPECT_EQ(h->ValueAtQuantile(0.91), 1023u);
  EXPECT_EQ(h->ValueAtQuantile(0.99), 1023u);
  EXPECT_EQ(h->ValueAtQuantile(1.0), 1023u);

  // A zero-valued sample lives in bucket 0, whose upper bound is 0.
  Histogram* zeros = registry.GetHistogram("zeros");
  zeros->Observe(0);
  EXPECT_EQ(zeros->ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(zeros->ValueAtQuantile(1.0), 0u);

  // Out-of-range q clamps.
  EXPECT_EQ(h->ValueAtQuantile(-1.0), 7u);
  EXPECT_EQ(h->ValueAtQuantile(2.0), 1023u);
}

TEST(ObsMetricsTest, HistogramSingleSampleQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("single");
  h->Observe(37);  // bit_width 6 -> bucket upper bound 63
  // Every quantile of a one-sample histogram resolves to that sample's
  // bucket bound, including both endpoints.
  EXPECT_EQ(h->ValueAtQuantile(0.0), 63u);
  EXPECT_EQ(h->ValueAtQuantile(0.5), 63u);
  EXPECT_EQ(h->ValueAtQuantile(0.99), 63u);
  EXPECT_EQ(h->ValueAtQuantile(1.0), 63u);
  const std::vector<MetricsRegistry::Sample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].p50, 63u);
  EXPECT_EQ(snapshot[0].p99, 63u);
  EXPECT_EQ(snapshot[0].sum, 37u);
  EXPECT_EQ(snapshot[0].max, 37u);
}

TEST(ObsMetricsTest, HistogramConcurrentRecordsExportDeterministically) {
  // Quantile export (the p50/p99 MetricsTable columns) must not depend on
  // the interleaving of concurrent Observe calls: bucket counts are
  // order-free sums. Record the same multiset of samples serially and from
  // 8 threads and require identical table rows.
  const auto sample_value = [](uint64_t i) {
    return (i % 10 == 9) ? 5000u + i : 20u + i % 8;  // heavy tail every 10th
  };
  constexpr uint64_t kSamples = 4000;

  MetricsRegistry serial_registry;
  Histogram* serial = serial_registry.GetHistogram("latency_us");
  for (uint64_t i = 0; i < kSamples; ++i) serial->Observe(sample_value(i));

  MetricsRegistry threaded_registry;
  Histogram* threaded = threaded_registry.GetHistogram("latency_us");
  util::ThreadPool pool(8);
  pool.ParallelFor(kSamples, [&](uint64_t i, uint32_t /*lane*/) {
    threaded->Observe(sample_value(i));
  });

  EXPECT_EQ(serial_registry.Snapshot(), threaded_registry.Snapshot());
  EXPECT_EQ(MetricsTable(serial_registry).ToAscii(),
            MetricsTable(threaded_registry).ToAscii());
  // The exported percentile columns carry real values, not placeholders.
  const MetricsRegistry::Sample row = threaded_registry.Snapshot().at(0);
  EXPECT_EQ(row.p50, (1u << 5) - 1);   // 20..27 -> bucket 5
  EXPECT_EQ(row.p99, (1u << 14) - 1);  // p99 rank 3960 > 3919 in-bucket-13
}

TEST(ObsMetricsTest, SnapshotCarriesHistogramQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  for (int i = 0; i < 99; ++i) h->Observe(3);
  h->Observe(100000);

  const std::vector<MetricsRegistry::Sample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].p50, 3u);
  EXPECT_EQ(snapshot[0].p99, 3u);
  h->Observe(100000);  // 100 -> p99 rank now reaches the big bucket
  EXPECT_EQ(registry.Snapshot()[0].p99, (1u << 17) - 1);
}

TEST(ObsMetricsTest, SnapshotReportsRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("b_counter")->Add(2);
  registry.GetGauge("a_gauge")->Set(-5);
  registry.GetHistogram("c_hist")->Observe(9);

  const std::vector<MetricsRegistry::Sample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "b_counter");
  EXPECT_EQ(snapshot[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot[0].value, 2);
  EXPECT_EQ(snapshot[1].name, "a_gauge");
  EXPECT_EQ(snapshot[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snapshot[1].value, -5);
  EXPECT_EQ(snapshot[2].name, "c_hist");
  EXPECT_EQ(snapshot[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot[2].value, 1);  // sample count
  EXPECT_EQ(snapshot[2].sum, 9u);
  EXPECT_EQ(snapshot[2].max, 9u);
}

TEST(ObsMetricsTest, MergeFromAddsCountersAndMaxesGauges) {
  MetricsRegistry a;
  a.GetCounter("shared")->Add(10);
  a.GetGauge("peak")->Set(5);

  MetricsRegistry b;
  b.GetCounter("shared")->Add(32);
  b.GetGauge("peak")->Set(9);
  b.GetHistogram("only_b")->Observe(3);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("shared")->Value(), 42u);
  EXPECT_EQ(a.GetGauge("peak")->Value(), 9);
  EXPECT_EQ(a.GetHistogram("only_b")->Count(), 1u);
  // New names land after a's existing registrations, in b's order.
  const std::vector<MetricsRegistry::Sample> snapshot = a.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[2].name, "only_b");
}

TEST(ObsMetricsTest, ConcurrentCounterWritesMergeDeterministically) {
  // The same logical increments, pushed through 1/2/8 worker threads, must
  // produce identical snapshots: shard merge is integer summation.
  std::vector<std::vector<MetricsRegistry::Sample>> snapshots;
  for (uint32_t threads : kThreadCounts) {
    MetricsRegistry registry;
    Counter* edges = registry.GetCounter("edges");
    Histogram* degrees = registry.GetHistogram("degrees");
    util::ThreadPool pool(threads);
    pool.ParallelFor(1000, [&](uint64_t i, uint32_t) {
      edges->Add(i);
      degrees->Observe(i % 97);
    });
    snapshots.push_back(registry.Snapshot());
  }
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i], snapshots[0]) << "thread count index " << i;
  }
  EXPECT_EQ(snapshots[0][0].value, 999 * 1000 / 2);
}

// ---------------------------------------------------------------------------
// Trace recorder and spans.
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, SpansNestPerTrack) {
  TraceRecorder recorder;
  const TraceRecorder::SpanId outer = recorder.Begin(0, "outer", "t", 0.0);
  const TraceRecorder::SpanId inner = recorder.Begin(0, "inner", "t", 1.0);
  // A different track nests independently.
  const TraceRecorder::SpanId other = recorder.Begin(7, "other", "t", 0.5);
  recorder.End(inner, 2.0);
  recorder.End(outer, 3.0);
  recorder.End(other, 1.5);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].sim_begin_seconds, 0.0);
  EXPECT_EQ(spans[0].sim_end_seconds, 3.0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "other");
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_EQ(spans[2].track, 7u);

  const std::vector<TraceSpan> by_track = recorder.SpansByTrack();
  EXPECT_EQ(by_track[0].track, 0u);
  EXPECT_EQ(by_track[1].track, 0u);
  EXPECT_EQ(by_track[2].track, 7u);
}

TEST(ObsTraceTest, ScopedSpanClosesAtBeginWhenNeverEnded) {
  TraceRecorder recorder;
  {
    ScopedSpan span(&recorder, 0, "s", "t", 4.0);
    span.Arg("k", 1);
  }
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].sim_begin_seconds, 4.0);
  EXPECT_EQ(spans[0].sim_end_seconds, 4.0);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "k");
  EXPECT_EQ(spans[0].args[0].second, 1);
}

TEST(ObsTraceTest, ScopedSpanIsNullSafe) {
  ScopedSpan inert;
  inert.Arg("k", 1);
  inert.End(1.0);
  ScopedSpan null_recorder(nullptr, 0, "s", "t", 0.0);
  null_recorder.Arg("k", 2);
  null_recorder.End(2.0);
  // Reaching here without touching any recorder is the test.
}

// ---------------------------------------------------------------------------
// Chrome trace export + strict JSON parser round trip.
// ---------------------------------------------------------------------------

TEST(ObsChromeTraceTest, ExportRoundTripsThroughParser) {
  TraceRecorder recorder;
  const TraceRecorder::SpanId id =
      recorder.Begin(3, "pass \"0\" \\ ingress", "ingress", 1.25);
  recorder.Arg(id, "ticks", 12345);
  recorder.Arg(id, "negative", -7);
  recorder.End(id, 2.5);

  const std::string json = ToChromeTraceJson(recorder);
  ASSERT_TRUE(ValidateChromeTraceJson(json).ok()) << json;

  util::StatusOr<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const JsonValue& event = events->array[0];
  EXPECT_EQ(event.Find("name")->string, "pass \"0\" \\ ingress");
  EXPECT_EQ(event.Find("ph")->string, "X");
  EXPECT_EQ(event.Find("tid")->number, 3.0);
  const JsonValue* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("ticks")->number, 12345.0);
  EXPECT_EQ(args->Find("negative")->number, -7.0);
  EXPECT_EQ(args->Find("sim_begin_s")->number, 1.25);
  EXPECT_EQ(args->Find("sim_end_s")->number, 2.5);
}

TEST(ObsChromeTraceTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"bad\\escape\": 1}").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_TRUE(ParseJson("{\"u\": \"\\u0041\", \"n\": -1.5e3}").ok());
}

TEST(ObsChromeTraceTest, ValidatorRejectsNonTraceDocuments) {
  EXPECT_FALSE(ValidateChromeTraceJson("{\"foo\": 1}").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("[]").ok());
  // An X event without dur is invalid.
  EXPECT_FALSE(ValidateChromeTraceJson(
                   "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", "
                   "\"ts\": 0, \"pid\": 1, \"tid\": 0}]}")
                   .ok());
  EXPECT_TRUE(ValidateChromeTraceJson(
                  "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", "
                  "\"ts\": 0, \"dur\": 1, \"pid\": 1, \"tid\": 0}]}")
                  .ok());
}

// ---------------------------------------------------------------------------
// ExecContext resolution.
// ---------------------------------------------------------------------------

TEST(ObsExecContextTest, HasObserversAndOptionsCarryExecDirectly) {
  ExecContext empty;
  EXPECT_FALSE(empty.HasObservers());

  sim::Timeline timeline;
  ExecContext ctx;
  ctx.num_threads = 2;
  ctx.timeline = &timeline;
  EXPECT_TRUE(ctx.HasObservers());

  // Options structs carry the context verbatim — no legacy fold-in.
  partition::IngestOptions ingest_options;
  ingest_options.exec = ctx;
  EXPECT_EQ(ingest_options.exec.num_threads, 2u);
  EXPECT_EQ(ingest_options.exec.timeline, &timeline);

  engine::RunOptions run_options;
  run_options.exec = ctx;
  EXPECT_EQ(run_options.exec.num_threads, 2u);
  EXPECT_EQ(run_options.exec.timeline, &timeline);
}

// ---------------------------------------------------------------------------
// Simulated-cost determinism of spans and counters: across thread counts,
// against the serial oracles, and across the cached-vs-fresh grid paths.
// ---------------------------------------------------------------------------

/// A span with wall-clock fields stripped: everything that must be
/// bit-identical across thread counts and execution paths.
using SimSpan = std::tuple<std::string, std::string, uint64_t, uint32_t,
                           double, double,
                           std::vector<std::pair<std::string, int64_t>>>;

std::vector<SimSpan> SimSpans(const TraceRecorder& recorder) {
  std::vector<SimSpan> out;
  for (const TraceSpan& s : recorder.SpansByTrack()) {
    out.emplace_back(s.name, s.category, s.track, s.depth,
                     s.sim_begin_seconds, s.sim_end_seconds, s.args);
  }
  return out;
}

graph::EdgeList TestGraph() {
  return graph::GeneratePowerLawWeb({.num_vertices = 500, .seed = 21});
}

partition::IngestResult PartitionFor(const graph::EdgeList& edges,
                                     sim::Cluster& cluster,
                                     const ExecContext& exec) {
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  context.num_loaders = kMachines;
  context.seed = 3;
  partition::IngestOptions options;
  options.exec = exec;
  return partition::IngestWithStrategy(
      edges, partition::StrategyKind::kHdrf, context, cluster, options);
}

TEST(ObsEngineDeterminismTest, SpanAndCounterFieldsIdenticalAcrossThreads) {
  const graph::EdgeList edges = TestGraph();

  // Serial oracle first: the reference engine must emit the same observed
  // stream as the parallel engine at every thread count.
  std::vector<SimSpan> want_spans;
  std::vector<MetricsRegistry::Sample> want_metrics;
  {
    MetricsRegistry metrics;
    TraceRecorder trace;
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest =
        PartitionFor(edges, cluster, ExecContext{});
    engine::RunOptions options;
    options.max_iterations = 8;
    options.exec.metrics = &metrics;
    options.exec.trace = &trace;
    engine::RunGasEngineReference(engine::EngineKind::kPowerGraphSync,
                                  ingest.graph, cluster,
                                  apps::PageRankFixed(), options);
    want_spans = SimSpans(trace);
    want_metrics = metrics.Snapshot();
  }
  ASSERT_FALSE(want_spans.empty());

  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsRegistry metrics;
    TraceRecorder trace;
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest =
        PartitionFor(edges, cluster, ExecContext{});
    engine::RunOptions options;
    options.max_iterations = 8;
    options.exec.num_threads = threads;
    options.exec.metrics = &metrics;
    options.exec.trace = &trace;
    engine::RunGasEngine(engine::EngineKind::kPowerGraphSync, ingest.graph,
                         cluster, apps::PageRankFixed(), options);
    EXPECT_EQ(SimSpans(trace), want_spans);
    EXPECT_EQ(metrics.Snapshot(), want_metrics);
  }
}

TEST(ObsEngineDeterminismTest, GraphXReplayPathEmitsIdenticalBreakdowns) {
  // GraphX's 0.8x shuffle-block charge forces the serial-replay accounting
  // path; the graphx_blocks arg must still match the oracle at every
  // thread count.
  const graph::EdgeList edges = TestGraph();
  std::vector<SimSpan> want_spans;
  for (size_t i = 0; i <= std::size(kThreadCounts); ++i) {
    MetricsRegistry metrics;
    TraceRecorder trace;
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest =
        PartitionFor(edges, cluster, ExecContext{});
    engine::RunOptions options;
    options.max_iterations = 6;
    options.work_multiplier = 4.0;
    options.exec.metrics = &metrics;
    options.exec.trace = &trace;
    if (i == 0) {
      engine::RunGasEngineReference(engine::EngineKind::kGraphXPregel,
                                    ingest.graph, cluster,
                                    apps::PageRankFixed(), options);
      want_spans = SimSpans(trace);
      // The GraphX breakdown must actually carry shuffle blocks.
      bool saw_blocks = false;
      for (const SimSpan& s : want_spans) {
        for (const auto& [key, value] : std::get<6>(s)) {
          if (key == "graphx_blocks" && value > 0) saw_blocks = true;
        }
      }
      EXPECT_TRUE(saw_blocks);
    } else {
      options.exec.num_threads = kThreadCounts[i - 1];
      engine::RunGasEngine(engine::EngineKind::kGraphXPregel, ingest.graph,
                           cluster, apps::PageRankFixed(), options);
      EXPECT_EQ(SimSpans(trace), want_spans)
          << "threads=" << kThreadCounts[i - 1];
    }
  }
}

TEST(ObsEngineDeterminismTest, AttachingObserversLeavesResultsIdentical) {
  const graph::EdgeList edges = TestGraph();

  engine::GasRunResult<apps::PageRankApp> plain;
  sim::Cluster plain_cluster(kMachines, sim::CostModel{});
  {
    partition::IngestResult ingest =
        PartitionFor(edges, plain_cluster, ExecContext{});
    engine::RunOptions options;
    options.max_iterations = 8;
    plain = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                 ingest.graph, plain_cluster,
                                 apps::PageRankFixed(), options);
  }

  MetricsRegistry metrics;
  TraceRecorder trace;
  sim::Cluster observed_cluster(kMachines, sim::CostModel{});
  ExecContext exec;
  exec.metrics = &metrics;
  exec.trace = &trace;
  partition::IngestResult ingest =
      PartitionFor(edges, observed_cluster, exec);
  engine::RunOptions options;
  options.max_iterations = 8;
  options.exec = exec;
  auto observed = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                       ingest.graph, observed_cluster,
                                       apps::PageRankFixed(), options);

  EXPECT_EQ(observed.states, plain.states);
  EXPECT_EQ(observed.stats.compute_seconds, plain.stats.compute_seconds);
  EXPECT_EQ(observed.stats.network_bytes, plain.stats.network_bytes);
  EXPECT_EQ(observed_cluster.now_seconds(), plain_cluster.now_seconds());
  EXPECT_GT(trace.size(), 0u);
  EXPECT_GT(metrics.size(), 0u);
}

TEST(ObsIngressDeterminismTest, PipelineMatchesOracleAtEveryThreadCount) {
  const graph::EdgeList edges = TestGraph();

  // Oracle stream.
  std::vector<SimSpan> want_spans;
  std::vector<MetricsRegistry::Sample> want_metrics;
  {
    MetricsRegistry metrics;
    TraceRecorder trace;
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::PartitionContext context;
    context.num_partitions = kMachines;
    context.num_vertices = edges.num_vertices();
    context.num_loaders = kMachines;
    context.seed = 3;
    std::unique_ptr<partition::Partitioner> partitioner =
        partition::MakePartitioner(partition::StrategyKind::kHdrf, context);
    partition::IngestOptions options;
    options.exec.metrics = &metrics;
    options.exec.trace = &trace;
    partition::IngestReference(edges, *partitioner, cluster, options);
    want_spans = SimSpans(trace);
    want_metrics = metrics.Snapshot();
  }
  ASSERT_FALSE(want_spans.empty());
  ASSERT_FALSE(want_metrics.empty());

  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsRegistry metrics;
    TraceRecorder trace;
    sim::Cluster cluster(kMachines, sim::CostModel{});
    ExecContext exec;
    exec.num_threads = threads;
    exec.metrics = &metrics;
    exec.trace = &trace;
    PartitionFor(edges, cluster, exec);
    EXPECT_EQ(SimSpans(trace), want_spans);
    EXPECT_EQ(metrics.Snapshot(), want_metrics);
  }
}

// ---------------------------------------------------------------------------
// Cache stats and the harness/grid integration.
// ---------------------------------------------------------------------------

TEST(ObsCacheStatsTest, PlanCacheCountsHitsAndMisses) {
  const graph::EdgeList edges = TestGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  partition::IngestResult ingest = PartitionFor(edges, cluster, ExecContext{});

  engine::PlanCache cache(ingest.graph);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.Get(engine::EdgeDirection::kIn, engine::EdgeDirection::kOut, false);
  cache.Get(engine::EdgeDirection::kIn, engine::EdgeDirection::kOut, false);
  cache.Get(engine::EdgeDirection::kOut, engine::EdgeDirection::kIn, false);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_EQ(cache.num_plans(), 2u);
}

TEST(ObsCacheStatsTest, PartitionCacheCountsHitsMissesAndBypasses) {
  const graph::EdgeList edges = TestGraph();
  harness::ExperimentSpec spec;
  spec.num_machines = kMachines;
  spec.app = harness::AppKind::kPageRankFixed;
  spec.max_iterations = 3;

  harness::PartitionCache cache;
  harness::RunExperimentCached(edges, spec, cache);  // miss
  harness::RunExperimentCached(edges, spec, cache);  // hit
  harness::ExperimentSpec timeline_spec = spec;
  timeline_spec.record_timeline = true;
  harness::RunExperimentCached(edges, timeline_spec, cache);  // bypass

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bypasses, 1u);
}

/// The sim-cost span fields of every engine-phase span, keyed by track —
/// what the cached and fresh grid paths must agree on (ingress spans are
/// deliberately absent on cache hits: the artifact is built sink-free).
std::vector<SimSpan> EngineSimSpans(const TraceRecorder& recorder) {
  std::vector<SimSpan> out;
  for (SimSpan& s : SimSpans(recorder)) {
    if (std::get<1>(s) == "engine") out.push_back(std::move(s));
  }
  return out;
}

TEST(ObsGridTest, CachedAndFreshGridsEmitIdenticalEngineSpans) {
  const graph::EdgeList edges = TestGraph();
  std::vector<harness::ExperimentSpec> specs(3);
  specs[0].app = harness::AppKind::kPageRankFixed;
  specs[1].app = harness::AppKind::kWcc;
  specs[2].app = harness::AppKind::kSssp;
  for (harness::ExperimentSpec& spec : specs) {
    spec.num_machines = kMachines;
    spec.max_iterations = 5;
  }

  std::vector<SimSpan> fresh_spans;
  std::vector<harness::ExperimentResult> fresh_results;
  {
    TraceRecorder trace;
    harness::GridOptions options;
    options.exec.num_threads = 2;
    options.exec.trace = &trace;
    fresh_results = harness::RunGrid(edges, specs, options);
    fresh_spans = EngineSimSpans(trace);
  }
  ASSERT_FALSE(fresh_spans.empty());

  TraceRecorder trace;
  harness::PartitionCache cache;
  harness::GridOptions options;
  options.exec.num_threads = 2;
  options.exec.trace = &trace;
  options.cache = &cache;
  std::vector<harness::ExperimentResult> cached_results =
      harness::RunGrid(edges, specs, options);
  EXPECT_EQ(EngineSimSpans(trace), fresh_spans);
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);

  ASSERT_EQ(cached_results.size(), fresh_results.size());
  for (size_t i = 0; i < fresh_results.size(); ++i) {
    EXPECT_EQ(cached_results[i].total_seconds, fresh_results[i].total_seconds)
        << "cell " << i;
  }
}

TEST(ObsGridTest, CellsLandOnTheirOwnTracks) {
  const graph::EdgeList edges = TestGraph();
  std::vector<harness::ExperimentSpec> specs(2);
  for (harness::ExperimentSpec& spec : specs) {
    spec.num_machines = kMachines;
    spec.max_iterations = 3;
  }

  TraceRecorder trace;
  harness::GridOptions options;
  options.exec.num_threads = 2;
  options.exec.trace = &trace;
  options.exec.trace_track = 100;
  harness::RunGrid(edges, specs, options);

  bool saw_track_100 = false;
  bool saw_track_101 = false;
  for (const TraceSpan& s : trace.Snapshot()) {
    if (s.track == 100) saw_track_100 = true;
    if (s.track == 101) saw_track_101 = true;
    // Every cell span is a top-level span on its own track.
    if (s.category == "grid") {
      EXPECT_EQ(s.depth, 0u);
    }
  }
  EXPECT_TRUE(saw_track_100);
  EXPECT_TRUE(saw_track_101);
}

TEST(ObsHarnessTest, TimelineStyleRunExportsValidChromeTrace) {
  // A Fig 6.3-style cell: timeline recording plus trace/metrics sinks; the
  // exported document must be valid Chrome trace_event JSON covering both
  // the ingress and engine phases.
  const graph::EdgeList edges = TestGraph();
  MetricsRegistry metrics;
  TraceRecorder trace;
  harness::ExperimentSpec spec;
  spec.num_machines = kMachines;
  spec.app = harness::AppKind::kPageRankFixed;
  spec.max_iterations = 5;
  spec.record_timeline = true;
  spec.exec.metrics = &metrics;
  spec.exec.trace = &trace;
  const harness::ExperimentResult result =
      harness::RunExperiment(edges, spec);
  EXPECT_FALSE(result.timeline.samples().empty());

  const std::string json = ToChromeTraceJson(trace);
  ASSERT_TRUE(ValidateChromeTraceJson(json).ok());
  util::StatusOr<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  bool saw_ingress = false;
  bool saw_engine = false;
  for (const JsonValue& event : parsed.value().Find("traceEvents")->array) {
    const std::string& cat = event.Find("cat")->string;
    if (cat == "ingress") saw_ingress = true;
    if (cat == "engine") saw_engine = true;
  }
  EXPECT_TRUE(saw_ingress);
  EXPECT_TRUE(saw_engine);

  // The registry saw both phases too.
  bool saw_loader_ticks = false;
  bool saw_supersteps = false;
  for (const MetricsRegistry::Sample& s : metrics.Snapshot()) {
    if (s.name == "ingress.loader0.ticks" && s.value > 0) {
      saw_loader_ticks = true;
    }
    if (s.name == "engine.supersteps" && s.value > 0) saw_supersteps = true;
  }
  EXPECT_TRUE(saw_loader_ticks);
  EXPECT_TRUE(saw_supersteps);
}

TEST(ObsHarnessTest, PlanBuildSpanIsTracedAndThreadInvariant) {
  // A fresh (uncached) cell builds its execution plan inside a top-level
  // "plan build" span that sits between ingress and the engine run on the
  // simulated clock; every span's simulated fields match at threads
  // {1,2,8}.
  const graph::EdgeList edges = TestGraph();
  std::vector<SimSpan> want_spans;
  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TraceRecorder trace;
    harness::ExperimentSpec spec;
    spec.num_machines = kMachines;
    spec.strategy = partition::StrategyKind::kHdrf;
    spec.app = harness::AppKind::kPageRankFixed;
    spec.max_iterations = 5;
    spec.exec.num_threads = threads;
    spec.exec.trace = &trace;
    const harness::ExperimentResult result =
        harness::RunExperiment(edges, spec);

    const std::vector<SimSpan> spans = SimSpans(trace);
    const auto plan = std::find_if(
        spans.begin(), spans.end(),
        [](const SimSpan& s) { return std::get<0>(s) == "plan build"; });
    ASSERT_NE(plan, spans.end());
    EXPECT_EQ(std::get<1>(*plan), "plan");
    EXPECT_EQ(std::get<3>(*plan), 0u);  // top level, not inside the engine
    // No simulated time passes while the plan is built: the span sits
    // where the engine run that follows it begins.
    EXPECT_EQ(std::get<4>(*plan), std::get<5>(*plan));
    ASSERT_NE(plan + 1, spans.end());
    EXPECT_EQ(std::get<1>(*(plan + 1)), "engine");
    EXPECT_EQ(std::get<4>(*(plan + 1)), std::get<4>(*plan));
    EXPECT_GT(result.compute.iterations, 0u);

    if (want_spans.empty()) {
      want_spans = spans;
    } else {
      EXPECT_EQ(spans, want_spans);
    }
  }
}

// ---------------------------------------------------------------------------
// Table / CSV export.
// ---------------------------------------------------------------------------

TEST(ObsExportTest, MetricsTableReportsRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("runs")->Add(3);
  registry.GetHistogram("sizes")->Observe(8);

  const util::Table table = MetricsTable(registry);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.header()[0], "metric");
  EXPECT_EQ(table.rows()[0][0], "runs");
  EXPECT_EQ(table.rows()[0][1], "counter");
  EXPECT_EQ(table.rows()[0][2], "3");
  EXPECT_EQ(table.rows()[0][3], "-");  // counters have no sum column
  EXPECT_EQ(table.rows()[0][5], "-");  // ... and no quantile columns
  EXPECT_EQ(table.rows()[1][0], "sizes");
  EXPECT_EQ(table.rows()[1][1], "histogram");
  // Bucket-resolution quantiles: 8 has bit_width 4, upper bound 2^4 - 1.
  EXPECT_EQ(table.header()[5], "p50");
  EXPECT_EQ(table.header()[6], "p99");
  EXPECT_EQ(table.rows()[1][5], "15");
  EXPECT_EQ(table.rows()[1][6], "15");
  EXPECT_NE(table.ToCsv().find("runs"), std::string::npos);
}

TEST(ObsExportTest, SpansTableUsesCanonicalOrderAndFlattensArgs) {
  TraceRecorder recorder;
  const TraceRecorder::SpanId late_track = recorder.Begin(5, "b", "t", 1.0);
  recorder.End(late_track, 2.0);
  const TraceRecorder::SpanId early_track = recorder.Begin(1, "a", "t", 0.0);
  recorder.Arg(early_track, "k", 7);
  recorder.Arg(early_track, "m", 9);
  recorder.End(early_track, 1.0);

  const util::Table table = SpansTable(recorder);
  ASSERT_EQ(table.num_rows(), 2u);
  // Canonical order: ascending track, not begin order.
  EXPECT_EQ(table.rows()[0][0], "1");
  EXPECT_EQ(table.rows()[0][3], "a");
  EXPECT_EQ(table.rows()[1][0], "5");
  EXPECT_EQ(table.rows()[1][3], "b");
  EXPECT_EQ(table.rows()[0].back(), "k=7; m=9");
}

}  // namespace
}  // namespace gdp::obs

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include <atomic>
#include <vector>

#include "partition/greedy.h"
#include "partition/partitioner.h"
#include "sim/phase_accumulator.h"
#include "util/cache_line.h"
#include "util/check.h"
#include "util/dense_bitset.h"
#include "util/thread_pool.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace gdp::util {
namespace {

// ---------------------------------------------------------------------------
// hash
// ---------------------------------------------------------------------------

TEST(HashTest, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(HashTest, Mix64AvalanchesLowBits) {
  // Consecutive inputs must not map to consecutive outputs.
  std::set<uint64_t> low_bits;
  for (uint64_t i = 0; i < 64; ++i) low_bits.insert(Mix64(i) % 64);
  EXPECT_GT(low_bits.size(), 32u);
}

TEST(HashTest, CanonicalEdgeHashIgnoresDirection) {
  EXPECT_EQ(HashCanonicalEdge(3, 9), HashCanonicalEdge(9, 3));
  EXPECT_EQ(HashCanonicalEdge(0, 0), HashCanonicalEdge(0, 0));
}

TEST(HashTest, DirectedEdgeHashIsDirectionSensitive) {
  EXPECT_NE(HashDirectedEdge(3, 9), HashDirectedEdge(9, 3));
}

TEST(HashTest, DistinctEdgesUsuallyHashDifferently) {
  std::set<uint64_t> hashes;
  for (uint64_t u = 0; u < 50; ++u) {
    for (uint64_t v = u + 1; v < 50; ++v) {
      hashes.insert(HashCanonicalEdge(u, v));
    }
  }
  EXPECT_EQ(hashes.size(), 50u * 49 / 2);  // no collisions at this scale
}

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

TEST(RandomTest, SameSeedSameSequence) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  SplitMix64 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, NextBoundedStaysInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, NextBoundedCoversRange) {
  SplitMix64 rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RandomTest, NextDoubleMeanIsHalf) {
  SplitMix64 rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, ShuffleIsAPermutation) {
  SplitMix64 rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  Shuffle(v, rng);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, SamplesWithinRange) {
  ZipfSampler zipf(100, 1.5);
  SplitMix64 rng(6);
  for (int i = 0; i < 1000; ++i) {
    uint64_t s = zipf.Sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 100u);
  }
}

TEST(ZipfTest, RankOneIsMostFrequent) {
  ZipfSampler zipf(1000, 1.2);
  SplitMix64 rng(7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  int max_count = 0;
  uint64_t argmax = 0;
  for (auto& [rank, count] : counts) {
    if (count > max_count) {
      max_count = count;
      argmax = rank;
    }
  }
  EXPECT_EQ(argmax, 1u);
}

TEST(ZipfTest, FrequencyRatioTracksExponent) {
  // P(1)/P(2) should be about 2^alpha.
  const double alpha = 2.0;
  ZipfSampler zipf(1000, alpha);
  SplitMix64 rng(8);
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 200000; ++i) {
    uint64_t s = zipf.Sample(rng);
    if (s == 1) ++c1;
    if (s == 2) ++c2;
  }
  ASSERT_GT(c2, 0);
  EXPECT_NEAR(static_cast<double>(c1) / c2, std::pow(2.0, alpha), 0.5);
}

TEST(ZipfTest, SingleElementDomain) {
  ZipfSampler zipf(1, 1.5);
  SplitMix64 rng(9);
  EXPECT_EQ(zipf.Sample(rng), 1u);
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0);
}

TEST(StatsTest, PercentileEndpointsAndMedian) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 25), 2.5);
}

TEST(StatsTest, BoxStatsOrdering) {
  BoxStats box = ComputeBoxStats({9, 1, 5, 3, 7});
  EXPECT_LE(box.min, box.p25);
  EXPECT_LE(box.p25, box.median);
  EXPECT_LE(box.median, box.p75);
  EXPECT_LE(box.p75, box.max);
  EXPECT_DOUBLE_EQ(box.min, 1);
  EXPECT_DOUBLE_EQ(box.max, 9);
}

TEST(StatsTest, FitLineRecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 2.0);
  }
  LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(StatsTest, FitLineR2DropsWithNoise) {
  std::vector<double> xs{0, 1, 2, 3, 4, 5};
  std::vector<double> ys{0, 5, 1, 6, 2, 7};  // weak trend
  LinearFit fit = FitLine(xs, ys);
  EXPECT_LT(fit.r2, 0.9);
  EXPECT_GT(fit.r2, 0.0);
}

TEST(StatsTest, FitLineDegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitLine({}, {}).slope, 0);
  EXPECT_DOUBLE_EQ(FitLine({1}, {2}).slope, 0);
  // Vertical line: undefined slope -> zero fit rather than NaN.
  LinearFit fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0);
}

TEST(StatsTest, CountHistogram) {
  auto hist = CountHistogram({1, 1, 2, 5, 5, 5});
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[5], 3u);
  EXPECT_EQ(hist.size(), 3u);
}

TEST(StatsTest, FitPowerLawRecoversExponent) {
  // counts = 1e6 * d^-2.
  std::map<uint64_t, uint64_t> hist;
  for (uint64_t d = 1; d <= 100; ++d) {
    hist[d] = static_cast<uint64_t>(1e6 / (d * d));
  }
  LinearFit fit = FitPowerLaw(hist);
  EXPECT_NEAR(-fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

// ---------------------------------------------------------------------------
// status
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, StatusOrValuePath) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusTest, StatusOrErrorPath) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status FailWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

StatusOr<int> DoubleWhenPositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return 2 * x;
}

Status ChainBoth(int x) {
  GDP_RETURN_IF_ERROR(FailWhenNegative(x));
  GDP_ASSIGN_OR_RETURN(int doubled, DoubleWhenPositive(x));
  if (doubled != 2 * x) return Status::Internal("bad arithmetic");
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(ChainBoth(3).ok());
  EXPECT_EQ(ChainBoth(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ChainBoth(0).code(), StatusCode::kOutOfRange);
}

TEST(CheckTest, PassingChecksAreSilent) {
  GDP_CHECK(1 + 1 == 2) << "never printed";
  GDP_CHECK_OK(Status::Ok());
  GDP_DCHECK_EQ(2, 2);
  GDP_DCHECK_OK(Status::Ok());
}

TEST(CheckDeathTest, FailingCheckAbortsWithMessage) {
  EXPECT_DEATH(GDP_CHECK(false) << "ctx " << 42, "ctx 42");
  EXPECT_DEATH(GDP_CHECK_OK(Status::NotFound("gone")), "NOT_FOUND: gone");
}

// ---------------------------------------------------------------------------
// table
// ---------------------------------------------------------------------------

TEST(TableTest, AsciiContainsHeaderAndCells) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::string out = t.ToAscii();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("2"), std::string::npos);
}

TEST(TableTest, RowsPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_EQ(t.rows()[0].size(), 3u);
}

TEST(TableTest, CsvEscapesQuotesAndCommas) {
  Table t({"x"});
  t.AddRow({"va\"l,ue"});
  EXPECT_NE(t.ToCsv().find("\"va\"\"l,ue\""), std::string::npos);
}

TEST(TableTest, CsvEscapeFollowsRfc4180) {
  // Plain fields pass through unquoted.
  EXPECT_EQ(Table::CsvEscape("plain"), "plain");
  EXPECT_EQ(Table::CsvEscape(""), "");
  EXPECT_EQ(Table::CsvEscape("3.14"), "3.14");
  // Commas, quotes, and line breaks force quoting; embedded quotes double.
  EXPECT_EQ(Table::CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(Table::CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(Table::CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(Table::CsvEscape("cr\rlf"), "\"cr\rlf\"");
  EXPECT_EQ(Table::CsvEscape("\""), "\"\"\"\"");
}

TEST(TableTest, CsvHeaderAndEveryRowEscaped) {
  Table t({"name,with,commas", "plain"});
  t.AddRow({"a", "b\"c"});
  t.AddRow({"d", "e"});
  EXPECT_EQ(t.ToCsv(),
            "\"name,with,commas\",plain\na,\"b\"\"c\"\nd,e\n");
}

TEST(TableTest, MarkdownHasSeparatorRow) {
  Table t({"h1", "h2"});
  t.AddRow({"a", "b"});
  EXPECT_NE(t.ToMarkdown().find("---|"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}


// ---------------------------------------------------------------------------
// DenseBitset
// ---------------------------------------------------------------------------

TEST(DenseBitsetTest, SetTestResetAndCount) {
  DenseBitset bits(200);
  EXPECT_EQ(bits.size(), 200u);
  EXPECT_EQ(bits.CountSet(), 0u);
  EXPECT_FALSE(bits.AnySet());
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_FALSE(bits.Test(65));
  EXPECT_EQ(bits.CountSet(), 4u);
  EXPECT_TRUE(bits.AnySet());
  bits.Reset(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.CountSet(), 3u);
  bits.ClearAll();
  EXPECT_EQ(bits.CountSet(), 0u);
}

TEST(DenseBitsetTest, ForEachSetAscendingAndWordRanges) {
  DenseBitset bits(300);
  std::vector<uint64_t> expected = {1, 63, 64, 128, 192, 299};
  for (uint64_t i : expected) bits.Set(i);

  std::vector<uint64_t> seen;
  bits.ForEachSet([&](uint64_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);

  // Word-sharded iteration covers every bit exactly once.
  std::vector<uint64_t> sharded;
  for (uint64_t w = 0; w < bits.num_words(); w += 2) {
    bits.ForEachSetInWordRange(w, std::min(w + 2, bits.num_words()),
                               [&](uint64_t i) { sharded.push_back(i); });
  }
  EXPECT_EQ(sharded, expected);

  std::vector<uint32_t> appended;
  bits.AppendSetBits(&appended);
  ASSERT_EQ(appended.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(appended[i], static_cast<uint32_t>(expected[i]));
  }
}

TEST(DenseBitsetTest, SetAtomicFromManyThreadsLosesNothing) {
  constexpr uint64_t kBits = 1 << 14;
  DenseBitset bits(kBits);
  ThreadPool pool(4);
  // Every lane sets an interleaved quarter of the bits; fetch_or on shared
  // words must lose none of them.
  pool.ParallelFor(64, [&](uint64_t chunk, uint32_t) {
    for (uint64_t i = chunk; i < kBits; i += 64) bits.SetAtomic(i);
  });
  EXPECT_EQ(bits.CountSet(), kBits);
}

TEST(DenseBitsetTest, SetAtomicWordMasksTailOfNonMultipleSize) {
  // 130 bits: two full words plus a 2-bit tail. An all-ones word written
  // into the last word must only land on the 2 valid bits.
  DenseBitset bits(130);
  bits.SetAtomicWord(2, ~0ULL);
  EXPECT_EQ(bits.CountSet(), 2u);
  EXPECT_TRUE(bits.Test(128));
  EXPECT_TRUE(bits.Test(129));
  bits.SetAtomicWord(0, ~0ULL);
  EXPECT_EQ(bits.CountSet(), 66u);
  EXPECT_EQ(bits.Word(0), ~0ULL);
  EXPECT_EQ(bits.Word(2), 0x3u);
}

TEST(DenseBitsetTest, SetAtomicWordFromManyThreadsLosesNothing) {
  constexpr uint64_t kBits = (1 << 14) + 7;  // non-multiple of 64 on purpose
  DenseBitset bits(kBits);
  ThreadPool pool(4);
  // Lanes OR disjoint bit patterns into the SAME words concurrently; the
  // word-level fetch_or must merge all of them.
  pool.ParallelFor(4, [&](uint64_t quarter, uint32_t) {
    const uint64_t pattern = 0x1111111111111111ULL << quarter;
    for (uint64_t w = 0; w < bits.num_words(); ++w) {
      bits.SetAtomicWord(w, pattern);
    }
  });
  // All four quarters of every nibble: every valid bit ends up set.
  EXPECT_EQ(bits.CountSet(), kBits);
}

TEST(DenseBitsetTest, AppendSetBitsOnAllSetPartialLastWord) {
  // Size not divisible by 64 with every bit set: the append must stop at
  // size(), not at the word boundary.
  constexpr uint64_t kBits = 64 + 17;
  DenseBitset bits(kBits);
  for (uint64_t i = 0; i < kBits; ++i) bits.Set(i);
  EXPECT_EQ(bits.CountSet(), kBits);
  std::vector<uint64_t> appended;
  bits.AppendSetBits(&appended);
  ASSERT_EQ(appended.size(), kBits);
  for (uint64_t i = 0; i < kBits; ++i) EXPECT_EQ(appended[i], i);
}

TEST(DenseBitsetTest, OrWithAndWithMatchBitAtATimeReference) {
  constexpr uint64_t kBits = 517;  // spans 9 words, partial tail
  DenseBitset a(kBits), b(kBits);
  std::vector<bool> ref_a(kBits, false), ref_b(kBits, false);
  // Deterministic pseudo-pattern with mixed word occupancy.
  for (uint64_t i = 0; i < kBits; ++i) {
    if ((i * 2654435761u) % 3 == 0) {
      a.Set(i);
      ref_a[i] = true;
    }
    if ((i * 40503u) % 5 < 2) {
      b.Set(i);
      ref_b[i] = true;
    }
  }

  DenseBitset or_bits = a;
  or_bits.OrWith(b);
  DenseBitset and_bits = a;
  and_bits.AndWith(b);
  for (uint64_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(or_bits.Test(i), ref_a[i] || ref_b[i]) << "bit " << i;
    EXPECT_EQ(and_bits.Test(i), ref_a[i] && ref_b[i]) << "bit " << i;
  }
}

TEST(DenseBitsetTest, CountSetInWordRangeSumsToCountSet) {
  DenseBitset bits(300);
  for (uint64_t i : {0ULL, 1ULL, 63ULL, 64ULL, 127ULL, 200ULL, 299ULL}) {
    bits.Set(i);
  }
  EXPECT_EQ(bits.CountSetInWordRange(0, bits.num_words()), bits.CountSet());
  EXPECT_EQ(bits.CountSetInWordRange(0, 1), 3u);   // bits 0, 1, 63
  EXPECT_EQ(bits.CountSetInWordRange(1, 2), 2u);   // bits 64, 127
  EXPECT_EQ(bits.CountSetInWordRange(2, 3), 0u);   // empty word
  uint64_t sharded = 0;
  for (uint64_t w = 0; w < bits.num_words(); ++w) {
    sharded += bits.CountSetInWordRange(w, w + 1);
  }
  EXPECT_EQ(sharded, bits.CountSet());
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (uint32_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<uint32_t>> hits(257);
    pool.ParallelFor(hits.size(), [&](uint64_t chunk, uint32_t lane) {
      ASSERT_LT(lane, pool.num_threads());
      hits[chunk].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "chunk " << i;
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](uint64_t chunk, uint32_t) {
      total.fetch_add(chunk, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 45u);
}

TEST(ThreadPoolTest, ZeroChunksIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](uint64_t, uint32_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, DefaultThreadCountIsClamped) {
  uint32_t count = ThreadPool::DefaultThreadCount();
  EXPECT_GE(count, 1u);
  EXPECT_LE(count, 16u);
}

// ---------------------------------------------------------------------------
// Per-lane scratch layout: state that different threads write lives on
// cache lines of its own.
// ---------------------------------------------------------------------------

static_assert(alignof(partition::LoaderState) >= kCacheLineBytes);
static_assert(alignof(partition::Partitioner::WorkTickLane) >=
              kCacheLineBytes);

uintptr_t LineOf(const void* p) {
  return reinterpret_cast<uintptr_t>(p) / kCacheLineBytes;
}

TEST(CacheLineLayoutTest, LineVectorOwnsWholeLines) {
  // Tiny vectors allocated back to back still start on distinct lines.
  LineVector<uint64_t> a(3, 0);
  LineVector<uint64_t> b(3, 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % kCacheLineBytes, 0u);
  EXPECT_NE(LineOf(a.data()), LineOf(b.data()));
  EXPECT_EQ(CacheLineAllocator<uint64_t>::RoundedBytes(3), kCacheLineBytes);
  EXPECT_EQ(CacheLineAllocator<uint64_t>::RoundedBytes(9),
            2 * kCacheLineBytes);
}

TEST(CacheLineLayoutTest, AccumulatorsResetBackToBackUseDistinctLines) {
  // 9 machines: 27 counters = 216 bytes, four lines each. The last counter
  // of one accumulator and the first of the other never share a line.
  constexpr uint32_t kMachines = 9;
  std::vector<sim::PhaseAccumulator> lanes(2);
  for (sim::PhaseAccumulator& lane : lanes) lane.Reset(kMachines);
  const uint64_t* first = lanes[0].storage();
  const uint64_t* second = lanes[1].storage();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % kCacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(second) % kCacheLineBytes, 0u);
  const uintptr_t first_last = LineOf(first + 3 * kMachines - 1);
  const uintptr_t second_last = LineOf(second + 3 * kMachines - 1);
  EXPECT_TRUE(first_last < LineOf(second) || second_last < LineOf(first));
  // Reset keeps the counters zeroed and addressable per machine.
  lanes[0].AddWorkUnits(8, 5);
  lanes[0].ChargeSendBytes(0, 7);
  lanes[0].ChargeReceiveBytes(8, 11);
  EXPECT_EQ(lanes[0].work_units(8), 5u);
  EXPECT_EQ(lanes[0].sent_bytes(0), 7u);
  EXPECT_EQ(lanes[0].recv_bytes(8), 11u);
  EXPECT_EQ(lanes[0].TotalWorkUnits(), 5u);
  lanes[0].Reset(kMachines);
  EXPECT_EQ(lanes[0].recv_bytes(8), 0u);
}

TEST(CacheLineLayoutTest, LoaderStatesStartOnTheirOwnLines) {
  std::vector<partition::LoaderState> loaders;
  loaders.reserve(2);
  loaders.emplace_back(16, 4, /*seed=*/1, /*track_degrees=*/true);
  loaders.emplace_back(16, 4, /*seed=*/2, /*track_degrees=*/true);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(&loaders[0]) % kCacheLineBytes, 0u);
  EXPECT_NE(LineOf(&loaders[0].touched_vertices), LineOf(&loaders[1].rng));
}

}  // namespace
}  // namespace gdp::util

// Pins for the derived-ratio metrics (gthinker/metrics.h): every ratio
// with a potentially-zero denominator must degrade to a finite, defined
// value -- never NaN or inf, which poison downstream JSON consumers and
// merged-report aggregation.

#include <gtest/gtest.h>

#include <cmath>

#include "gthinker/metrics.h"

namespace qcm {
namespace {

TEST(BusyImbalanceTest, NoThreadsIsPerfectlyBalanced) {
  EngineReport report;
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 0.0);
}

TEST(BusyImbalanceTest, AllThreadsIdleIsPerfectlyBalanced) {
  EngineReport report;
  report.threads.resize(3);  // busy_seconds all 0.0
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 0.0);
}

TEST(BusyImbalanceTest, ThreadThatNeverRanStaysBelowOne) {
  EngineReport report;
  report.threads.resize(2);
  report.threads[0].busy_seconds = 3.5;
  report.threads[1].busy_seconds = 0.0;  // mean 1.75, max 3.5
  const double imbalance = report.BusyImbalance();
  EXPECT_DOUBLE_EQ(imbalance, 0.5);
  EXPECT_LT(imbalance, 1.0);
}

TEST(BusyImbalanceTest, OneMinusMeanOverMax) {
  EngineReport report;
  report.threads.resize(3);
  report.threads[0].busy_seconds = 2.0;
  report.threads[1].busy_seconds = 4.0;
  report.threads[2].busy_seconds = 3.0;
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 1.0 - 3.0 / 4.0);
  for (ThreadSummary& t : report.threads) t.busy_seconds = 2.5;
  EXPECT_DOUBLE_EQ(report.BusyImbalance(), 0.0);
}

TEST(DerivedRatiosTest, CacheHitRatioWithNoDemandIsOne) {
  EngineCountersSnapshot counters;
  EXPECT_DOUBLE_EQ(counters.CacheHitRatio(), 1.0);
  counters.cache_hits = 3;
  counters.pin_hits = 1;
  counters.cache_misses = 4;
  EXPECT_DOUBLE_EQ(counters.CacheHitRatio(), 0.5);
}

TEST(DerivedRatiosTest, MessageOverlapRatioWithNoMessagesIsOne) {
  EngineCountersSnapshot counters;
  EXPECT_DOUBLE_EQ(counters.MessageOverlapRatio(), 1.0);
  counters.msg_sent[0] = 8;
  counters.msg_overlapped = 2;
  EXPECT_DOUBLE_EQ(counters.MessageOverlapRatio(), 0.25);
}

TEST(DerivedRatiosTest, MeanDeliveryLatencyWithNoDeliveriesIsZero) {
  EngineCountersSnapshot counters;
  counters.msg_latency_usec_sum = 12345;  // sum without deliveries
  EXPECT_DOUBLE_EQ(counters.MeanDeliveryLatencySeconds(), 0.0);
  counters.msg_delivered[1] = 2;
  EXPECT_DOUBLE_EQ(counters.MeanDeliveryLatencySeconds(), 12345 * 1e-6 / 2);
}

TEST(DerivedRatiosTest, FramesPerFlushWithNoFlushesIsZero) {
  EngineCountersSnapshot counters;
  counters.net_flush_frames = 7;  // frames recorded, flushes zero
  EXPECT_DOUBLE_EQ(counters.FramesPerFlush(), 0.0);
  counters.net_flushes = 2;
  EXPECT_DOUBLE_EQ(counters.FramesPerFlush(), 3.5);
}

TEST(DerivedRatiosTest, MeanFlushParkWithNoFramesIsZero) {
  EngineCountersSnapshot counters;
  counters.net_flush_park_usec = 99;
  EXPECT_DOUBLE_EQ(counters.MeanFlushParkUsec(), 0.0);
  counters.net_flush_frames = 3;
  EXPECT_DOUBLE_EQ(counters.MeanFlushParkUsec(), 33.0);
}

/// Every derived ratio stays finite on a default-constructed (all-zero)
/// snapshot -- the exact state a rank that died during bring-up reports.
TEST(DerivedRatiosTest, AllRatiosFiniteOnZeroSnapshot) {
  EngineCountersSnapshot counters;
  EXPECT_TRUE(std::isfinite(counters.CacheHitRatio()));
  EXPECT_TRUE(std::isfinite(counters.MessageOverlapRatio()));
  EXPECT_TRUE(std::isfinite(counters.MeanDeliveryLatencySeconds()));
  EXPECT_TRUE(std::isfinite(counters.FramesPerFlush()));
  EXPECT_TRUE(std::isfinite(counters.MeanFlushParkUsec()));
  EngineReport report;
  EXPECT_TRUE(std::isfinite(report.BusyImbalance()));
}

}  // namespace
}  // namespace qcm

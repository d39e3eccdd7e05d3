// The tracer's contract: disabled = inert (no spans, no counter
// movement), enabled = every span from every thread ends up in one
// schema-valid Chrome trace-event document. These tests hammer it from
// many threads because the per-thread buffers + shared sink handoff is
// exactly where a silent data race would live (the TSan target list in
// tools/check.sh includes this binary).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "obs/tracer.h"
#include "test_util.h"

namespace locpriv::obs {
namespace {

/// Each test owns the singleton for its lifetime: enable() starts a
/// clean capture (drops spans, zeroes counters), teardown disables.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::instance().enable(); }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  Tracer::instance().disable();
  Tracer::instance().reset();
  {
    Span span("test", "ignored");
    span.arg("k", 1.0);
  }
  Tracer::instance().flush_this_thread();
  EXPECT_EQ(Tracer::instance().collected_spans(), 0u);
}

TEST_F(TracerTest, DisabledCounterBumpsAreDropped) {
  Tracer::instance().disable();
  Counter c("test.dropped");
  c.add(5);
  EXPECT_EQ(Tracer::instance().counters().at("test.dropped"), 0u);
}

TEST_F(TracerTest, SpanRecordsNameCategoryAndArgs) {
  {
    Span span("cat", "my-span");
    span.arg("x", 2.5).arg("label", "abc");
  }
  const io::JsonValue doc = Tracer::instance().trace_json();
  const io::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  const io::JsonValue& e = events[0];
  EXPECT_EQ(e.at("name").as_string(), "my-span");
  EXPECT_EQ(e.at("cat").as_string(), "cat");
  EXPECT_EQ(e.at("ph").as_string(), "X");
  EXPECT_GE(e.at("dur").as_number(), 0.0);
  EXPECT_GE(e.at("ts").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(e.at("args").at("x").as_number(), 2.5);
  EXPECT_EQ(e.at("args").at("label").as_string(), "abc");
}

TEST_F(TracerTest, NestedSpansAreContainedInTime) {
  {
    Span outer("test", "outer");
    Span inner("test", "inner");
  }
  const io::JsonValue doc = Tracer::instance().trace_json();
  const io::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner finishes (and is recorded) first.
  const io::JsonValue& inner = events[0];
  const io::JsonValue& outer = events[1];
  EXPECT_EQ(inner.at("name").as_string(), "inner");
  EXPECT_LE(outer.at("ts").as_number(), inner.at("ts").as_number());
  EXPECT_GE(outer.at("ts").as_number() + outer.at("dur").as_number(),
            inner.at("ts").as_number() + inner.at("dur").as_number());
}

TEST_F(TracerTest, CountersAccumulateAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kBumps = 1000;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([] {
        Counter c("test.bumps");
        for (std::uint64_t i = 0; i < kBumps; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(Tracer::instance().counters().at("test.bumps"), kThreads * kBumps);
}

TEST_F(TracerTest, SpansFromExitedThreadsAreCollected) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPer = 50;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([] {
        for (std::size_t i = 0; i < kSpansPer; ++i) {
          Span span("test", "worker-span");
          span.arg("i", static_cast<double>(i));
        }
      });
    }
  }  // jthreads join; their buffers flush on thread exit
  const io::JsonValue doc = Tracer::instance().trace_json();
  const io::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), kThreads * kSpansPer);
  std::set<double> tids;
  for (const io::JsonValue& e : events) tids.insert(e.at("tid").as_number());
  EXPECT_EQ(tids.size(), kThreads);
}

TEST_F(TracerTest, EnableStartsACleanCapture) {
  { Span span("test", "stale"); }
  Counter c("test.stale");
  c.add(3);
  Tracer::instance().flush_this_thread();
  EXPECT_GE(Tracer::instance().collected_spans(), 1u);

  Tracer::instance().enable();  // new capture session
  EXPECT_EQ(Tracer::instance().collected_spans(), 0u);
  EXPECT_EQ(Tracer::instance().counters().at("test.stale"), 0u);
}

TEST_F(TracerTest, TraceDocumentCarriesCountersInOtherData) {
  Counter c("test.answer");
  c.add(42);
  const io::JsonValue doc = Tracer::instance().trace_json();
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("counters").at("test.answer").as_number(), 42.0);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
}

TEST_F(TracerTest, WrittenFileRoundTripsThroughTheJsonParser) {
  const testutil::ScratchDir scratch;
  { Span span("test", "persisted"); }
  const std::string path = scratch.path("trace_roundtrip.json");
  Tracer::instance().write_chrome_trace(path);
  const io::JsonValue doc = io::read_json_file(path);
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 1u);
  EXPECT_EQ(doc.at("traceEvents").as_array()[0].at("name").as_string(), "persisted");
  std::remove(path.c_str());
}

TEST_F(TracerTest, CounterHandleIsStableAcrossRegistrations) {
  Counter a("test.same");
  Counter b("test.same");  // same cell, not a second counter
  a.add(1);
  b.add(2);
  EXPECT_EQ(Tracer::instance().counters().at("test.same"), 3u);
}

}  // namespace
}  // namespace locpriv::obs

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/request_queue.h"

namespace locpriv::service {
namespace {

Request req(std::uint64_t seq) {
  return {.user_id = "u", .event = {static_cast<trace::Timestamp>(seq), {0, 0}}, .seq = seq};
}

TEST(RequestQueue, FifoSingleThread) {
  RequestQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(req(i)));
  EXPECT_EQ(q.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto r = q.pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->seq, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, RefusesWhenFull) {
  RequestQueue q(2);
  EXPECT_TRUE(q.try_push(req(0)));
  EXPECT_TRUE(q.try_push(req(1)));
  EXPECT_FALSE(q.try_push(req(2)));  // full: backpressure, not blocking
  (void)q.pop();
  EXPECT_TRUE(q.try_push(req(3)));
}

TEST(RequestQueue, CapacityValidation) {
  EXPECT_THROW(RequestQueue(0), std::invalid_argument);
}

TEST(RequestQueue, CloseDrainsThenReturnsNullopt) {
  RequestQueue q(4);
  EXPECT_TRUE(q.try_push(req(0)));
  EXPECT_TRUE(q.try_push(req(1)));
  q.close();
  EXPECT_FALSE(q.try_push(req(2)));  // closed refuses producers
  // ... but consumers still drain what was accepted.
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(RequestQueue, CloseWakesBlockedConsumer) {
  RequestQueue q(4);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    EXPECT_FALSE(q.pop().has_value());
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(woke);
}

TEST(RequestQueue, ConcurrentProducersConsumersDeliverExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  RequestQueue q(64);

  std::mutex seen_mutex;
  std::set<std::uint64_t> seen;
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto r = q.pop()) {
        std::lock_guard lock(seen_mutex);
        EXPECT_TRUE(seen.insert(r->seq).second) << "duplicate delivery of seq " << r->seq;
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t seq = p * kPerProducer + i;
        // Retry on full — this test is about exactly-once, not rejection.
        while (!q.try_push(req(seq))) std::this_thread::yield();
        accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  EXPECT_EQ(seen.size(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace locpriv::service

// Tests for the shard work queue: FIFO delivery across backpressure,
// multi-producer delivery, capacity backpressure, the drain barrier (which
// covers the item in progress), and close semantics.

#include "engine/shard_queue.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldpm {
namespace engine {
namespace {

WorkItem RowItem(uint64_t row) {
  WorkItem item;
  item.rows = {row};
  return item;
}

// Single producer, single consumer: every pushed item arrives, in order.
// The capacity is far below the item count, so the producer blocks on
// backpressure many times; order must hold across every block.
TEST(ShardQueue, SingleProducerDeliversInOrder) {
  ShardQueue queue(4);
  constexpr uint64_t kItems = 500;
  std::vector<uint64_t> received;
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) received.push_back(item.rows[0]);
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    EXPECT_TRUE(queue.Push(RowItem(i)));
  }
  queue.WaitDrained();
  queue.Close();
  consumer.join();
  ASSERT_EQ(received.size(), kItems);
  for (uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

// Multiple producer threads share the queue; nothing is lost or
// duplicated.
TEST(ShardQueue, MultiProducerDeliversEverything) {
  ShardQueue queue(4);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 200;
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> count{0};
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      sum.fetch_add(item.rows[0]);
      count.fetch_add(1);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(RowItem(p * kPerProducer + i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.WaitDrained();
  queue.Close();
  consumer.join();
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// WaitDrained must not return while the consumer is mid-item: the queue is
// empty, but the popped item is done only when the consumer comes back to
// Pop.
TEST(ShardQueue, WaitDrainedCoversInFlightItem) {
  ShardQueue queue(4);
  std::atomic<bool> processing{false};
  std::atomic<bool> release{false};
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      processing.store(true);
      while (!release.load()) std::this_thread::yield();
      processing.store(false);
    }
  });
  ASSERT_TRUE(queue.Push(RowItem(1)));
  while (!processing.load()) std::this_thread::yield();
  // The single item is popped (queue empty) but not finished.
  std::thread waiter([&] {
    queue.WaitDrained();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  release.store(true);
  waiter.join();
  EXPECT_TRUE(drained.load());
  queue.Close();
  consumer.join();
}

// A full queue blocks the producer (backpressure) until the consumer makes
// room; nothing is dropped.
TEST(ShardQueue, FullQueueAppliesBackpressure) {
  ShardQueue queue(2);
  constexpr uint64_t kItems = 64;
  std::atomic<uint64_t> received{0};
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      EXPECT_TRUE(queue.Push(RowItem(i)));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      received.fetch_add(1);
    }
  });
  producer.join();
  queue.WaitDrained();
  queue.Close();
  consumer.join();
  EXPECT_EQ(received.load(), kItems);
}

// After Close: queued items still drain, Pop then returns false, and new
// pushes are rejected from any thread.
TEST(ShardQueue, CloseDrainsThenRejects) {
  ShardQueue queue(8);
  ASSERT_TRUE(queue.Push(RowItem(7)));
  queue.Close();
  EXPECT_FALSE(queue.Push(RowItem(8)));
  std::thread other([&] { EXPECT_FALSE(queue.Push(RowItem(9))); });
  other.join();
  WorkItem item;
  ASSERT_TRUE(queue.Pop(item));  // the pre-close item drains
  EXPECT_EQ(item.rows[0], 7u);
  EXPECT_FALSE(queue.Pop(item));  // then the queue reports closed
}

}  // namespace
}  // namespace engine
}  // namespace ldpm

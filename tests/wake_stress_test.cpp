// Lost-wake-up stress for the cross-thread sleep/wake protocols: the
// ShardChannel half-ring/parked-only handshake between two shard kernel
// threads, Doorbell::ring against wait(), and RealClock::interrupt_wait()
// against wait_until(). A lost wake-up shows up as a hang (bounded here by
// explicit deadlines), a lost or reordered item, or a miscounted ring.
//
// Written to run under TSan (scripts/check.sh selects it); the seeded
// stalls come from config().seed, so INFOPIPE_SEED reproduces a schedule
// family.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>

#include "core/config.hpp"
#include "core/infopipes.hpp"
#include "rt/clock.hpp"
#include "rt/doorbell.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

using namespace std::chrono_literals;
using SteadyClock = std::chrono::steady_clock;

/// Busy-waits for about `ns` nanoseconds (a stall that keeps the kernel
/// thread running, so the far side sees a slow peer rather than a sleeping
/// one).
void spin_for(std::int64_t ns) {
  const auto until = SteadyClock::now() + std::chrono::nanoseconds(ns);
  while (SteadyClock::now() < until) {
  }
}

/// Pass-through that stalls at seeded random items: mostly short spins,
/// now and then a longer one, so the ring swings between empty and full and
/// both sides park and wake many times.
class RandomStall : public FunctionComponent {
 public:
  RandomStall(std::string name, std::uint64_t seed)
      : FunctionComponent(std::move(name)), rng_(seed) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override {
    const std::uint64_t r = rng_();
    if ((r & 0x3f) == 0) {
      spin_for(static_cast<std::int64_t>((r >> 8) % 2000));
    } else if ((r & 0xfff) == 1) {
      spin_for(static_cast<std::int64_t>((r >> 8) % 200000));
    }
    return x;
  }

 private:
  std::mt19937_64 rng_;
};

/// Counts items and checks they arrive in seq order, without storing them.
class OrderCheckingSink : public PassiveSink {
 public:
  using PassiveSink::PassiveSink;

  std::uint64_t count = 0;
  std::uint64_t out_of_order = 0;
  bool eos = false;

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void consume(Item x) override {
    if (x.seq != count) ++out_of_order;
    ++count;
  }
  void on_eos() override { eos = true; }
};

/// Counting source that ends the stream (EOS) after `count` items or, when
/// given a nonzero `budget`, once that much wall time has passed since its
/// first item, whichever comes first.
class BudgetedSource : public PassiveSource {
 public:
  BudgetedSource(std::string name, std::uint64_t count,
                 SteadyClock::duration budget)
      : PassiveSource(std::move(name)), count_(count), budget_(budget) {}

  [[nodiscard]] std::uint64_t produced() const noexcept { return next_; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item generate() override {
    const auto now = SteadyClock::now();
    if (next_ == 0) deadline_ = now + budget_;
    if (next_ >= count_) return Item::eos();
    if (budget_ != SteadyClock::duration::zero() && now >= deadline_) {
      return Item::eos();
    }
    Item x = Item::token();
    x.seq = next_++;
    return x;
  }

 private:
  std::uint64_t count_;
  SteadyClock::duration budget_;
  SteadyClock::time_point deadline_{};
  std::uint64_t next_ = 0;
};

class ChannelWakeStress : public ::testing::TestWithParam<std::size_t> {};

// 10^6 items per capacity, then EOS. Through the small rings nearly every
// item costs both shard threads a futex sleep and wake (20-60 us on a
// 4-vCPU VM, depending on how busy the host is), so there the stream also
// ends after a fixed wall-time budget: the run covers as many park/wake
// cycles as the host allows in that time instead of making the suite's run
// time a measure of the host's wake-up latency. The 32-slot ring has no
// budget and always moves all 10^6.
constexpr std::uint64_t kStressItems = 1000000;
constexpr auto kSmallRingBudget = 2s;

TEST_P(ChannelWakeStress, NoLossNoHangInOrder) {
  const std::size_t capacity = GetParam();
  const bool budgeted = capacity < 32;
  const std::uint64_t seed = config().seed * 1000 + capacity;
  BudgetedSource src{"src", kStressItems,
                     budgeted ? SteadyClock::duration(kSmallRingBudget)
                              : SteadyClock::duration::zero()};
  FreeRunningPump p1{"p1"};
  RandomStall produce{"produce", seed};
  Buffer cut{"cut", capacity};
  FreeRunningPump p2{"p2"};
  RandomStall consume{"consume", seed + 1};
  OrderCheckingSink sink{"sink"};
  auto ch = src >> p1 >> produce >> cut >> p2 >> consume >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.channel_count(), 1u);
  sr.start();
  const bool done = sr.wait_finished(120s);
  EXPECT_TRUE(done) << "hang at capacity " << capacity;
  if (!done) sr.shutdown();
  group.stop();
  const std::uint64_t items = src.produced();
  if (!budgeted) EXPECT_EQ(items, kStressItems);
  EXPECT_GT(items, 0u);
  EXPECT_EQ(sink.count, items);
  EXPECT_EQ(sink.out_of_order, 0u);
  EXPECT_TRUE(sink.eos);
  const ChannelStats s = sr.channel(0).stats();
  EXPECT_EQ(s.flow.puts, items);
  EXPECT_EQ(s.flow.takes, items);
  EXPECT_EQ(s.flow.fill, 0u);
  // The run really exercised the handshake: both sides parked.
  EXPECT_GT(s.flow.put_blocks, 0u);
  EXPECT_GT(s.flow.take_blocks, 0u);
  std::printf("[ capacity %zu ] %llu items, %llu producer parks, "
              "%llu consumer parks, %llu wake-ups\n",
              capacity, static_cast<unsigned long long>(items),
              static_cast<unsigned long long>(s.flow.put_blocks),
              static_cast<unsigned long long>(s.flow.take_blocks),
              static_cast<unsigned long long>(s.wakeups));
}

INSTANTIATE_TEST_SUITE_P(Capacities, ChannelWakeStress,
                         ::testing::Values(1, 2, 3, 32));

/// Ping-pong harness: `kick()` fires one wake, the waiter thread acknowledges
/// each return; the kicker waits for the acknowledgement before the next
/// kick. Both sides insert seeded random delays so kicks land before, during
/// and after the waiter's block. Returns the number of kicks that were not
/// acknowledged within the deadline (0 unless a wake-up was lost).
template <typename Kick, typename Unstick>
int ping_pong(int rounds, std::atomic<int>& acks, std::uint64_t seed,
              const Kick& kick, const Unstick& unstick) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < rounds; ++i) {
    spin_for(static_cast<std::int64_t>(rng() % 3000));
    kick();
    const auto deadline = SteadyClock::now() + 10s;
    while (acks.load(std::memory_order_acquire) < i + 1) {
      if (SteadyClock::now() >= deadline) {
        // Lost: release the waiter so the test can report and join.
        while (acks.load(std::memory_order_acquire) < rounds) {
          unstick();
          std::this_thread::sleep_for(1ms);
        }
        return rounds - i;
      }
      std::this_thread::yield();
    }
  }
  return 0;
}

TEST(DoorbellStress, RingVersusWaitLosesNoRing) {
  constexpr int kRounds = 20000;
  rt::Doorbell bell;
  std::atomic<int> acks{0};
  std::thread waiter([&] {
    std::mt19937_64 rng(config().seed + 7);
    for (int i = 0; i < kRounds; ++i) {
      spin_for(static_cast<std::int64_t>(rng() % 3000));
      bell.wait();
      acks.store(i + 1, std::memory_order_release);
    }
  });
  std::uint64_t extra = 0;
  const int lost = ping_pong(
      kRounds, acks, config().seed + 8, [&] { bell.ring(); },
      [&] {
        ++extra;
        bell.ring();
      });
  waiter.join();
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(bell.rings(), static_cast<std::uint64_t>(kRounds) + extra);

  // Sticky counter: a burst of rings with no waiter is consumed one wait()
  // per ring, none lost, none invented.
  constexpr int kBurst = 1000;
  std::thread ringer([&] {
    for (int i = 0; i < kBurst; ++i) bell.ring();
  });
  for (int i = 0; i < kBurst; ++i) bell.wait();
  ringer.join();
  EXPECT_EQ(bell.rings(), static_cast<std::uint64_t>(kRounds + kBurst) + extra);
}

TEST(RealClockStress, InterruptVersusWaitUntilObservesEveryInterrupt) {
  constexpr int kRounds = 20000;
  rt::RealClock clock;
  std::atomic<int> acks{0};
  std::thread waiter([&] {
    std::mt19937_64 rng(config().seed + 11);
    for (int i = 0; i < kRounds; ++i) {
      spin_for(static_cast<std::int64_t>(rng() % 3000));
      // Far beyond the test's deadlines: only an interrupt returns early.
      clock.wait_until(clock.now() + rt::seconds(60));
      acks.store(i + 1, std::memory_order_release);
    }
  });
  const int lost = ping_pong(
      kRounds, acks, config().seed + 12, [&] { clock.interrupt_wait(); },
      [&] { clock.interrupt_wait(); });
  waiter.join();
  EXPECT_EQ(lost, 0);

  // Each interrupt was consumed by exactly one wait: none is left over to
  // cut the next wait short.
  const auto t0 = SteadyClock::now();
  clock.wait_until(clock.now() + rt::milliseconds(20));
  EXPECT_GE(SteadyClock::now() - t0, 20ms);
}

}  // namespace
}  // namespace infopipe

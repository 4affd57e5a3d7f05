// ip_shard tests: the SPSC channel, the shard group, and whole pipelines
// realized across kernel threads.
//
// The threaded tests run under RealClock (shards need a common wall clock)
// and are written to be TSan-clean: live shard state is only read through
// ShardGroup::run_on, and direct reads happen only after group.stop() has
// joined the host threads. The broadcast-routing tests at the end run in
// lockstep instead (manual shards, virtual clocks), so they can count every
// message each shard receives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/infopipes.hpp"
#include "media/mpeg.hpp"
#include "replay/digest.hpp"
#include "shard/channel.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe {
namespace {

using namespace std::chrono_literals;

// --- the raw ring -----------------------------------------------------------

TEST(ShardChannel, SpscRingAcrossKernelThreads) {
  shard::ShardChannel ch("ring", 8);
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&ch] {
    for (std::uint64_t i = 0; i < kN;) {
      Item x = Item::token();
      x.seq = i;
      if (ch.try_push(x)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
    ch.set_eos();
  });
  std::uint64_t expect = 0;
  bool ordered = true;
  for (;;) {
    if (std::optional<Item> x = ch.try_pop()) {
      ordered = ordered && x->seq == expect;
      ++expect;
    } else if (ch.eos() && expect == kN) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expect, kN);
  const ChannelStats s = ch.stats();
  EXPECT_EQ(s.flow.puts, kN);
  EXPECT_EQ(s.flow.takes, kN);
  EXPECT_EQ(s.flow.fill, 0u);
  EXPECT_GE(s.flow.max_fill, 1u);
}

TEST(ShardChannel, CapacityBoundsAndForcePushReserve) {
  shard::ShardChannel ch("small", 2);
  Item a = Item::token();
  EXPECT_TRUE(ch.try_push(a));
  Item b = Item::token();
  EXPECT_TRUE(ch.try_push(b));
  Item c = Item::token();
  EXPECT_FALSE(ch.try_push(c));  // at capacity
  EXPECT_TRUE(ch.force_push(c)); // overflow reserve takes it
  EXPECT_EQ(ch.depth(), 3u);
  EXPECT_TRUE(ch.try_pop().has_value());
  Item d = Item::token();
  EXPECT_FALSE(ch.try_push(d));  // still >= capacity
}

// --- the group --------------------------------------------------------------

TEST(ShardGroup, RunOnExecutesOnShardAndPropagatesErrors) {
  shard::ShardGroup group(2);
  EXPECT_THROW(group.run_on(0, [] {}), rt::RuntimeError);  // not launched
  group.launch();
  std::thread::id seen0;
  std::thread::id seen1;
  group.run_on(0, [&seen0] { seen0 = std::this_thread::get_id(); });
  group.run_on(1, [&seen1] { seen1 = std::this_thread::get_id(); });
  EXPECT_NE(seen0, seen1);
  EXPECT_NE(seen0, std::this_thread::get_id());
  const int v = group.call_on(1, [] { return 41 + 1; });
  EXPECT_EQ(v, 42);
  EXPECT_THROW(group.run_on(0, [] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  group.stop();
  group.stop();  // idempotent
}

TEST(ShardGroup, MetricsSnapshotPrefixesShards) {
  shard::ShardGroup group(2);
  group.launch();
  group.run_on(1, [&group] {
    group.runtime(1).metrics().counter("test.pings").inc(3);
  });
  const obs::MetricsSnapshot snap = group.metrics_snapshot();
  EXPECT_NE(snap.find("shard0.rt.dispatches"), nullptr);
  EXPECT_NE(snap.find("shard1.rt.dispatches"), nullptr);
  const obs::MetricValue* v = snap.find("shard1.test.pings");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 3u);
  EXPECT_EQ(snap.find("shard0.test.pings"), nullptr);
  group.stop();
}

// --- sharded pipelines ------------------------------------------------------

/// Sink that also records broadcast control events it saw.
class EventRecordingSink : public PassiveSink {
 public:
  using PassiveSink::PassiveSink;
  std::vector<std::uint64_t> seqs;
  std::vector<int> events;
  bool eos = false;

  void handle_event(const Event& e) override { events.push_back(e.type); }

 protected:
  void consume(Item x) override { seqs.push_back(x.seq); }
  void on_eos() override { eos = true; }
};

/// Function stage that broadcasts a user event when a chosen seq passes by.
class BroadcastAtSeq : public FunctionComponent {
 public:
  BroadcastAtSeq(std::string name, std::uint64_t at, int event_type)
      : FunctionComponent(std::move(name)), at_(at), type_(event_type) {}

 protected:
  Item convert(Item x) override {
    if (x.seq == at_) broadcast(Event{type_});
    return x;
  }

 private:
  std::uint64_t at_;
  int type_;
};

TEST(ShardedRealization, TwoShardsPreserveOrderCountAndEos) {
  constexpr std::uint64_t kN = 5000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.channel_count(), 1u);
  EXPECT_EQ(sr.channel(0).from_shard() == sr.channel(0).to_shard(), false);

  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));

  const StatsSnapshot stats = sr.stats_snapshot();
  const ChannelStats* cs = stats.channel("buf");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->flow.puts, kN);
  EXPECT_EQ(cs->flow.takes, kN);
  EXPECT_EQ(cs->flow.fill, 0u);
  EXPECT_EQ(cs->flow.capacity, 16u);

  const obs::MetricsSnapshot ms = sr.metrics_snapshot();
  const std::string chan_row =
      "shard" + std::to_string(sr.channel(0).to_shard()) + ".chan.buf.takes";
  const obs::MetricValue* row = ms.find(chan_row);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, kN);

  group.stop();  // joins host threads: direct reads below are race-free
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, FourShardChainDeliversEverythingInOrder) {
  constexpr std::uint64_t kN = 2000;
  CountingSource src{"src", kN};
  FreeRunningPump p1{"p1"};
  Buffer b1{"b1", 8};
  FreeRunningPump p2{"p2"};
  Buffer b2{"b2", 8};
  FreeRunningPump p3{"p3"};
  Buffer b3{"b3", 8};
  FreeRunningPump p4{"p4"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> b3 >> p4 >> sink;

  shard::ShardGroup group(4);
  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.channel_count(), 3u);
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, SingleShardGroupRunsWithoutCuts) {
  constexpr std::uint64_t kN = 1000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(1);
  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.channel_count(), 0u);
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  EXPECT_EQ(sink.seqs.size(), kN);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, BackpressureStallsProducerNotItems) {
  constexpr std::uint64_t kN = 3000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump", rt::kPriorityData};
  Buffer buf{"buf", 2};  // tiny channel: the producer must outrun it
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  const StatsSnapshot stats = sr.stats_snapshot();
  const ChannelStats* cs = stats.channel("buf");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->flow.takes, kN);
  group.stop();
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
}

TEST(ShardedRealization, BroadcastFromOneShardReachesTheOther) {
  constexpr std::uint64_t kN = 500;
  const int kPing = kEventUser + 7;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  BroadcastAtSeq probe{"probe", 5, kPing};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> probe >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  std::atomic<int> listener_pings{0};
  sr.set_event_listener([&listener_pings, kPing](const Event& e) {
    if (e.type == kPing) listener_pings.fetch_add(1);
  });
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  // The probe (upstream shard) broadcast once; the sink lives on the other
  // shard and must still have seen it.
  EXPECT_EQ(std::count(sink.events.begin(), sink.events.end(), kPing), 1);
  EXPECT_EQ(listener_pings.load(), 1);
  EXPECT_EQ(sink.seqs.size(), kN);
}

TEST(ShardedRealization, StopAndRestartLosesNothing) {
  constexpr std::uint64_t kN = 20000;
  CountingSource src{"src", kN};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 8};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();
  std::this_thread::sleep_for(5ms);
  sr.stop();
  // Drivers acknowledge the stop at their next dispatch point.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!sr.finished() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(sr.finished());
  sr.start();
  ASSERT_TRUE(sr.wait_finished(30000ms));
  group.stop();
  // Every item exactly once, in order — including any item that was in
  // flight into the channel when the stop hit (the overflow-reserve stash).
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(ShardedRealization, ShutdownMidFlowTearsDownCleanly) {
  CountingSource src{"src", 1000000};  // would run for a long time
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 4};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  {
    shard::ShardedRealization sr(group, ch.pipeline());
    sr.start();
    std::this_thread::sleep_for(5ms);
    sr.shutdown();  // unwinds threads, including any blocked in the channel
    // The destructor tears down while the group still runs (run_on path).
  }
  group.stop();
  EXPECT_LT(sink.seqs.size(), 1000000u);
}

TEST(ShardedRealization, DescribeNamesShardsAndChannels) {
  CountingSource src{"src", 10};
  FreeRunningPump pump{"pump"};
  Buffer buf{"buf", 16};
  FreeRunningPump pump2{"pump2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> pump >> buf >> pump2 >> sink;

  shard::ShardGroup group(2);
  shard::ShardedRealization sr(group, ch.pipeline());
  const std::string d = sr.describe();
  EXPECT_NE(d.find("sharded over 2 shards"), std::string::npos);
  EXPECT_NE(d.find("channel 'buf'"), std::string::npos);
  EXPECT_NE(d.find("shard 0:"), std::string::npos);
  EXPECT_NE(d.find("shard 1:"), std::string::npos);
  group.stop();
}

// --- broadcast routing across shards (lockstep) ---------------------------------

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

/// Pass-through that handles only the event types it is built with.
class DeclaredEar : public FunctionComponent {
 public:
  DeclaredEar(std::string name, EventSet accepts)
      : FunctionComponent(std::move(name)), accepts_(std::move(accepts)) {}

  std::vector<int> heard;

  void handle_event(const Event& e) override { heard.push_back(e.type); }
  [[nodiscard]] EventSet accepted_events() const override { return accepts_; }

 protected:
  Item convert(Item x) override { return x; }

 private:
  EventSet accepts_;
};

/// (messages sent, control handlers invoked) on one shard's runtime.
using ShardCounters = std::pair<std::uint64_t, std::uint64_t>;

ShardCounters counters(shard::ShardGroup& g, int shard) {
  rt::Runtime& rtm = g.runtime(shard);
  return {rtm.stats().messages_sent,
          rtm.metrics().counter("core.control_dispatched").value()};
}

TEST(ShardedRouting, BroadcastSkipsShardsWithoutInterestedComponents) {
  const int kPing = kEventUser + 21;
  CountingSource src{"src", 100};
  FreeRunningPump p1{"p1"};
  Buffer b1{"b1", 8};
  FreeRunningPump p2{"p2"};
  Buffer b2{"b2", 8};
  FreeRunningPump p3{"p3"};
  DeclaredEar ear{"ear", {kPing}};
  CollectorSink sink{"sink"};
  auto ch = src >> p1 >> b1 >> p2 >> b2 >> p3 >> ear >> sink;

  shard::ShardGroup group(3, manual_opts());
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.section_count(), 3u);
  const int origin = sr.shard_of_section(0);
  const int third = sr.shard_of_section(1);
  const int target = sr.shard_of_section(2);
  ASSERT_NE(origin, third);
  ASSERT_NE(origin, target);
  ASSERT_NE(third, target);
  EXPECT_FALSE(sr.shard_realization(third)->accepts(kPing));
  EXPECT_TRUE(sr.shard_realization(target)->accepts(kPing));
  int listened = 0;
  sr.set_event_listener([&](const Event& e) { listened += e.type == kPing; });
  group.step_until(rt::milliseconds(1));

  const ShardCounters origin0 = counters(group, origin);
  const ShardCounters third0 = counters(group, third);
  const ShardCounters target0 = counters(group, target);
  // Once from a component's shard (forwarded by the listener the sharded
  // realization installs), once from outside.
  sr.shard_realization(origin)->post_event(Event{kPing});
  sr.post_event(Event{kPing});
  group.step_until(rt::milliseconds(2));

  EXPECT_EQ(ear.heard, (std::vector<int>{kPing, kPing}));
  EXPECT_EQ(listened, 2);
  EXPECT_EQ(counters(group, third), third0) << "uninterested shard was woken";
  EXPECT_EQ(counters(group, origin), origin0);
  EXPECT_EQ(counters(group, target).second - target0.second, 2u);
  sr.shutdown();
  group.step_until(rt::milliseconds(3));
}

struct MoviePlay {
  std::uint64_t digest = 0;
  std::uint64_t displayed = 0;
  std::uint64_t corrupt = 0;
  std::size_t max_held = 0;
  bool migrated = false;
};

/// The Figure-1 chain over three manual shards: decode, filter and present
/// sections, 600 frames at 200 Hz in a single GOP (one I frame), so the
/// decoder's held references only shrink through the display's
/// FRAME-RELEASE broadcasts. With `migrate`, the decoder's section moves onto the
/// filter's shard at t = 1 s and back at t = 2 s.
MoviePlay play_movie(bool migrate) {
  media::StreamConfig cfg;
  cfg.frames = 600;
  cfg.gop = "I" + std::string(599, 'P');
  media::MpegFileSource movie{"movie", cfg};
  ClockedPump decode_pump{"decode-pump", 200.0};
  media::MpegDecoder decoder{"decoder"};
  Buffer decoded{"decoded", 16};
  ClockedPump filter_pump{"filter-pump", 200.0};
  media::FrameDropFilter filter{"filter"};
  Buffer filtered{"filtered", 16};
  ClockedPump present_pump{"present-pump", 200.0};
  replay::DigestProbe digest{"digest"};
  media::VideoDisplay display{"display", 200.0};
  auto ch = movie >> decode_pump >> decoder >> decoded >> filter_pump >>
            filter >> filtered >> present_pump >> digest >> display;

  shard::ShardGroup group(3, manual_opts());
  shard::ShardedRealization sr(group, ch.pipeline());
  EXPECT_EQ(sr.section_count(), 3u);
  const int home = sr.shard_of_section(0);
  const int filter_shard = sr.shard_of_section(1);

  MoviePlay out;
  sr.start();
  for (rt::Time t = rt::milliseconds(10); t <= rt::seconds(5);
       t += rt::milliseconds(10)) {
    group.step_until(t);
    out.max_held = std::max(out.max_held, decoder.held_references());
    if (migrate && t == rt::seconds(1)) {
      (void)sr.migrate_section(0, filter_shard);
      out.migrated = sr.shard_of_section(0) == filter_shard &&
                     sr.shard_realization(filter_shard)
                         ->accepts(kEventFrameRelease);
    }
    if (migrate && t == rt::seconds(2)) (void)sr.migrate_section(0, home);
  }
  EXPECT_TRUE(sr.finished());
  out.digest = digest.digest();
  const media::VideoDisplay::Stats ds = display.stats();
  out.displayed = ds.displayed;
  out.corrupt = ds.corrupt;
  return out;
}

TEST(ShardedRouting, FrameReleaseFollowsTheMigratedDecoder) {
  const MoviePlay plain = play_movie(false);
  const MoviePlay moved = play_movie(true);
  EXPECT_TRUE(moved.migrated);
  EXPECT_EQ(plain.displayed, 600u);
  EXPECT_EQ(moved.displayed, 600u);
  EXPECT_EQ(plain.corrupt, 0u);
  EXPECT_EQ(moved.corrupt, 0u);
  EXPECT_EQ(moved.digest, plain.digest);
  // Only the frames between decoder and display stay referenced (two
  // 16-slot buffers plus the items in hand); without the releases the
  // single-GOP stream would pile up every P frame.
  EXPECT_LE(plain.max_held, 40u);
  EXPECT_LE(moved.max_held, 40u);
}

}  // namespace
}  // namespace infopipe

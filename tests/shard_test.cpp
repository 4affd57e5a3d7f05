// ip_shard tests: the SPSC channel, the shard group, and whole pipelines
// realized across kernel threads.
//
// The threaded tests run under RealClock (shards need a common wall clock)
// and are written to be TSan-clean: live shard state is only read through
// ShardGroup::run_on, and direct reads happen only after group.stop() has
// joined the host threads. The broadcast-routing, wake-protocol and
// cross-shard capability tests at the end run in lockstep instead (manual
// shards, virtual clocks), so they can count every message each shard
// receives.
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

TEST(ShardChannel, MaxFillIsTheTrueHighWaterMark) {
  shard::ShardChannel ch("mark", 16);
  // A consumer that keeps up holds the ring at one item, however many pass
  // (the producer's cached head goes stale long before the ring is full).
  for (int i = 0; i < 100; ++i) {
    Item x = Item::token();
    ASSERT_TRUE(ch.try_push(x));
    ASSERT_TRUE(ch.try_pop().has_value());
  }
  EXPECT_EQ(ch.stats().flow.max_fill, 1u);

  // A burst of five then a drain: the mark is five, not the stale bound.
  for (int i = 0; i < 5; ++i) {
    Item x = Item::token();
    ASSERT_TRUE(ch.try_push(x));
  }
  while (ch.try_pop().has_value()) {
  }
  for (int i = 0; i < 40; ++i) {
    Item x = Item::token();
    ASSERT_TRUE(ch.try_push(x));
    ASSERT_TRUE(ch.try_pop().has_value());
  }
  EXPECT_EQ(ch.stats().flow.max_fill, 5u);

  // Span pushes and the overflow reserve count too. (A span push may move
  // fewer items than there is room for: its room is judged by the cached
  // head, re-read only once that says full.)
  std::vector<Item> xs(16, Item::token());
  std::size_t moved = 0;
  while (moved < xs.size()) {
    moved += ch.try_push_span(ItemSpan(xs.data() + moved, xs.size() - moved));
  }
  EXPECT_EQ(ch.depth(), 16u);
  EXPECT_EQ(ch.stats().flow.max_fill, 16u);
  Item y = Item::token();
  EXPECT_TRUE(ch.force_push(y));
  EXPECT_EQ(ch.stats().flow.max_fill, 17u);
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

// --- the wake protocol, step by step (lockstep) -----------------------------

/// Two manual shards around one cut of capacity 8: a free-running producer
/// section (src -> p1 -> ear -> cut) and a consumer section the test plays
/// by hand. Only the producer's runtime is stepped, so the real consumer
/// section never runs until drain(); meanwhile the test thread pops and
/// wakes exactly as ChannelSource does.
struct ParkedProducer {
  static constexpr int kPing = kEventUser + 31;
  static constexpr std::uint64_t kN = 100;

  CountingSource src{"src", kN};
  FreeRunningPump p1{"p1"};
  DeclaredEar ear{"ear", {kPing}};
  Buffer cut{"cut", 8};
  FreeRunningPump p2{"p2"};
  EventRecordingSink sink{"sink"};
  Pipeline pipe;
  shard::ShardGroup group{2, manual_opts()};
  std::unique_ptr<shard::ShardedRealization> sr;
  shard::ShardChannel* ch = nullptr;
  rt::Time now = 0;

  ParkedProducer() {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, ear, 0);
    pipe.connect(ear, 0, cut, 0);
    pipe.connect(cut, 0, p2, 0);
    pipe.connect(p2, 0, sink, 0);
    sr = std::make_unique<shard::ShardedRealization>(group, pipe);
    ch = sr->find_live_channel("cut");
  }

  rt::Runtime& producer() {
    return group.runtime(sr->shard_of_section(0));
  }
  /// One millisecond of the producer's shard alone.
  void run_producer() {
    now += rt::milliseconds(1);
    producer().run_until(now);
  }
  /// Starts the flow; the producer fills the ring and parks.
  void start_and_park() {
    sr->start();
    run_producer();
  }
  /// The consumer's side of one pop: take the oldest item, then wake.
  std::uint64_t pop() {
    std::optional<Item> x = ch->try_pop();
    EXPECT_TRUE(x.has_value());
    ch->wake_producer();
    return x.has_value() ? x->seq : ~std::uint64_t{0};
  }
  [[nodiscard]] std::uint64_t sent() {
    return producer().stats().messages_sent;
  }
  [[nodiscard]] ChannelStats stats() const { return ch->stats(); }
  /// Lets every shard run until the sink sees EOS.
  void drain() {
    for (int i = 0; i < 100 && !sink.eos; ++i) {
      now += rt::milliseconds(10);
      group.step_until(now);
    }
    EXPECT_TRUE(sr->finished());
  }
  /// The sink got [first, kN) in order, then EOS.
  void expect_delivered_from(std::uint64_t first) {
    ASSERT_EQ(sink.seqs.size(), kN - first);
    for (std::uint64_t i = first; i < kN; ++i) {
      EXPECT_EQ(sink.seqs[i - first], i);
    }
    EXPECT_TRUE(sink.eos);
  }
};

TEST(ChannelWake, ParkedProducerWakesOnlyAtTheHalfRingWatermark) {
  ParkedProducer f;
  ASSERT_NE(f.ch, nullptr);
  ASSERT_EQ(f.ch->capacity(), 8u);
  f.start_and_park();
  ASSERT_EQ(f.ch->depth(), 8u);
  ASSERT_EQ(f.stats().flow.put_blocks, 1u);
  const std::uint64_t sent0 = f.sent();
  // Depth 7, 6, 5: above capacity/2, so no kMsgChanSpace reaches the
  // producer and it stays parked.
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(f.pop(), k - 1);
    f.run_producer();
    EXPECT_EQ(f.ch->depth(), 8u - k);
    EXPECT_EQ(f.stats().wakeups, 0u);
    EXPECT_EQ(f.sent(), sent0) << "producer woken at depth " << 8 - k;
  }
  // Depth 4 = capacity/2: exactly one wake, and the producer refills.
  EXPECT_EQ(f.pop(), 3u);
  EXPECT_EQ(f.stats().wakeups, 1u);
  f.run_producer();
  EXPECT_EQ(f.sent(), sent0 + 1);
  EXPECT_EQ(f.ch->depth(), 8u);
  EXPECT_EQ(f.stats().flow.put_blocks, 2u);
  EXPECT_EQ(f.stats().wakeups, 1u);
  f.drain();
  f.expect_delivered_from(4);
}

TEST(ChannelWake, ControlEventIsDispatchedButDoesNotResumeTheParkedProducer) {
  ParkedProducer f;
  f.start_and_park();
  EXPECT_EQ(f.pop(), 0u);  // depth 7: one free slot, still no wake
  f.ear.heard.clear();
  f.sr->post_event(Event{ParkedProducer::kPing});
  f.run_producer();
  // §3.2: the blocked endpoint handled the event...
  EXPECT_EQ(f.ear.heard, (std::vector<int>{ParkedProducer::kPing}));
  // ...but stayed parked: no push into the free slot, no second stall.
  EXPECT_EQ(f.ch->depth(), 7u);
  EXPECT_EQ(f.stats().flow.puts, 8u);
  EXPECT_EQ(f.stats().flow.put_blocks, 1u);
  EXPECT_EQ(f.stats().wakeups, 0u);
  for (std::uint64_t k = 1; k <= 3; ++k) EXPECT_EQ(f.pop(), k);
  f.run_producer();  // woken at depth 4
  EXPECT_EQ(f.ch->depth(), 8u);
  f.drain();
  f.expect_delivered_from(4);
}

TEST(ChannelWake, StopWhileParkedEscapesIntoTheReserveAndLosesNothing) {
  ParkedProducer f;
  f.start_and_park();
  f.sr->stop();
  f.run_producer();
  // The item in the producer's hand went into the overflow reserve.
  EXPECT_EQ(f.ch->depth(), 9u);
  EXPECT_EQ(f.stats().flow.puts, 9u);
  f.now += rt::milliseconds(1);
  f.group.step_until(f.now);  // the consumer shard acknowledges the stop
  ASSERT_TRUE(f.sr->finished());
  f.sr->start();
  f.drain();
  f.expect_delivered_from(0);
}

TEST(ChannelWake, CapacityOneStillMakesProgress) {
  constexpr std::uint64_t kN = 200;
  CountingSource src{"src", kN};
  FreeRunningPump p1{"p1"};
  Buffer cut{"cut", 1};
  FreeRunningPump p2{"p2"};
  EventRecordingSink sink{"sink"};
  auto ch = src >> p1 >> cut >> p2 >> sink;
  shard::ShardGroup group(2, manual_opts());
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.channel_count(), 1u);
  sr.start();
  for (int i = 1; i <= 100 && !sink.eos; ++i) {
    group.step_until(rt::milliseconds(i));
  }
  EXPECT_TRUE(sr.finished());
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
  EXPECT_GT(sr.channel(0).stats().flow.put_blocks, 0u);
}

/// Pins config().elastic for one scope (the INFOPIPE_ELASTIC kill switch).
class ElasticGuard {
 public:
  ElasticGuard() : prev_(config().elastic) { config().elastic = true; }
  ~ElasticGuard() { config().elastic = prev_; }
  ElasticGuard(const ElasticGuard&) = delete;
  ElasticGuard& operator=(const ElasticGuard&) = delete;

 private:
  bool prev_;
};

/// A free-running producer over a 1 kHz consumer keeps the ring above the
/// half-ring watermark with the producer parked; the consumer section then
/// moves to another shard (`retire`: one added for it, and its old home is
/// retired) and the flow must finish without losing or reordering an item.
void move_consumer_while_producer_parked(bool retire) {
  constexpr std::uint64_t kN = 200;
  CountingSource src{"src", kN};
  FreeRunningPump p1{"p1"};
  Buffer cut{"cut", 8};
  ClockedPump p2{"p2", 1000.0};
  EventRecordingSink sink{"sink"};
  auto ch = src >> p1 >> cut >> p2 >> sink;
  shard::ShardGroup group(retire ? 2 : 3, manual_opts());
  shard::ShardedRealization sr(group, ch.pipeline());
  sr.start();
  group.step_until(rt::milliseconds(10));
  const shard::ShardChannel* chan = sr.find_live_channel("cut");
  ASSERT_NE(chan, nullptr);
  ASSERT_GT(chan->depth(), 4u) << "producer not parked above the watermark";
  ASSERT_GE(chan->stats().flow.put_blocks, 1u);

  const int producer = sr.shard_of_section(0);
  const int consumer = sr.shard_of_section(1);
  int target = 3 - producer - consumer;  // the idle third shard
  if (retire) {
    target = group.add_shard();
    sr.sync_topology();
  }
  const shard::MigrationOutcome out = sr.migrate_section(1, target);
  EXPECT_EQ(out.cuts_rebound, 1u);
  EXPECT_EQ(sr.shard_of_section(0), producer);
  EXPECT_EQ(sr.shard_of_section(1), target);
  if (retire) group.retire_shard(consumer);

  for (int i = 2; i <= 100 && !sink.eos; ++i) {
    group.step_until(rt::milliseconds(10 * i));
  }
  EXPECT_TRUE(sr.finished());
  ASSERT_EQ(sink.seqs.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_TRUE(sink.eos);
}

TEST(ChannelWake, MigratingTheConsumerWhileProducerParkedIsLossFree) {
  move_consumer_while_producer_parked(false);
}

TEST(ChannelWake, RetiringTheConsumerShardWhileProducerParkedIsLossFree) {
  const ElasticGuard elastic_on;
  move_consumer_while_producer_parked(true);
}

// --- control capabilities across shards ------------------------------------

/// Display that records frame widths and, at one frame, broadcasts a new
/// window size from its own shard.
class ResizingDisplay : public media::VideoDisplay {
 public:
  ResizingDisplay(std::string name, std::uint64_t resize_at)
      : VideoDisplay(std::move(name)), resize_at_(resize_at) {}
  std::vector<int> widths;

 protected:
  void consume(Item x) override {
    widths.push_back(x.as<media::VideoFrame>().width);
    if (x.seq == resize_at_) {
      broadcast(Event{kEventWindowResize, std::make_pair(640, 480)});
    }
    VideoDisplay::consume(std::move(x));
  }

 private:
  std::uint64_t resize_at_;
};

TEST(ShardedRealization, ResizerOnAnotherShardThanTheDisplayComposes) {
  media::StreamConfig cfg;
  cfg.frames = 60;
  media::MpegFileSource movie{"movie", cfg};
  ClockedPump decode_pump{"decode-pump", 100.0};
  media::MpegDecoder decoder{"decoder"};
  media::Resizer resizer{"resizer", 320, 240};
  Buffer resized{"resized", 8};
  ClockedPump present_pump{"present-pump", 100.0};
  ResizingDisplay display{"display", 20};
  auto ch = movie >> decode_pump >> decoder >> resizer >> resized >>
            present_pump >> display;

  shard::ShardGroup group(2, manual_opts());
  // The resizer requires 'window-resize', which only the display emits; the
  // per-shard plan of the resizer's section is credited with what the rest
  // of the pipeline emits.
  shard::ShardedRealization sr(group, ch.pipeline());
  ASSERT_EQ(sr.section_count(), 2u);
  ASSERT_NE(sr.shard_of_section(0), sr.shard_of_section(1));
  sr.start();
  for (int i = 1; i <= 200 && !display.eos(); ++i) {
    group.step_until(rt::milliseconds(10 * i));
  }
  EXPECT_TRUE(sr.finished());
  EXPECT_EQ(resizer.width(), 640);
  EXPECT_EQ(resizer.height(), 480);
  ASSERT_EQ(display.widths.size(), 60u);
  EXPECT_EQ(display.widths.front(), 320);
  EXPECT_EQ(display.widths.back(), 640);
}

TEST(ShardedRealization, SubPipelineStillRejectsACapabilityNobodyEmits) {
  media::StreamConfig cfg;
  cfg.frames = 10;
  media::MpegFileSource movie{"movie", cfg};
  ClockedPump decode_pump{"decode-pump", 100.0};
  media::Resizer resizer{"resizer", 320, 240};
  Buffer resized{"resized", 8};
  ClockedPump present_pump{"present-pump", 100.0};
  CountingSink sink{"sink"};
  auto ch = movie >> decode_pump >> resizer >> resized >> present_pump >> sink;
  shard::ShardGroup group(2, manual_opts());
  EXPECT_THROW(shard::ShardedRealization(group, ch.pipeline()),
               CompositionError);
}

}  // namespace
}  // namespace infopipe

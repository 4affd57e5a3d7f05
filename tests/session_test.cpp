// ip_session tests: one shared plan stamped into many live flows.
//
// The deterministic core runs under manual ShardGroups and virtual clocks —
// the same lockstep harness the balance suite uses — so session emission,
// class stealing and admission replay bit-identically across runs, which is
// asserted literally (two full runs, equal digests). The kill switch
// (config().sessions = false) is exercised against the shared path in the
// same harness: per-session digests must match across modes, while the
// realization counter exposes the cost the shared path avoids. The network
// front door runs real loopback TCP: N concurrent peers, each with its own
// adopted transport, opening and closing sessions through control frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "balance/accountant.hpp"
#include "core/config.hpp"
#include "core/infopipes.hpp"
#include "core/realization_handle.hpp"
#include "net/error.hpp"
#include "net/socket_transport.hpp"
#include "replay/digest.hpp"
#include "rt/clock.hpp"
#include "rt/io_bridge.hpp"
#include "session/acceptor.hpp"
#include "session/engine.hpp"
#include "session/plan.hpp"
#include "session/session.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace infopipe::session {
namespace {

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

/// Pins config().sessions for one scope (the INFOPIPE_SESSIONS kill
/// switch), so the suite behaves the same under the sessions=off CI pass:
/// tests of the shared-path mechanics pin it on; the kill-switch test
/// drives both modes explicitly.
class SessionsGuard {
 public:
  explicit SessionsGuard(bool on) : prev_(config().sessions) {
    config().sessions = on;
  }
  ~SessionsGuard() { config().sessions = prev_; }

 private:
  bool prev_;
};

/// Pins config().elastic for the topology-change tests (the
/// INFOPIPE_ELASTIC kill switch has its own suite in elastic_test.cpp).
class ElasticGuard {
 public:
  explicit ElasticGuard(bool on) : prev_(config().elastic) {
    config().elastic = on;
  }
  ~ElasticGuard() { config().elastic = prev_; }

 private:
  bool prev_;
};

// ---------- the shared plan --------------------------------------------------------

TEST(SharedPlan, AnalyzedOnceAndStampedManyTimes) {
  const SessionsGuard shared_on(true);
  EngineSpec spec;
  spec.stages = [](int) {
    std::vector<std::unique_ptr<Component>> v;
    v.push_back(std::make_unique<IdentityFunction>("sess.id"));
    return v;
  };
  const auto plan = SharedPlan::analyze(std::move(spec));

  // The planner saw src >> governor >> stage >> lag >> sink: one active
  // source driving one all-passive section.
  const PlanInfo& info = plan->info();
  EXPECT_EQ(info.components, 5u);
  ASSERT_EQ(info.sections.size(), 1u);
  EXPECT_EQ(info.sections[0].driver, "sess.src");
  EXPECT_EQ(info.sections[0].driver_style, Style::kActiveSource);
  bool has_gov = false;
  bool has_stage = false;
  for (const PlanInfo::Member& m : info.sections[0].members) {
    if (m.name == "sess.governor") has_gov = true;
    if (m.name == "sess.id") has_stage = true;
  }
  EXPECT_TRUE(has_gov);
  EXPECT_TRUE(has_stage);  // the factory's stage sits inside the section

  shard::ShardGroup group(2, manual_opts());
  SessionTable table(group, plan);
  ASSERT_TRUE(table.shared_mode());
  // One realize per shard, at construction — and never again.
  EXPECT_EQ(table.realizations(), 2u);

  std::vector<SessionId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(table.open_on(i % 2, SessionParams{}));
  }
  EXPECT_EQ(table.realizations(), 2u);  // stamps, not realizations
  EXPECT_EQ(table.live(), 100u);
  EXPECT_EQ(table.live_on(0), 50u);
  EXPECT_EQ(table.live_on(1), 50u);
  // Every session shares the ONE PlanInfo — the same object, not a copy.
  EXPECT_EQ(&table.plan_info(), &plan->info());

  for (SessionId id : ids) table.close(id);
  EXPECT_EQ(table.live(), 0u);
}

// ---------- the per-item kernels ---------------------------------------------------

/// The payload formula, one byte at a time: the definition fill_payload's
/// word-at-a-time version must reproduce bit for bit.
std::vector<std::uint8_t> bytewise_payload(std::size_t n, SessionId id,
                                           std::uint64_t seq) {
  std::vector<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(
        (id >> ((i % 8) * 8)) ^ ((seq + i) * 131u) ^ 0x5Au);
  }
  return b;
}

TEST(SessionKernels, FillPayloadMatchesTheByteFormulaForEveryLength) {
  std::mt19937_64 rng(config().seed);
  constexpr std::size_t kGuard = 16;
  for (std::size_t n = 0; n <= 1100; ++n) {
    for (int rep = 0; rep < 3; ++rep) {
      // Real session ids, then arbitrary 64-bit ones; seq wraps too.
      const SessionId id = rep == 0 ? make_session_id(rng() >> 41, rep)
                                    : rng();
      const std::uint64_t seq = rep == 2 ? ~std::uint64_t{0} - n : rng();
      std::vector<std::uint8_t> got(n + kGuard, 0xCC);
      fill_payload(got.data(), n, id, seq);
      const std::vector<std::uint8_t> want = bytewise_payload(n, id, seq);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << "n=" << n << " id=" << id << " seq=" << seq;
      for (std::size_t i = n; i < got.size(); ++i) {
        ASSERT_EQ(got[i], 0xCC) << "wrote past n=" << n;
      }
    }
  }
}

/// The digest's definition spelled out: FNV-1a steps, each followed by a
/// 32-bit xor-shift, over little-endian words assembled byte by byte, the
/// tail bytes, the length, seq, kind.
std::uint64_t reference_item_digest(std::uint64_t h,
                                    const std::vector<std::uint8_t>& p,
                                    std::uint64_t seq, std::uint32_t kind) {
  const auto step = [&h](std::uint64_t w) {
    h ^= w;
    h *= 1099511628211ull;
    h ^= h >> 32;
  };
  std::size_t i = 0;
  for (; i + 8 <= p.size(); i += 8) {
    std::uint64_t w = 0;
    for (std::size_t k = 8; k-- > 0;) w = (w << 8) | p[i + k];
    step(w);
  }
  for (; i < p.size(); ++i) step(p[i]);
  step(p.size());
  step(seq);
  step(kind);
  return h;
}

std::uint64_t item_digest(const std::vector<std::uint8_t>& p,
                          std::uint64_t seq, int kind) {
  StreamDigest d;
  d.update_item(p.data(), p.size(), seq, kind);
  return d.h;
}

TEST(SessionKernels, DigestIsWordWiseFnv1aOverLittleEndianWords) {
  std::mt19937_64 rng(config().seed + 1);
  for (std::size_t n = 0; n <= 64; ++n) {
    std::vector<std::uint8_t> p(n);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t seq = rng();
    const auto kind = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(item_digest(p, seq, static_cast<int>(kind)),
              reference_item_digest(StreamDigest{}.h, p, seq, kind))
        << "n=" << n;
  }
}

TEST(SessionKernels, EverySingleBitFlipMovesTheDigest) {
  std::mt19937_64 rng(config().seed + 2);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<std::uint8_t> p(n);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t seq = rng();
    const int kind = static_cast<int>(rng());
    const std::uint64_t base = item_digest(p, seq, kind);
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      std::vector<std::uint8_t> q = p;
      q[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_NE(item_digest(q, seq, kind), base)
          << "n=" << n << " bit=" << bit;
    }
    for (int bit = 0; bit < 64; ++bit) {
      ASSERT_NE(item_digest(p, seq ^ (std::uint64_t{1} << bit), kind), base)
          << "seq bit " << bit;
    }
    for (int bit = 0; bit < 32; ++bit) {
      const int flipped = static_cast<int>(static_cast<std::uint32_t>(kind) ^
                                           (std::uint32_t{1} << bit));
      ASSERT_NE(item_digest(p, seq, flipped), base) << "kind bit " << bit;
    }
  }
}

struct DigestItem {
  std::vector<std::uint8_t> payload;
  std::uint64_t seq = 0;
  int kind = 0;
};

std::uint64_t stream_digest(const std::vector<DigestItem>& items) {
  StreamDigest d;
  for (const DigestItem& x : items) {
    d.update_item(x.payload.data(), x.payload.size(), x.seq, x.kind);
  }
  return d.h;
}

/// Flips bit `bit` of the stream's fields, counted item by item: payload
/// bits, then seq's 64, then kind's 32.
void flip_stream_bit(std::vector<DigestItem>& items, std::size_t bit) {
  for (DigestItem& x : items) {
    const std::size_t pay = 8 * x.payload.size();
    if (bit < pay) {
      x.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      return;
    }
    bit -= pay;
    if (bit < 64) {
      x.seq ^= std::uint64_t{1} << bit;
      return;
    }
    bit -= 64;
    if (bit < 32) {
      x.kind = static_cast<int>(static_cast<std::uint32_t>(x.kind) ^
                                (std::uint32_t{1} << bit));
      return;
    }
    bit -= 32;
  }
  FAIL() << "bit out of range";
}

TEST(SessionKernels, EveryPairOfBitFlipsMovesTheDigest) {
  // A multiply only carries a change upward, so a flip of a word's bit 63
  // must be mixed back down or a second such flip cancels it. The pairs
  // include payload[7] with payload[15], and a payload word's top bit with
  // the next item's seq bit 63.
  std::mt19937_64 rng(config().seed + 4);
  std::vector<DigestItem> items = {{std::vector<std::uint8_t>(17), 0, 0},
                                   {std::vector<std::uint8_t>(9), 0, 0}};
  for (DigestItem& x : items) {
    for (auto& b : x.payload) b = static_cast<std::uint8_t>(rng());
    x.seq = rng();
    x.kind = static_cast<int>(rng());
  }
  std::size_t bits = 0;
  for (const DigestItem& x : items) bits += 8 * x.payload.size() + 96;
  const std::uint64_t base = stream_digest(items);
  for (std::size_t i = 0; i < bits; ++i) {
    for (std::size_t j = i + 1; j < bits; ++j) {
      std::vector<DigestItem> q = items;
      flip_stream_bit(q, i);
      flip_stream_bit(q, j);
      ASSERT_NE(stream_digest(q), base) << "bits " << i << " and " << j;
    }
  }
}

TEST(SessionKernels, RandomCorruptionOfWordTopBytesMovesTheDigest) {
  // Errors confined to bytes at offsets 7 mod 8 (each word's top byte).
  // A digest that left them in its top 8 bits would miss about 1 in 256.
  std::mt19937_64 rng(config().seed + 5);
  std::vector<std::uint8_t> p(256);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t seq = rng();
  const int kind = static_cast<int>(rng());
  const std::uint64_t base = item_digest(p, seq, kind);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> q = p;
    bool changed = false;
    while (!changed) {
      for (std::size_t off = 7; off < q.size(); off += 8) {
        if (rng() % 4 == 0) {
          const auto e = static_cast<std::uint8_t>(rng());
          q[off] ^= e;
          changed |= e != 0;
        }
      }
    }
    ASSERT_NE(item_digest(q, seq, kind), base) << "trial " << trial;
  }
}

TEST(SessionKernels, SwappingTwoItemsMovesTheDigest) {
  const std::vector<DigestItem> a = {{{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 7},
                                     {{9, 8, 7}, 2, 7}};
  const std::vector<DigestItem> b = {a[1], a[0]};
  EXPECT_NE(stream_digest(a), stream_digest(b));
  // Same payloads and kinds, seqs swapped with them: still a different
  // stream.
  const std::vector<DigestItem> c = {{a[0].payload, 2, 7},
                                     {a[1].payload, 1, 7}};
  EXPECT_NE(stream_digest(a), stream_digest(c));
}

/// The pre-word-digest byte layout of a stream: payload bytes, then seq and
/// kind as big-endian 8-byte words, item after item.
std::vector<std::uint8_t> flat_bytes(const std::vector<DigestItem>& items) {
  std::vector<std::uint8_t> out;
  for (const DigestItem& x : items) {
    out.insert(out.end(), x.payload.begin(), x.payload.end());
    for (std::uint64_t v : {x.seq, std::uint64_t{static_cast<std::uint32_t>(
                                       x.kind)}}) {
      for (int k = 7; k >= 0; --k) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
      }
    }
  }
  return out;
}

TEST(SessionKernels, MovingAByteBetweenPayloadAndSeqMovesTheDigest) {
  // 1. The same flat byte string, cut into items at other places: the last
  //    payload byte of A's first item becomes the top byte of B's seq, and
  //    every later byte shifts one field along.
  const std::uint64_t s1 = 0x1122334455667700ull;  // low byte 0: kind fits
  const std::uint32_t k1 = 0x0A0B0C0Du;
  const std::vector<DigestItem> a = {
      {{1, 2, 3, 0x77}, s1, static_cast<int>(k1)}, {{9, 8}, 5, 3}};
  const std::vector<DigestItem> b = {
      {{1, 2, 3}, (std::uint64_t{0x77} << 56) | (s1 >> 8),
       static_cast<int>(k1 >> 8)},
      {{static_cast<std::uint8_t>(k1 & 0xFF), 9, 8}, 5, 3}};
  ASSERT_EQ(flat_bytes(a), flat_bytes(b));
  EXPECT_NE(stream_digest(a), stream_digest(b));

  // 2. The same sequence of hash steps without the length: A's last tail
  //    byte is B's seq, A's seq is B's kind, A's kind is B's next first
  //    payload byte. Only the folded-in lengths tell them apart.
  const std::vector<DigestItem> c = {{{1, 2, 3, 0x44}, 0x55, 0x66},
                                     {{9, 8}, 5, 3}};
  const std::vector<DigestItem> d = {{{1, 2, 3}, 0x44, 0x55},
                                     {{0x66, 9, 8}, 5, 3}};
  EXPECT_NE(stream_digest(c), stream_digest(d));
}

/// Exposes DigestProbe's per-item step without realizing a pipeline.
class OpenProbe : public replay::DigestProbe {
 public:
  using DigestProbe::DigestProbe;
  using DigestProbe::convert;
};

TEST(SessionKernels, ProbeSessionSinkAndDigestItemAgree) {
  const SessionId id = make_session_id(4242, 1);
  ShardState st;
  SessionSink sink("sink", &st);
  OpenProbe probe("probe");
  StreamDigest d;
  std::vector<std::uint8_t> scratch;
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    const std::size_t bytes = (seq * 37) % 1100;  // inline and pooled sizes
    Item x = make_session_item(scratch, id, seq, rt::Time(seq), bytes);
    digest_item(d, x);
    sink.consume(probe.convert(std::move(x)));
  }
  EXPECT_EQ(probe.items(), 40u);
  EXPECT_EQ(sink.items_of(id), 40u);
  EXPECT_EQ(probe.digest(), d.h);
  EXPECT_EQ(sink.digest_of(id), d.h);
  EXPECT_NE(d.h, StreamDigest{}.h);
}

// ---------- lockstep emission and class stealing -----------------------------------

struct LockstepResult {
  std::vector<std::uint64_t> items;    // gold0, silver0, bronze0, gold1
  std::vector<std::uint64_t> digests;
  std::array<double, 3> mult0{};
  double bronze1 = 0.0;
  std::uint64_t total = 0;
  JitterSnapshot jitter;

  bool operator==(const LockstepResult& o) const {
    return items == o.items && digests == o.digests && total == o.total;
  }
};

LockstepResult lockstep_run() {
  const SessionsGuard shared_on(true);
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  std::vector<SessionId> ids;
  ids.push_back(table.open_on(0, SessionParams{QosClass::kGold, 20.0, 32}));
  ids.push_back(table.open_on(0, SessionParams{QosClass::kSilver, 20.0, 32}));
  ids.push_back(table.open_on(0, SessionParams{QosClass::kBronze, 20.0, 32}));
  ids.push_back(table.open_on(1, SessionParams{QosClass::kGold, 20.0, 32}));

  group.step_until(rt::seconds(1));
  // Pressure on shard 0: exactly what one feedback actuation would apply.
  table.inject_hint(0, 0.25);
  group.step_until(rt::seconds(3));

  LockstepResult r;
  for (SessionId id : ids) {
    r.items.push_back(table.items_of(id));
    r.digests.push_back(table.digest(id));
  }
  r.mult0 = {table.mult(0, QosClass::kGold), table.mult(0, QosClass::kSilver),
             table.mult(0, QosClass::kBronze)};
  r.bronze1 = table.mult(1, QosClass::kBronze);
  r.total = table.items_total();
  r.jitter = table.jitter();
  for (SessionId id : ids) table.close(id);
  return r;
}

TEST(SessionLockstep, ClassStealingIsBitIdenticalAcrossRuns) {
  const LockstepResult a = lockstep_run();
  const LockstepResult b = lockstep_run();
  EXPECT_TRUE(a == b) << "lockstep session runs diverged";

  // The hint degraded bronze to 0.25, silver to the midpoint, gold not at
  // all — so gold kept its cadence while bronze lost most of it.
  EXPECT_DOUBLE_EQ(a.mult0[0], 1.0);
  EXPECT_DOUBLE_EQ(a.mult0[1], 0.625);
  EXPECT_DOUBLE_EQ(a.mult0[2], 0.25);
  EXPECT_DOUBLE_EQ(a.bronze1, 1.0);  // the hint touched only shard 0
  EXPECT_GT(a.items[0], a.items[1]);  // gold > silver
  EXPECT_GT(a.items[1], a.items[2]);  // silver > bronze
  EXPECT_EQ(a.items[0], a.items[3]);  // gold cadence equal on both shards
  for (std::uint64_t d : a.digests) EXPECT_NE(d, 0u);

  // Virtual clocks fire exactly on schedule: inter-item jitter is zero.
  EXPECT_GT(a.jitter.samples, 0u);
  EXPECT_LE(a.jitter.p99_ns, 1u);
}

// ---------- the kill switch --------------------------------------------------------

struct ModeResult {
  bool shared = false;
  std::uint64_t realizations = 0;
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> digests;
};

ModeResult mode_run(bool shared_on) {
  const SessionsGuard mode(shared_on);
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  std::vector<SessionId> ids;
  ids.push_back(table.open_on(0, SessionParams{QosClass::kGold, 20.0, 32}));
  ids.push_back(table.open_on(0, SessionParams{QosClass::kBronze, 5.0, 16}));
  ids.push_back(table.open_on(1, SessionParams{QosClass::kSilver, 10.0, 8}));
  group.step_until(rt::seconds(2));

  ModeResult r;
  r.shared = table.shared_mode();
  r.realizations = table.realizations();
  for (SessionId id : ids) {
    r.items.push_back(table.items_of(id));
    r.digests.push_back(table.digest(id));
  }
  for (SessionId id : ids) table.close(id);
  return r;
}

TEST(SessionKillSwitch, FallbackEmitsBitIdenticalStreamsAtClassicCost) {
  const ModeResult shared = mode_run(true);
  const ModeResult solo = mode_run(false);

  ASSERT_TRUE(shared.shared);
  ASSERT_FALSE(solo.shared);
  // Same ids, same item counts, same payload digests — the sessions cannot
  // tell which mode produced them.
  EXPECT_EQ(shared.items, solo.items);
  EXPECT_EQ(shared.digests, solo.digests);
  for (std::uint64_t d : shared.digests) EXPECT_NE(d, 0u);
  for (std::uint64_t n : shared.items) EXPECT_GT(n, 0u);
  // The cost difference is the whole point: n_shards realizations shared,
  // one per session in fallback.
  EXPECT_EQ(shared.realizations, 2u);
  EXPECT_EQ(solo.realizations, 3u);
}

TEST(SessionTableManual, CloseStopsEmissionExactly) {
  const SessionsGuard shared_on(true);
  shard::ShardGroup group(1, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  const SessionId id =
      table.open_on(0, SessionParams{QosClass::kBronze, 100.0, 8});
  group.step_until(rt::seconds(1));
  const std::uint64_t before = table.items_of(id);
  EXPECT_GE(before, 100u);

  table.close(id);
  EXPECT_EQ(table.live(), 0u);
  group.step_until(rt::seconds(2));
  // The close drains before the next cycle: not one more item.
  EXPECT_EQ(table.items_of(id), before);
}

// ---------- elastic topology -------------------------------------------------------

TEST(SessionTableElastic, GrowsAndRetiresEnginesMidRun) {
  const SessionsGuard shared_on(true);
  const ElasticGuard elastic_on(true);
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  EXPECT_EQ(table.realizations(), 2u);

  // Growth: one engine realized for the new shard, exactly once.
  const int added = group.add_shard();
  table.sync_topology();
  EXPECT_EQ(table.shards(), 3);
  EXPECT_EQ(table.realizations(), 3u);
  table.sync_topology();  // idempotent
  EXPECT_EQ(table.realizations(), 3u);

  // The new engine pumps like its siblings.
  const SessionId id =
      table.open_on(added, SessionParams{QosClass::kBronze, 100.0, 8});
  group.step_until(rt::seconds(1));
  EXPECT_GE(table.items_of(id), 100u);

  // Retirement force-closes what was open there and refuses new stamps.
  table.retire_shard(added);
  EXPECT_EQ(table.live_on(added), 0u);
  EXPECT_EQ(table.live(), 0u);
  EXPECT_THROW((void)table.open_on(added, SessionParams{}), std::out_of_range);
  group.retire_shard(added);
  EXPECT_EQ(table.live_shards(), (std::vector<int>{0, 1}));

  // Survivors keep stamping and pumping.
  const SessionId id2 =
      table.open_on(0, SessionParams{QosClass::kBronze, 100.0, 8});
  group.step_until(rt::seconds(2));
  EXPECT_GT(table.items_of(id2), 0u);
  table.close(id2);
}

// ---------- admission --------------------------------------------------------------

TEST(SessionAcceptorTest, DecidesDeterministicallyAgainstMeasuredLoad) {
  const SessionsGuard shared_on(true);
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);
  acct.note_busy_sample(0, 0.60);
  acct.note_busy_sample(1, 0.80);

  AdmissionPolicy pol;
  pol.cost_per_item = 0.01;  // rate 5 Hz -> planned load 0.05
  SessionAcceptor acc(table, acct, pol);

  // Same inputs, same decision — three times over.
  const SessionParams small{QosClass::kBronze, 5.0, 8};
  const Decision d1 = acc.decide(small);
  const Decision d2 = acc.decide(small);
  const Decision d3 = acc.decide(small);
  EXPECT_TRUE(d1.admitted);
  EXPECT_EQ(d1.shard, 0);  // 0.60 < 0.80: least-loaded wins
  EXPECT_EQ(d1.admitted, d2.admitted);
  EXPECT_EQ(d1.shard, d2.shard);
  EXPECT_EQ(d1.load, d3.load);

  // A heavy bronze session would push shard 0 past the bronze watermark
  // (0.60 + 0.20 > 0.70) — refused, with the reason spelled out. The same
  // load is fine for gold (0.80 <= 0.95) and silver (0.80 <= 0.85).
  const SessionParams heavy_bronze{QosClass::kBronze, 20.0, 8};
  const Decision rb = acc.decide(heavy_bronze);
  EXPECT_FALSE(rb.admitted);
  EXPECT_NE(rb.reason.find("bronze"), std::string::npos);
  EXPECT_NE(rb.reason.find("watermark"), std::string::npos);
  EXPECT_TRUE(acc.decide(SessionParams{QosClass::kGold, 20.0, 8}).admitted);
  EXPECT_TRUE(acc.decide(SessionParams{QosClass::kSilver, 20.0, 8}).admitted);

  // open() is decide() plus bookkeeping; close() releases it.
  const SessionAcceptor::OpenResult ok = acc.open(small);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.shard, 0);
  EXPECT_DOUBLE_EQ(acc.planned_load(0), 0.05);
  const SessionAcceptor::OpenResult no = acc.open(heavy_bronze);
  EXPECT_FALSE(no.ok);
  EXPECT_FALSE(no.reason.empty());
  EXPECT_EQ(acc.admitted(), 1u);
  EXPECT_EQ(acc.rejected(), 1u);
  acc.close(ok.id);
  EXPECT_DOUBLE_EQ(acc.planned_load(0), 0.0);
  EXPECT_EQ(table.live(), 0u);
}

TEST(SessionAcceptorTest, PlannedLoadSpreadsAdmissionsBeforeTheEwmaSees) {
  const SessionsGuard shared_on(true);
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);  // no samples: measured load is zero

  AdmissionPolicy pol;
  pol.cost_per_item = 0.125;  // exact in binary: no FP edge at the watermark
  SessionAcceptor acc(table, acct, pol);

  const SessionParams p{QosClass::kBronze, 1.0, 8};
  std::vector<int> shards;
  while (true) {
    const SessionAcceptor::OpenResult r = acc.open(p);
    if (!r.ok) break;
    shards.push_back(r.shard);
    ASSERT_LT(shards.size(), 50u) << "bronze watermark never reached";
  }
  // The EWMA is blind to brand-new sessions; the planned load is what
  // alternates the admissions instead of piling them on shard 0.
  ASSERT_GE(shards.size(), 4u);
  EXPECT_EQ((std::vector<int>(shards.begin(), shards.begin() + 4)),
            (std::vector<int>{0, 1, 0, 1}));
  // 0.70 bronze watermark / 0.125 per session: five sessions per shard.
  EXPECT_EQ(shards.size(), 10u);
  // Bronze is full; gold still fits under its higher watermark.
  EXPECT_TRUE(acc.open(SessionParams{QosClass::kGold, 1.0, 8}).ok);
}

TEST(SessionAcceptorTest, SeesShardsAddedAfterConstruction) {
  const SessionsGuard shared_on(true);
  const ElasticGuard elastic_on(true);
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);
  acct.note_busy_sample(0, 0.60);
  acct.note_busy_sample(1, 0.55);

  AdmissionPolicy pol;
  pol.cost_per_item = 0.01;
  SessionAcceptor acc(table, acct, pol);

  const SessionParams p{QosClass::kBronze, 5.0, 8};
  EXPECT_EQ(acc.decide(p).shard, 1);  // least loaded of the original pair

  // The group grows mid-churn. The regression this pins: the acceptor used
  // to snapshot the shard count at construction and would never consider
  // the new shard; decide() must re-resolve the live set on every call.
  const int added = group.add_shard();
  table.sync_topology();
  const Decision d = acc.decide(p);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.shard, added);  // unmeasured and unplanned: effective load 0
  const SessionAcceptor::OpenResult r = acc.open(p);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.shard, added);
  EXPECT_DOUBLE_EQ(acc.planned_load(added), 0.05);

  // Retirement drops it from the candidate set just as promptly.
  table.retire_shard(added);
  group.retire_shard(added);
  EXPECT_EQ(acc.decide(p).shard, 1);
  EXPECT_EQ(table.live(), 0u);  // the force-close took the session with it
}

// ---------- the unified control surface --------------------------------------------

TEST(RealizationHandleTest, OneSurfaceOverSingleAndShardedRealizations) {
  // Single-runtime realization through the interface.
  {
    rt::Runtime rtm;
    CountingSource src{"src", 5};
    FreeRunningPump pump{"pump"};
    CollectorSink sink{"sink"};
    auto ch = src >> pump >> sink;
    Realization real(rtm, ch.pipeline());
    RealizationHandle& h = real;
    EXPECT_EQ(h.plan_info().sections.size(), 1u);
    EXPECT_FALSE(h.describe().empty());
    h.control(kEventStart);  // the generic spelling of start()
    rtm.run();
    EXPECT_EQ(sink.count(), 5u);
    EXPECT_FALSE(h.stats_report().empty());
    EXPECT_NE(h.metrics_snapshot().find("rt.dispatches"), nullptr);
  }
  // Sharded realization through the same interface.
  {
    CountingSource src{"src", 100};
    FreeRunningPump pump{"pump"};
    Buffer buf{"buf", 16};
    FreeRunningPump pump2{"pump2"};
    CollectorSink sink{"sink"};
    auto ch = src >> pump >> buf >> pump2 >> sink;
    shard::ShardGroup group(2);
    shard::ShardedRealization sr(group, ch.pipeline());
    RealizationHandle& h = sr;
    EXPECT_EQ(h.plan_info().sections.size(), 2u);
    EXPECT_FALSE(h.describe().empty());
    h.start();
    ASSERT_TRUE(sr.wait_finished(std::chrono::milliseconds(30000)));
    EXPECT_EQ(sink.count(), 100u);
    EXPECT_FALSE(h.stats_report().empty());
  }
}

// ---------- churn under real threads (TSan) ----------------------------------------

TEST(SessionTableLive, SurvivesConcurrentOpenCloseChurn) {
  const SessionsGuard shared_on(true);
  shard::ShardGroup group(2);
  group.launch();
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&table, t] {
      std::vector<SessionId> held;
      for (int i = 0; i < kPerThread; ++i) {
        held.push_back(table.open_on((t + i) % 2,
                                     SessionParams{QosClass::kBronze, 200.0, 8}));
        if (held.size() >= 8) {  // close out of open order
          table.close(held.front());
          held.erase(held.begin());
        }
      }
      for (SessionId id : held) table.close(id);
    });
  }
  for (std::thread& th : churners) th.join();
  EXPECT_EQ(table.live(), 0u);
  EXPECT_EQ(table.realizations(), 2u);

  // The engines survived the churn and still pump for new sessions.
  const SessionId id =
      table.open_on(0, SessionParams{QosClass::kGold, 200.0, 8});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (table.items_of(id) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(table.items_of(id), 0u);
  table.close(id);
}

// ---------- the network front door -------------------------------------------------

/// call_control must run on a runtime thread; spawn a one-shot ULT and
/// drive the runtime until it completes (the remote_node pattern).
std::string ctl(rt::Runtime& rtm, net::SocketTransport& link,
                net::wire::ControlOp op, const std::string& text) {
  std::optional<std::string> out;
  std::exception_ptr error;
  bool done = false;
  const rt::ThreadId tmp = rtm.spawn(
      "test.rpc", rt::kPriorityControl,
      [&](rt::Runtime&, rt::Message) -> rt::CodeResult {
        try {
          out = link.call_control(op, text, rt::seconds(5));
        } catch (...) {
          error = std::current_exception();
        }
        done = true;
        return rt::CodeResult::kTerminate;
      });
  rtm.send(tmp, rt::Message{0, rt::MsgClass::kData});
  while (!done) rtm.run_until(rtm.now() + rt::milliseconds(2));
  if (error) std::rethrow_exception(error);
  return std::move(*out);
}

template <typename Pred>
bool drive_until(rt::Runtime& rtm, Pred done,
                 rt::Time budget = rt::seconds(10)) {
  const rt::Time deadline = rtm.now() + budget;
  while (!done()) {
    if (rtm.now() >= deadline) return false;
    rtm.run_until(rtm.now() + rt::milliseconds(2));
  }
  return true;
}

TEST(SessionFrontDoor, ManyPeersOpenCloseAndDieOverRealSockets) {
  const SessionsGuard shared_on(true);
  shard::ShardGroup group(2);
  group.launch();
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  balance::LoadAccountant acct(group);

  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};
  SessionAcceptor acc(table, acct);
  net::SocketConfig lcfg;
  lcfg.port = 0;
  acc.listen(rtm, io, lcfg);
  ASSERT_NE(acc.port(), 0);

  // Three peers at once — each gets its own adopted transport, nobody
  // queues behind the single-peer listen slot.
  std::vector<std::unique_ptr<net::SocketTransport>> clients;
  for (int i = 0; i < 3; ++i) {
    net::SocketConfig ccfg;
    ccfg.port = acc.port();
    clients.push_back(net::SocketTransport::connect(rtm, io, ccfg));
  }
  ASSERT_TRUE(drive_until(rtm, [&] { return acc.peers() == 3; }));

  // One open per peer, through control frames.
  std::vector<SessionId> ids;
  for (auto& c : clients) {
    const std::string reply =
        ctl(rtm, *c, net::wire::ControlOp::kSessionOpen,
            "gold\x1F" "50\x1F" "32");
    const std::size_t sep = reply.find('\x1F');
    ASSERT_NE(sep, std::string::npos) << reply;
    ids.push_back(static_cast<SessionId>(std::stoull(reply.substr(0, sep))));
    const int shard = std::stoi(reply.substr(sep + 1));
    EXPECT_EQ(shard, shard_of_session(ids.back()));
  }
  EXPECT_EQ(table.live(), 3u);
  EXPECT_EQ(acc.admitted(), 3u);
  ASSERT_TRUE(drive_until(rtm, [&] { return table.items_total() > 0; }));

  // Malformed and unsupported requests come back as error replies.
  EXPECT_THROW(ctl(rtm, *clients[0], net::wire::ControlOp::kSessionOpen,
                   "copper\x1F" "10\x1F" "8"),
               net::RemoteError);
  EXPECT_THROW(
      ctl(rtm, *clients[0], net::wire::ControlOp::kCreate, "nope"),
      net::RemoteError);

  // Peer 0 closes its own session.
  ctl(rtm, *clients[0], net::wire::ControlOp::kSessionClose,
      std::to_string(ids[0]));
  EXPECT_EQ(table.live(), 2u);

  // Peer 2 dies without closing: the sweep reaps its session.
  clients[2].reset();
  ASSERT_TRUE(drive_until(rtm, [&] {
    acc.sweep_peers();
    return acc.peers() == 2;
  }));
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table.live_on(shard_of_session(ids[1])), 1u);
}

}  // namespace
}  // namespace infopipe::session

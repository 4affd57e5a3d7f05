// Lock-free cross-shard channels (ip_shard).
//
// A ShardChannel bridges one cut edge of a partitioned plan: the buffer the
// planner placed between two sections is replaced by a bounded SPSC ring
// whose producer endpoint (ChannelSink) lives on the upstream shard and
// whose consumer endpoint (ChannelSource) lives on the downstream shard.
//
// Ring. The fast path is wait-free: a slot move and one store of the side's
// own position per item. Each side keeps a plain copy of the other side's
// position (cached_head_ / cached_tail_) and re-reads the shared one only
// when the copy says the ring is full (producer) or empty (consumer), so in
// steady state neither side touches the other's cache line per item. (The
// producer also re-reads head_ while its cached bound on the depth is above
// the depth high-water mark, so that mark stays exact; a saturated ring
// reaches its peak, capacity, within the first fill.) The producer-owned fields (tail_, cached_head_, its counters), the
// consumer-owned fields (head_, cached_tail_, its counters), each waiter
// slot and eos_ sit on separate 64-byte lines.
//
// Wake-ups. Only when a side finds the ring full/empty does it fall back to
// the doorbell path: it publishes its thread id in a waiter slot and parks
// in the middleware's control-responsive wait. The other side wakes it by
// posting a message through rt::Runtime::post_external (which rings the
// shard's Doorbell), so an idle shard sleeps instead of spinning:
//   - the producer wakes an empty-parked consumer after every push;
//   - the consumer wakes a full-parked producer only once the ring has
//     drained to half (post-pop depth <= capacity/2), so a producer that
//     parked pays one wake-up per half ring, not one per pop.
// Both sides first LOAD the waiter slot and exchange it only when it holds
// a thread, so a side that is awake costs the other a load, not an RMW.
//
// The sleep/wake handshake is a classic Dekker pattern on
// (ring position, waiter slot): the waiter stores its tid and THEN re-reads
// the other side's position (a recheck after a failed op always re-reads:
// the cached copy already says full/empty); the other side stores its own
// position and THEN loads the waiter slot. All four accesses are seq_cst,
// so one of the two always observes the other's write. The consumer skips
// the slot load above the half-ring watermark; that misses nothing because
// the depth it tests, cached_tail_ - head_, is a lower bound on the real
// depth, and while the producer is parked the real depth only falls, so
// the pop that takes it to half or below always loads the slot. When the
// slot holds a thread, the consumer re-reads tail_ before waking it, so a
// stale copy does not wake the producer above half.
//
// A parked producer stays parked until that wake: a control event that
// arrives meanwhile is dispatched (§3.2: a blocked endpoint still handles
// control, via wait_interruptible) but does not send it back to the ring;
// only a stopped flow or a shutdown ends the park early.
//
// Semantics mirror core::Buffer so a cut is behaviour-preserving:
// end-of-stream is a sticky flag drained after queued items, kDropNewest
// counts drops, EmptyPolicy::kNil returns nils, and a stopped flow stashes
// the in-flight item in a small overflow reserve instead of dropping it.
// FullPolicy::kDropOldest cannot be reproduced without racing the consumer;
// partition() colocates such buffers so they are never cut.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/buffer.hpp"
#include "core/introspect.hpp"
#include "core/item.hpp"
#include "core/typespec.hpp"
#include "mem/numa.hpp"
#include "replay/hooks.hpp"
#include "rt/msg_registry.hpp"
#include "rt/runtime.hpp"

namespace infopipe::shard {

namespace detail {
/// rt message types of the cross-shard doorbell path (payload: the
/// ShardChannel*). Values allotted in rt/msg_registry.hpp.
enum ShardMsgType : int {
  kMsgChanData = rt::msg::kChanData,    ///< ring has data; wakes a consumer
  kMsgChanSpace = rt::msg::kChanSpace,  ///< ring at half; wakes a producer
  kMsgRunFn = rt::msg::kRunFn,          ///< ShardGroup::run_on payload
};
}  // namespace detail

/// The bounded SPSC ring plus the cross-shard wakeup protocol. One producer
/// thread (on the bound producer runtime) and one consumer thread (on the
/// bound consumer runtime) at a time; the sharded realization guarantees
/// this by construction (a cut buffer has exactly one upstream and one
/// downstream section).
class ShardChannel {
 public:
  /// `numa_node` >= 0 requests the ring storage on that NUMA node (the
  /// consumer shard's node, normally — the consumer touches every slot
  /// last); < 0 allocates without preference.
  ShardChannel(std::string name, std::size_t capacity,
               FullPolicy full = FullPolicy::kBlock,
               EmptyPolicy empty = EmptyPolicy::kBlock, int numa_node = -1);
  ~ShardChannel();

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// FNV-1a of name(), precomputed at construction: how replay frames
  /// identify this ring without carrying the string.
  [[nodiscard]] std::uint64_t name_hash() const noexcept {
    return name_hash_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] FullPolicy full_policy() const noexcept { return full_; }
  [[nodiscard]] EmptyPolicy empty_policy() const noexcept { return empty_; }
  [[nodiscard]] int from_shard() const noexcept {
    return producer_shard_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int to_shard() const noexcept {
    return consumer_shard_.load(std::memory_order_acquire);
  }

  /// Wiring: which runtime/shard hosts each side. Atomic stores because live
  /// migration re-binds one side of a persisting cut while the FAR side may
  /// be mid-push/pop: the far side only dereferences the rebound pointer in
  /// wake_*(), and the moved side's section is quiesced (its waiter slot is
  /// kNoThread), so the worst case is a wakeup posted to the new runtime for
  /// a thread id that no longer exists there — rt::Runtime::send drops sends
  /// to unknown threads by design.
  void bind_producer(rt::Runtime& rtm, int shard) {
    producer_rt_.store(&rtm, std::memory_order_release);
    producer_shard_.store(shard, std::memory_order_release);
  }
  void bind_consumer(rt::Runtime& rtm, int shard) {
    consumer_rt_.store(&rtm, std::memory_order_release);
    consumer_shard_.store(shard, std::memory_order_release);
  }

  /// Re-allocates the ring storage on `node`. Only legal while the ring is
  /// EMPTY and neither side is mid-push/pop — i.e. at construction/binding
  /// time or under a migration quiesce. A no-op if the ring already sits on
  /// `node`. (A re-bind of a NON-empty ring under migration keeps the old
  /// placement: moving live slots would race the far side.)
  void place_ring(int node);

  /// The NUMA node the ring storage was REQUESTED on (-1: no preference).
  /// This is the placement decision, recorded even where the kernel lacks
  /// NUMA support — what the injected-topology tests verify.
  [[nodiscard]] int ring_node() const noexcept {
    return ring_node_.load(std::memory_order_acquire);
  }

  // -- ring (producer side: try_push/force_push; consumer side: try_pop) -----

  /// Moves `x` into the ring if depth < capacity. Producer shard only.
  /// Re-reads head_ when cached_head_ says the ring is full, or when the
  /// depth bound it gives exceeds the high-water mark (note_depth).
  bool try_push(Item& x);
  /// Like try_push but may use the small overflow reserve beyond capacity;
  /// the stopped-flow escape hatch mirroring Buffer::put's transient
  /// one-slot overflow. Returns false only when even the reserve is full.
  bool force_push(Item& x);
  /// Takes the oldest item, if any. Consumer shard only. Re-reads tail_
  /// only when cached_tail_ says the ring is empty.
  std::optional<Item> try_pop();

  /// Batched push (PR 6): claims min(space, xs.size()) slots and publishes
  /// them with ONE tail store. SPSC makes the single store a full N-slot
  /// reservation — the producer is the only tail writer, so the consumer
  /// either sees none or all of the burst; no CAS loop is needed. Never
  /// touches the overflow reserve. Returns how many items moved (0: full).
  std::size_t try_push_span(ItemSpan xs);
  /// Batched pop (PR 6): moves up to out.size() queued items out with ONE
  /// head store. Returns how many (0: empty).
  std::size_t try_pop_span(ItemSpan out);

  /// Sticky end-of-stream: queued items drain first, then the consumer
  /// observes EOS forever (exactly Buffer's eos_ flag).
  void set_eos() noexcept { eos_.store(true, std::memory_order_seq_cst); }
  [[nodiscard]] bool eos() const noexcept {
    return eos_.load(std::memory_order_seq_cst);
  }

  /// Approximate while both shards run; exact when one side is parked.
  [[nodiscard]] std::size_t depth() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  // -- sleep/wake handshake ----------------------------------------------------

  void register_producer_waiter(rt::ThreadId tid) noexcept {
    producer_waiter_.store(tid, std::memory_order_seq_cst);
  }
  void clear_producer_waiter() noexcept {
    producer_waiter_.store(rt::kNoThread, std::memory_order_seq_cst);
  }
  void register_consumer_waiter(rt::ThreadId tid) noexcept {
    consumer_waiter_.store(tid, std::memory_order_seq_cst);
  }
  void clear_consumer_waiter() noexcept {
    consumer_waiter_.store(rt::kNoThread, std::memory_order_seq_cst);
  }

  /// Called by the consumer after every pop: posts kMsgChanSpace to a
  /// parked producer, if one registered, once the post-pop depth is at or
  /// below capacity/2 (the half-ring watermark).
  void wake_producer();
  /// Called by the producer after every push (and on EOS): posts
  /// kMsgChanData to a parked consumer, if one registered.
  void wake_consumer();

  // -- stats (relaxed atomics, sampled by stats()) ----------------------------

  void count_drop() noexcept { drops_.fetch_add(1, std::memory_order_relaxed); }
  void count_drops(std::uint64_t n) noexcept {
    drops_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_nil() noexcept { nils_.fetch_add(1, std::memory_order_relaxed); }
  void count_producer_stall() noexcept {
    producer_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_consumer_stall() noexcept {
    consumer_stalls_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t producer_stalls() const noexcept {
    return producer_stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_stalls() const noexcept {
    return consumer_stalls_.load(std::memory_order_relaxed);
  }

  /// Rendered in the BufferStats schema (stats().flow): the channel is the
  /// buffer it replaced, so fill==depth, puts==pushes, takes==pops,
  /// put_blocks==producer stalls, take_blocks==consumer stalls. max_fill is
  /// the largest depth right after a push, against head_ as the producer
  /// read it then (Buffer's high-water mark); wakeups sums both sides'
  /// doorbell posts.
  [[nodiscard]] ChannelStats stats() const;

 private:
  /// (Re)creates the slot array on `node`; ring must be empty.
  void alloc_slots(int node);
  void free_slots() noexcept;

  /// Claims `slot`'s thread (exchange) and posts it a `type` message
  /// through `rtm`'s external queue. Callers load the slot first and call
  /// this only when it holds a thread. False when nothing was posted.
  bool post_wake(std::atomic<rt::ThreadId>& slot,
                 const std::atomic<rt::Runtime*>& rtm, int type);

  static constexpr std::size_t kLine = 64;

  // -- read-mostly: written at construction, binding and migration ----------

  std::string name_;
  std::uint64_t name_hash_;
  std::size_t capacity_;
  FullPolicy full_;
  EmptyPolicy empty_;

  // Ring storage: capacity_ + overflow reserve default-constructed Items in
  // raw NUMA-aware storage (mem/numa.hpp) so the slot array — which every
  // item crossing the cut is moved through — can live on the consumer
  // shard's node.
  Item* slots_ = nullptr;
  std::size_t n_slots_ = 0;
  mem::NumaBlock ring_mem_;
  std::atomic<int> ring_node_{-1};

  std::atomic<rt::Runtime*> producer_rt_{nullptr};
  std::atomic<rt::Runtime*> consumer_rt_{nullptr};
  std::atomic<int> producer_shard_{0};
  std::atomic<int> consumer_shard_{0};

  // Monotonic positions; slot index = position % n_slots_. 64-bit counters
  // make wraparound a non-issue at any realistic item rate. Each side's
  // counters are single-writer relaxed atomics beside its own position, so
  // counting never moves the other side's line.

  // -- producer line ---------------------------------------------------------

  alignas(kLine) std::atomic<std::uint64_t> tail_{0};  ///< next push position
  /// The producer's last view of head_: a lower bound on it.
  std::uint64_t cached_head_ = 0;
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> producer_stalls_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> max_depth_{0};
  std::atomic<std::uint64_t> data_wakeups_{0};  ///< kMsgChanData posts

  /// Records the true depth right after a push that moved the tail to
  /// `new_tail`, if it is a new high-water mark. new_tail - cached_head_
  /// bounds the depth from above, so head_ is re-read (and the cache
  /// refreshed) only when that bound exceeds the mark: the mark is exact,
  /// and once it has peaked (a saturated ring: capacity) this costs the
  /// producer no read of the consumer's line. Only the producer writes the
  /// mark, so a plain load-compare-store is enough.
  void note_depth(std::uint64_t new_tail) noexcept {
    const std::uint64_t mark = max_depth_.load(std::memory_order_relaxed);
    if (new_tail - cached_head_ <= mark) return;
    cached_head_ = head_.load(std::memory_order_acquire);
    const std::uint64_t d = new_tail - cached_head_;
    if (d > mark) max_depth_.store(d, std::memory_order_relaxed);
  }

  // -- consumer line ---------------------------------------------------------

  alignas(kLine) std::atomic<std::uint64_t> head_{0};  ///< next pop position
  /// The consumer's last view of tail_: a lower bound on it.
  std::uint64_t cached_tail_ = 0;
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> consumer_stalls_{0};
  std::atomic<std::uint64_t> nils_{0};
  std::atomic<std::uint64_t> space_wakeups_{0};  ///< kMsgChanSpace posts

  // -- one line each: written by one side, polled by the other ---------------

  alignas(kLine) std::atomic<rt::ThreadId> producer_waiter_{rt::kNoThread};
  alignas(kLine) std::atomic<rt::ThreadId> consumer_waiter_{rt::kNoThread};
  alignas(kLine) std::atomic<bool> eos_{false};
};

/// Upstream endpoint of a cut: a passive sink the upstream section's driver
/// pushes into, exactly where it used to push into the cut buffer. Blocking
/// follows Buffer::put — control events are dispatched while blocked, a
/// stopped flow escapes into the overflow reserve instead of losing the
/// in-flight item.
class ChannelSink : public PassiveSink {
 public:
  explicit ChannelSink(ShardChannel& chan)
      : PassiveSink(chan.name() + ".send"), chan_(&chan) {}

  [[nodiscard]] ShardChannel& channel() noexcept { return *chan_; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void consume(Item x) override;
  /// Batched path: publishes runs of data items through try_push_span — one
  /// ring reservation and one doorbell per chunk instead of per item.
  void consume_span(ItemSpan xs) override;
  void on_eos() override;

 private:
  ShardChannel* chan_;
};

/// Downstream endpoint of a cut: a passive source the downstream section's
/// driver pulls from, exactly where it used to take from the cut buffer.
/// Offers the Typespec the original plan propagated onto the cut edge, so
/// sub-pipeline planning sees the same flow description.
class ChannelSource : public PassiveSource {
 public:
  ChannelSource(ShardChannel& chan, Typespec offer)
      : PassiveSource(chan.name() + ".recv"),
        chan_(&chan),
        offer_(std::move(offer)) {}

  [[nodiscard]] ShardChannel& channel() noexcept { return *chan_; }
  [[nodiscard]] Typespec output_offer(int port) const override {
    (void)port;
    return offer_;
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item generate() override;
  /// Batched path: drains a whole run of queued items in one head move.
  std::size_t generate_span(ItemSpan out) override;

 private:
  ShardChannel* chan_;
  Typespec offer_;
};

}  // namespace infopipe::shard

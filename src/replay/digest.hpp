// DigestProbe (ip_replay): an identity filter that fingerprints the item
// stream flowing through it.
//
// Drop it on any pipeline edge and it accumulates the repo-wide stream
// digest over every data item, passing items through untouched. That is
// session::StreamDigest, word-at-a-time FNV-1a: per item the payload's
// little-endian 8-byte words, its trailing bytes and its length, then seq,
// then kind — timestamps excluded. It is the same per-item step as the
// session sink's (session::digest_item), so a probe and a session sink on
// one stream agree. Because timestamps are not hashed, the digest depends
// only on the information content and per-flow order, never on which shard
// or schedule produced it: two runs are "the same run" iff their probes
// match. That is the equality record/replay and the schedule fuzzer assert.
//
// The accumulator is a relaxed atomic: exactly one ULT writes it at a time
// (the probe's host), but migration moves that host between kernel threads
// and tests read the result from outside after the flow finishes, so plain
// fields would be a TSan report waiting to happen.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/component.hpp"
#include "session/session.hpp"

namespace infopipe::replay {

class DigestProbe : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;

  [[nodiscard]] std::uint64_t digest() const noexcept {
    return h_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t items() const noexcept {
    return n_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override {
    if (x.is_data()) {
      session::StreamDigest d;
      d.h = h_.load(std::memory_order_relaxed);
      d.update_item(x.bytes_data(), x.bytes_size(), x.seq, x.kind);
      h_.store(d.h, std::memory_order_relaxed);
      n_.fetch_add(1, std::memory_order_relaxed);
    }
    return x;
  }

 private:
  std::atomic<std::uint64_t> h_{session::StreamDigest{}.h};
  std::atomic<std::uint64_t> n_{0};
};

}  // namespace infopipe::replay

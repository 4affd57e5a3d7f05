// Ready-made generic components: lambda adapters, test sources and sinks,
// rate/jitter instrumentation. These are part of the public toolkit (§2.1:
// "our framework provides a set of basic components").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/component.hpp"
#include "core/pump.hpp"

namespace infopipe {

/// Function-style component from a lambda: Item -> Item (one-to-one).
class LambdaFunction : public FunctionComponent {
 public:
  LambdaFunction(std::string name, std::function<Item(Item)> fn)
      : FunctionComponent(std::move(name)), fn_(std::move(fn)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override { return fn_(std::move(x)); }

 private:
  std::function<Item(Item)> fn_;
};

/// Consumer-style component from a lambda; `emit` forwards downstream, so
/// the lambda may produce 0..n outputs per input (filtering, fragmenting).
class LambdaConsumer : public Consumer {
 public:
  using Body = std::function<void(Item, const std::function<void(Item)>&)>;
  LambdaConsumer(std::string name, Body body)
      : Consumer(std::move(name)), body_(std::move(body)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void push(Item x) override {
    body_(std::move(x), [this](Item y) { push_next(std::move(y)); });
  }

 private:
  Body body_;
};

/// Producer-style component from a lambda; `take` pulls from upstream, so
/// the lambda may consume 0..n inputs per output (defragmenting, sampling).
class LambdaProducer : public Producer {
 public:
  using Body = std::function<Item(const std::function<Item()>&)>;
  LambdaProducer(std::string name, Body body)
      : Producer(std::move(name)), body_(std::move(body)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item pull() override {
    return body_([this]() { return pull_prev(); });
  }

 private:
  Body body_;
};

/// Active-style component from a lambda running the paper's
/// `while (running) { x = prev->pull(); ...; next->push(y); }` shape.
class LambdaActive : public ActiveComponent {
 public:
  using Body = std::function<void(const std::function<Item()>&,
                                  const std::function<void(Item)>&)>;
  LambdaActive(std::string name, Body body)
      : ActiveComponent(std::move(name)), body_(std::move(body)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void run() override {
    body_([this]() { return pull_prev(); },
          [this](Item y) { push_next(std::move(y)); });
  }

 private:
  Body body_;
};

/// Identity pass-through (function style); handy as a neutral chain element.
/// Deliberately keeps the default accepted_events() (every event): it is
/// the usual base for a pass-through that only adds a handle_event(), and
/// such a subclass must see every broadcast without declaring anything.
class IdentityFunction : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;

 protected:
  Item convert(Item x) override { return x; }
};

/// Passive source producing `count` token items with consecutive seq
/// numbers, then end-of-stream. Items are timestamped at generation.
class CountingSource : public PassiveSource {
 public:
  CountingSource(std::string name, std::uint64_t count)
      : PassiveSource(std::move(name)), count_(count) {}

  [[nodiscard]] std::uint64_t produced() const noexcept { return next_; }
  void reset() noexcept { next_ = 0; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item generate() override {
    if (next_ >= count_) return Item::eos();
    Item x = Item::token();
    x.seq = next_++;
    x.timestamp = pipeline_now();
    return x;
  }

  std::size_t generate_span(ItemSpan out) override {
    if (next_ >= count_) return 0;  // exhausted: the glue raises EndOfStream
    const std::size_t n =
        std::min<std::uint64_t>(out.size(), count_ - next_);
    const rt::Time now = pipeline_now();
    for (std::size_t i = 0; i < n; ++i) {
      Item x = Item::token();
      x.seq = next_++;
      x.timestamp = now;
      out[i] = std::move(x);
    }
    return n;
  }

 private:
  std::uint64_t count_;
  std::uint64_t next_ = 0;
};

/// Passive source replaying a prepared vector of items, then EOS.
class VectorSource : public PassiveSource {
 public:
  VectorSource(std::string name, std::vector<Item> items)
      : PassiveSource(std::move(name)), items_(std::move(items)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item generate() override {
    if (pos_ >= items_.size()) return Item::eos();
    return items_[pos_++];
  }

 private:
  std::vector<Item> items_;
  std::size_t pos_ = 0;
};

/// Passive sink collecting everything it is given, with arrival timestamps.
class CollectorSink : public PassiveSink {
 public:
  using PassiveSink::PassiveSink;

  struct Arrival {
    Item item;
    rt::Time at;
  };

  [[nodiscard]] const std::vector<Arrival>& arrivals() const noexcept {
    return got_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return got_.size(); }
  [[nodiscard]] bool eos_seen() const noexcept { return eos_; }
  [[nodiscard]] std::vector<std::uint64_t> seqs() const {
    std::vector<std::uint64_t> v;
    v.reserve(got_.size());
    for (const Arrival& a : got_) v.push_back(a.item.seq);
    return v;
  }
  void clear() {
    got_.clear();
    eos_ = false;
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void consume(Item x) override {
    got_.push_back(Arrival{std::move(x), pipeline_now()});
  }
  void on_eos() override { eos_ = true; }

 private:
  std::vector<Arrival> got_;
  bool eos_ = false;
};

/// Passive sink that only counts (cheap; for benchmarks).
class CountingSink : public PassiveSink {
 public:
  using PassiveSink::PassiveSink;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] bool eos_seen() const noexcept { return eos_; }
  void reset() noexcept {
    n_ = 0;
    eos_ = false;
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void consume(Item) override { ++n_; }
  void on_eos() override { eos_ = true; }

 private:
  std::uint64_t n_ = 0;
  bool eos_ = false;
};

/// Policing rate limiter: passes at most `rate_hz` items per second (token
/// bucket), dropping the excess. A passive component has no timing
/// authority, so it can police (drop) but not shape (delay) — shaping is
/// what buffers + pumps are for.
class RateLimiter : public Consumer {
 public:
  RateLimiter(std::string name, double rate_hz, double burst = 1.0)
      : Consumer(std::move(name)), rate_hz_(rate_hz), burst_(burst) {}

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t passed() const noexcept { return passed_; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void push(Item x) override {
    const rt::Time now = pipeline_now();
    if (last_ != 0) {
      tokens_ += static_cast<double>(now - last_) * rate_hz_ / 1e9;
    } else {
      tokens_ = burst_;
    }
    tokens_ = std::min(tokens_, burst_);
    last_ = now;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      ++passed_;
      push_next(std::move(x));
    } else {
      ++dropped_;
    }
  }

 private:
  double rate_hz_;
  double burst_;
  double tokens_ = 0.0;
  rt::Time last_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t passed_ = 0;
};

/// Keeps every k-th item (decimation).
class Sampler : public Consumer {
 public:
  Sampler(std::string name, std::uint64_t keep_every)
      : Consumer(std::move(name)),
        keep_every_(keep_every == 0 ? 1 : keep_every) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void push(Item x) override {
    if (n_++ % keep_every_ == 0) push_next(std::move(x));
  }

 private:
  std::uint64_t keep_every_;
  std::uint64_t n_ = 0;
};

/// Pass-through watchdog over sequence numbers: counts gaps (lost items)
/// and reorderings. Diagnostic building block for tests and benches.
class SequenceValidator : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;

  [[nodiscard]] std::uint64_t gaps() const noexcept { return gaps_; }
  [[nodiscard]] std::uint64_t reorderings() const noexcept {
    return reorderings_;
  }
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override {
    if (observed_ > 0) {
      if (x.seq < last_) {
        ++reorderings_;
      } else if (x.seq > last_ + 1) {
        gaps_ += x.seq - last_ - 1;
      }
    }
    last_ = x.seq;
    ++observed_;
    return x;
  }

 private:
  std::uint64_t last_ = 0;
  std::uint64_t gaps_ = 0;
  std::uint64_t reorderings_ = 0;
  std::uint64_t observed_ = 0;
};

/// A stage with a fixed simulated processing cost per item: the thread
/// sleeps (yielding the CPU — preemptible, §3.2) for `cost` of pipeline
/// time. Workload modelling for experiments.
class SimulatedWork : public FunctionComponent {
 public:
  SimulatedWork(std::string name, rt::Time cost_per_item)
      : FunctionComponent(std::move(name)), cost_(cost_per_item) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override {
    if (cost_ > 0 && realization() != nullptr) {
      pipeline_sleep(cost_);
    }
    return x;
  }

 private:
  void pipeline_sleep(rt::Time d);

  rt::Time cost_;
};

/// The paper's running example (§3.3): combines two items into one,
/// implemented in the PASSIVE CONSUMER style of Figure 4a — push() keeps the
/// unpaired item in `saved`.
class DefragmenterConsumer : public Consumer {
 public:
  using Combine = std::function<Item(Item, Item)>;
  DefragmenterConsumer(std::string name, Combine assemble)
      : Consumer(std::move(name)), assemble_(std::move(assemble)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void push(Item x) override {
    if (saved_) {
      Item y = assemble_(std::move(*saved_), std::move(x));
      saved_.reset();
      push_next(std::move(y));
    } else {
      saved_ = std::move(x);
    }
  }
  void flush() override { saved_.reset(); }  // drop an unpaired leftover

 private:
  Combine assemble_;
  std::optional<Item> saved_;
};

/// The same defragmenter in the PASSIVE PRODUCER style of Figure 4b.
class DefragmenterProducer : public Producer {
 public:
  using Combine = std::function<Item(Item, Item)>;
  DefragmenterProducer(std::string name, Combine assemble)
      : Producer(std::move(name)), assemble_(std::move(assemble)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item pull() override {
    Item x1 = pull_prev();
    Item x2 = pull_prev();
    return assemble_(std::move(x1), std::move(x2));
  }

 private:
  Combine assemble_;
};

/// The same defragmenter in the ACTIVE style of Figure 6.
class DefragmenterActive : public ActiveComponent {
 public:
  using Combine = std::function<Item(Item, Item)>;
  DefragmenterActive(std::string name, Combine assemble)
      : ActiveComponent(std::move(name)), assemble_(std::move(assemble)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void run() override {
    for (;;) {
      Item x1 = pull_prev();
      Item x2 = pull_prev();
      push_next(assemble_(std::move(x1), std::move(x2)));
    }
  }

 private:
  Combine assemble_;
};

/// A fragmenter (one item in, two out) in consumer style; the dual example
/// from §3.3 ("for a fragmenter, push would be the simpler operation").
class FragmenterConsumer : public Consumer {
 public:
  using Split = std::function<std::pair<Item, Item>(Item)>;
  FragmenterConsumer(std::string name, Split split)
      : Consumer(std::move(name)), split_(std::move(split)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void push(Item x) override {
    auto [a, b] = split_(std::move(x));
    push_next(std::move(a));
    push_next(std::move(b));
  }

 private:
  Split split_;
};

/// The same fragmenter in producer style (the awkward direction: it must
/// keep the second half between pulls).
class FragmenterProducer : public Producer {
 public:
  using Split = std::function<std::pair<Item, Item>(Item)>;
  FragmenterProducer(std::string name, Split split)
      : Producer(std::move(name)), split_(std::move(split)) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item pull() override {
    if (saved_) {
      Item out = std::move(*saved_);
      saved_.reset();
      return out;
    }
    auto [a, b] = split_(pull_prev());
    saved_ = std::move(b);
    return a;
  }

 private:
  Split split_;
  std::optional<Item> saved_;
};

}  // namespace infopipe

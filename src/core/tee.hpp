// Tees: components with more than two ports (§2.1, end of §3.3).
//
// Splitting covers copying items to every output (multicast) and selecting
// an output per item (routing); merging covers arrival-order pass-through
// and combining one item from each input. The paper's rule: a non-buffering
// component may generally have only one passive port — a data-dependent
// routing switch pulled from its outputs would need unbounded implicit
// buffering. The exception is the activity-routed switch, whose out-ports
// are both passive and whose in-port is active ("a pull on either out-port
// triggers an upstream pull and returns the item to the caller. This
// component could not work in push-style").
#pragma once

#include <cstdint>
#include <vector>

#include "core/component.hpp"

namespace infopipe {

/// Base for multi-port components.
class Tee : public Component {
 public:
  [[nodiscard]] Style style() const final { return Style::kTee; }
  [[nodiscard]] int in_port_count() const override { return ins_; }
  [[nodiscard]] int out_port_count() const override { return outs_; }

 protected:
  Tee(std::string name, int ins, int outs)
      : Component(std::move(name)), ins_(ins), outs_(outs) {}

 private:
  int ins_;
  int outs_;
};

/// Copies every incoming item to all outputs. Push-driven: one passive
/// in-port, positive out-ports. Payloads are shared between the copies, so
/// multicast is cheap even for video frames.
class MulticastTee : public Tee {
 public:
  MulticastTee(std::string name, int outs) : Tee(std::move(name), 1, outs) {}

  [[nodiscard]] Polarity in_polarity(int) const override {
    return Polarity::kNegative;
  }
  [[nodiscard]] Polarity out_polarity(int) const override {
    return Polarity::kPositive;
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }
};

/// Routes each incoming item to the output chosen by select(). Push-driven
/// (the paper explains why the pull-style version is unsound).
class RoutingSwitch : public Tee {
 public:
  RoutingSwitch(std::string name, int outs) : Tee(std::move(name), 1, outs) {}

  [[nodiscard]] Polarity in_polarity(int) const override {
    return Polarity::kNegative;
  }
  [[nodiscard]] Polarity out_polarity(int) const override {
    return Polarity::kPositive;
  }

  /// Output port index for this item (0-based). Out-of-range drops the item.
  [[nodiscard]] virtual int select(const Item& x) = 0;

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  friend class Wiring;
  std::uint64_t dropped_ = 0;
};

/// Passes items from any input to the single output in arrival order.
/// Push-driven from each input; the middleware serializes the shared
/// downstream chain so only one thread is active in it at a time (§3.2).
/// End-of-stream is forwarded once ALL inputs have ended.
class MergeTee : public Tee {
 public:
  MergeTee(std::string name, int ins) : Tee(std::move(name), ins, 1) {}

  [[nodiscard]] Polarity in_polarity(int) const override {
    return Polarity::kNegative;
  }
  [[nodiscard]] Polarity out_polarity(int) const override {
    return Polarity::kPositive;
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 private:
  friend class Wiring;
  friend class Realization;
  int eos_seen_ = 0;  // reset each realization
};

/// Pull-driven merge: one pull on the output pulls one item from EVERY input
/// and combines them (e.g. audio mixing). Ends when any input ends.
class CombineTee : public Tee {
 public:
  CombineTee(std::string name, int ins) : Tee(std::move(name), ins, 1) {}

  [[nodiscard]] Polarity in_polarity(int) const override {
    return Polarity::kPositive;
  }
  [[nodiscard]] Polarity out_polarity(int) const override {
    return Polarity::kNegative;
  }

  /// Combine one item from each input (index = in-port).
  [[nodiscard]] virtual Item combine(std::vector<Item> xs) = 0;

 private:
  friend class Wiring;
};

/// The paper's exception: an activity-routed switch. Both out-ports are
/// passive; a pull on either triggers one upstream pull and hands the item
/// to whichever caller asked. Cannot work push-style (and the planner
/// rejects the attempt).
class BalancingSwitch : public Tee {
 public:
  BalancingSwitch(std::string name, int outs)
      : Tee(std::move(name), 1, outs) {}

  [[nodiscard]] Polarity in_polarity(int) const override {
    return Polarity::kPositive;
  }
  [[nodiscard]] Polarity out_polarity(int) const override {
    return Polarity::kNegative;
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }
};

}  // namespace infopipe

// MIDI components: the paper's motivating small-item workload ("pipelines
// that handle many control events or many small data items such as a MIDI
// mixer", §4) — each event is three bytes, so per-item middleware overhead
// dominates and the thread-minimizing planner matters most here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/basic.hpp"
#include "core/component.hpp"
#include "core/tee.hpp"
#include "core/typespec.hpp"

namespace infopipe::media {

struct MidiEvent {
  std::uint8_t status = 0x90;  ///< note-on, channel 0
  std::uint8_t note = 60;
  std::uint8_t velocity = 64;
};

/// Deterministic note generator (a simple arpeggio).
class MidiSource : public PassiveSource {
 public:
  MidiSource(std::string name, std::uint64_t count, std::uint8_t channel,
             std::uint8_t base_note = 60)
      : PassiveSource(std::move(name)),
        count_(count),
        channel_(channel),
        base_note_(base_note) {}

  [[nodiscard]] Typespec output_offer(int) const override {
    return Typespec{{props::kItemType, std::string("midi")}};
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item generate() override {
    if (next_ >= count_) return Item::eos();
    MidiEvent e;
    e.status = static_cast<std::uint8_t>(0x90 | (channel_ & 0x0F));
    e.note = static_cast<std::uint8_t>(base_note_ + next_ % 12);
    e.velocity = static_cast<std::uint8_t>(40 + next_ % 80);
    Item x = Item::of<MidiEvent>(e);
    x.seq = next_++;
    x.kind = channel_;
    x.size_bytes = 3;
    x.timestamp = pipeline_now();
    return x;
  }

 private:
  std::uint64_t count_;
  std::uint8_t channel_;
  std::uint8_t base_note_;
  std::uint64_t next_ = 0;
};

/// Transposes notes by a (control-event-adjustable) interval.
class MidiTranspose : public FunctionComponent {
 public:
  MidiTranspose(std::string name, int semitones)
      : FunctionComponent(std::move(name)), semitones_(semitones) {}

  [[nodiscard]] int semitones() const noexcept { return semitones_; }

  void handle_event(const Event& e) override {
    if (e.type == kEventQualityHint) {
      if (const int* s = e.get<int>()) semitones_ = *s;
    }
  }
  [[nodiscard]] EventSet accepted_events() const override {
    return {kEventQualityHint};
  }

 protected:
  Item convert(Item x) override {
    const MidiEvent* in = x.payload<MidiEvent>();
    if (in == nullptr) return x;
    MidiEvent out = *in;
    out.note = static_cast<std::uint8_t>(
        std::clamp(static_cast<int>(out.note) + semitones_, 0, 127));
    Item y = Item::of<MidiEvent>(out);
    y.seq = x.seq;
    y.kind = x.kind;
    y.timestamp = x.timestamp;
    y.size_bytes = 3;
    return y;
  }

 private:
  int semitones_;
};

/// Arrival-order mixer: a MergeTee with a MIDI-flavoured name. Channels keep
/// their identity in Item::kind.
class MidiMixer : public MergeTee {
 public:
  MidiMixer(std::string name, int inputs) : MergeTee(std::move(name), inputs) {}
};

/// Velocity-scaling gain stage (consumer style, drops silent notes).
class MidiGain : public Consumer {
 public:
  MidiGain(std::string name, double gain)
      : Consumer(std::move(name)), gain_(gain) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void push(Item x) override {
    const MidiEvent* in = x.payload<MidiEvent>();
    if (in == nullptr) return;
    const int v = static_cast<int>(in->velocity * gain_);
    if (v <= 0) return;  // gated out
    MidiEvent out = *in;
    out.velocity = static_cast<std::uint8_t>(std::min(v, 127));
    Item y = Item::of<MidiEvent>(out);
    y.seq = x.seq;
    y.kind = x.kind;
    y.timestamp = x.timestamp;
    y.size_bytes = 3;
    push_next(std::move(y));
  }

 private:
  double gain_;
};

}  // namespace infopipe::media

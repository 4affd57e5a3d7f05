// Audio substrate: tone sources, a mixing tee, and the paper's canonical
// active sink — "Audio devices that have their own timing control can be
// implemented as a clock-driven active sink" (§3.1).
//
// Samples are synthesized (sine tones); what matters to the middleware is
// the chunk cadence, the pull-driven device timing, and underrun behaviour.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/basic.hpp"
#include "core/buffer.hpp"
#include "core/component.hpp"
#include "core/pump.hpp"
#include "core/tee.hpp"
#include "core/typespec.hpp"

namespace infopipe::media {

struct AudioChunk {
  std::uint64_t chunk_no = 0;
  int sample_rate = 8000;
  rt::Time pts = 0;
  std::vector<float> samples;
};

/// Events broadcast by the audio device (media clock for A/V sync).
enum AudioEventType : int {
  kEventAudioPosition = kEventUser + 60,  ///< payload: rt::Time (media time)
};

/// Generates sine-tone chunks. Deterministic.
class ToneSource : public PassiveSource {
 public:
  ToneSource(std::string name, double freq_hz, std::uint64_t chunks,
             int samples_per_chunk = 80, int sample_rate = 8000)
      : PassiveSource(std::move(name)),
        freq_(freq_hz),
        chunks_(chunks),
        samples_(samples_per_chunk),
        rate_(sample_rate) {}

  [[nodiscard]] Typespec output_offer(int) const override {
    return Typespec{{props::kItemType, std::string("audio")}};
  }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item generate() override {
    if (next_ >= chunks_) return Item::eos();
    AudioChunk c;
    c.chunk_no = next_;
    c.sample_rate = rate_;
    c.pts = static_cast<rt::Time>(next_) * samples_ * rt::seconds(1) / rate_;
    c.samples.resize(static_cast<std::size_t>(samples_));
    for (int i = 0; i < samples_; ++i) {
      const double t =
          static_cast<double>(next_ * static_cast<std::uint64_t>(samples_) +
                              static_cast<std::uint64_t>(i)) /
          rate_;
      c.samples[static_cast<std::size_t>(i)] = static_cast<float>(
          std::sin(2.0 * std::numbers::pi * freq_ * t));
    }
    Item x = Item::of<AudioChunk>(std::move(c));
    x.seq = next_++;
    x.kind = 0;
    x.size_bytes = static_cast<std::size_t>(samples_) * sizeof(float);
    return x;
  }

 private:
  double freq_;
  std::uint64_t chunks_;
  int samples_;
  int rate_;
  std::uint64_t next_ = 0;
};

/// Pull-driven mixer: one pull on the output pulls one chunk from EVERY
/// input and sums the samples (§2.1's merge-by-combining tee).
class AudioMixer : public CombineTee {
 public:
  AudioMixer(std::string name, int inputs)
      : CombineTee(std::move(name), inputs) {}

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item combine(std::vector<Item> xs) override {
    const AudioChunk* first = xs.front().payload<AudioChunk>();
    if (first == nullptr) return Item::nil();
    AudioChunk out = *first;
    for (std::size_t i = 1; i < xs.size(); ++i) {
      const AudioChunk* c = xs[i].payload<AudioChunk>();
      if (c == nullptr) continue;
      const std::size_t n = std::min(out.samples.size(), c->samples.size());
      for (std::size_t s = 0; s < n; ++s) out.samples[s] += c->samples[s];
    }
    const float scale = 1.0f / static_cast<float>(xs.size());
    for (float& s : out.samples) s *= scale;
    Item y = Item::of<AudioChunk>(std::move(out));
    y.seq = xs.front().seq;
    y.timestamp = xs.front().timestamp;
    y.size_bytes = xs.front().size_bytes;
    return y;
  }
};

/// The clock-driven active sink of §3.1: pulls one chunk per period at its
/// own hardware rate, counts underruns when the upstream buffer is empty,
/// and broadcasts its media position for A/V synchronization.
class AudioDevice : public ClockedSinkBase {
 public:
  /// `chunk_rate_hz`: chunks per second the "hardware" consumes. A real
  /// device's crystal deviates from the nominal rate; pass e.g. 100.07 to
  /// model clock drift (the distributed-player scenario the paper cites).
  AudioDevice(std::string name, double chunk_rate_hz,
              std::uint64_t position_report_every = 0)
      : ClockedSinkBase(std::move(name), chunk_rate_hz),
        report_every_(position_report_every) {
    set_nil_policy(NilPolicy::kForward);  // an empty buffer is an underrun
  }

  struct Stats {
    std::uint64_t played = 0;
    std::uint64_t underruns = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Media time: how much audio has actually been played.
  [[nodiscard]] rt::Time position() const noexcept {
    return played_media_ns_;
  }

  /// Models a hardware device with its own crystal: pinned to its shard.
  [[nodiscard]] bool migratable() const override { return false; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  void consume(Item x) override {
    if (x.is_nil()) {
      ++stats_.underruns;  // the hardware played silence
      return;
    }
    const AudioChunk* c = x.payload<AudioChunk>();
    if (c == nullptr) return;
    ++stats_.played;
    played_media_ns_ += static_cast<rt::Time>(c->samples.size()) *
                        rt::seconds(1) / c->sample_rate;
    if (report_every_ > 0 && stats_.played % report_every_ == 0) {
      broadcast(Event{kEventAudioPosition, played_media_ns_});
    }
  }

 private:
  std::uint64_t report_every_;
  Stats stats_;
  rt::Time played_media_ns_ = 0;
};

}  // namespace infopipe::media

// Control events (§2.2, §3.2).
//
// Besides data items, Infopipe components exchange control messages: local
// interaction between adjacent components (e.g. a display telling a resizer
// about a new window size, or a downstream component releasing a decoder's
// shared reference frame) and global broadcast events (user commands such as
// START/STOP). Control handlers run with higher priority than data
// processing; events arriving while a component processes data are queued
// and delivered as soon as the data function finishes — but they ARE
// delivered while a component is blocked in a push or pull.
#pragma once

#include <algorithm>
#include <any>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace infopipe {

/// Well-known event types. Application events start at kEventUser.
enum EventType : int {
  kEventStart = 1,       ///< start pumping (broadcast)
  kEventStop = 2,        ///< stop pumping (broadcast)
  kEventShutdown = 3,    ///< tear the realization down (broadcast)
  kEventEndOfStream = 4, ///< a pump saw EOS from its source section
  kEventFlush = 5,       ///< drop buffered data (broadcast)
  kEventQualityHint = 6, ///< feedback: adjust quality (payload-defined)
  kEventWindowResize = 7,///< display geometry changed (local upstream)
  kEventFrameRelease = 8,///< shared reference frame no longer needed
  kEventSensorReport = 9,///< feedback sensor reading (payload: double)
  kEventReservationDenied = 10, ///< a pump's CPU reservation was rejected
  kEventUser = 1000,
};

struct Event {
  int type = 0;
  std::any payload;

  Event() = default;
  explicit Event(int t) : type(t) {}
  Event(int t, std::any p) : type(t), payload(std::move(p)) {}

  template <typename T>
  [[nodiscard]] const T* get() const noexcept {
    return std::any_cast<T>(&payload);
  }
};

[[nodiscard]] std::string to_string(const Event& e);

/// START, STOP, SHUTDOWN, EOS and FLUSH: the lifecycle broadcasts that reach
/// every component, whatever it declares.
[[nodiscard]] constexpr bool is_lifecycle_event(int type) noexcept {
  return type >= kEventStart && type <= kEventFlush;
}

/// The broadcast event types a component's handle_event() reacts to
/// (Component::accepted_events()). The lifecycle set is always a member;
/// beyond it a set holds either every type or the listed ones. The
/// realization routes broadcasts with these sets, so a type missing here is
/// never delivered to the component as a broadcast.
class EventSet {
 public:
  /// The lifecycle set only.
  EventSet() = default;
  /// The lifecycle set plus `types`.
  EventSet(std::initializer_list<int> types) : types_(types) {}

  [[nodiscard]] static EventSet none() { return {}; }
  [[nodiscard]] static EventSet every() {
    EventSet s;
    s.every_ = true;
    return s;
  }

  [[nodiscard]] bool contains(int type) const noexcept {
    return every_ || is_lifecycle_event(type) ||
           std::find(types_.begin(), types_.end(), type) != types_.end();
  }

  /// Union: afterwards this set contains every type `o` contains.
  void merge(const EventSet& o) {
    every_ = every_ || o.every_;
    for (const int t : o.types_) {
      if (!contains(t)) types_.push_back(t);
    }
  }

 private:
  bool every_ = false;
  std::vector<int> types_;
};

}  // namespace infopipe

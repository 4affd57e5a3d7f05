// Pipeline composition (§2.3, §4).
//
// A Pipeline is the static connection graph of components. Connections are
// checked as they are made — "if the components were not compatible, the
// composition operator >> would throw an exception" — and again globally
// when the pipeline is realized (planner.hpp), where polymorphic polarities
// are resolved by induction and Typespecs are propagated end to end.
//
// The paper's setup style works verbatim:
//     mpeg_file source("test.mpg");
//     mpeg_decoder decode;
//     clocked_pump pump(30);
//     video_display sink;
//     source >> decode >> pump >> sink;
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/component.hpp"

namespace infopipe {

namespace shard {
class ShardedRealization;
}  // namespace shard

/// Thrown on illegal compositions: same-polarity connection, occupied port,
/// incompatible Typespecs, sections without a driver, etc.
class CompositionError : public std::runtime_error {
 public:
  explicit CompositionError(const std::string& what)
      : std::runtime_error(what) {}
};

struct Edge {
  Component* from = nullptr;
  int out_port = 0;
  Component* to = nullptr;
  int in_port = 0;
};

class Pipeline {
 public:
  Pipeline() = default;

  /// Connects `from`'s out-port to `to`'s in-port. Registers both
  /// components. Throws CompositionError on port misuse, same fixed
  /// polarity, or statically incompatible Typespecs.
  void connect(Component& from, int out_port, Component& to, int in_port);
  void connect(Component& from, Component& to) { connect(from, 0, to, 0); }

  /// Registers a component without connecting it yet (useful before
  /// explicit multi-port connect calls).
  void add(Component& c);

  [[nodiscard]] const std::vector<Component*>& components() const noexcept {
    return components_;
  }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }

  /// The unique edge leaving / entering the given port; nullptr when
  /// unconnected.
  [[nodiscard]] const Edge* edge_from(const Component& c, int out_port) const;
  [[nodiscard]] const Edge* edge_into(const Component& c, int in_port) const;

  /// User preference restriction (§2.3: source/sink-supplied ranges "can be
  /// restricted by the user to indicate preferences"): intersected with the
  /// flow arriving at the given in-port during planning. A preference the
  /// flow cannot satisfy fails the composition with a diagnostic.
  void restrict(Component& c, int in_port, Typespec preference);

  [[nodiscard]] const Typespec* restriction(const Component& c,
                                            int in_port) const;

  /// Control capabilities (§2.3) emitted outside this pipeline whose events
  /// still reach it; the planner counts them as emitted when it checks what
  /// the components require. Only a sharded realization credits any (see
  /// the private mutator): its per-shard sub-pipelines receive the control
  /// events forwarded from the other shards of an already checked parent.
  [[nodiscard]] const StringSet& credited_control_emits() const noexcept {
    return credited_emits_;
  }

  // -- restructuring (between realizations) ------------------------------------
  // Pipelines are static while realized; restructuring is stop → edit →
  // re-realize (components are reusable across realizations). These editing
  // operations support that workflow.

  /// Removes the connection leaving the given port. Returns false when no
  /// such edge exists.
  bool disconnect(Component& from, int out_port);

  /// Removes a component and all its connections from the graph.
  void remove(Component& c);

  /// Splices `replacement` into every position `old` occupied (ports are
  /// carried over one-to-one; port counts must match). Throws
  /// CompositionError on arity mismatch.
  void replace(Component& old, Component& replacement);

 private:
  // Not public API: crediting would let a caller silence the §2.3 check.
  // A sharded realization credits each sub-pipeline with its parent's
  // emits, after the parent itself passed the check.
  friend class shard::ShardedRealization;
  void credit_control_emits(const StringSet& emits) {
    credited_emits_.insert(emits.begin(), emits.end());
  }

  std::vector<Component*> components_;
  std::vector<Edge> edges_;
  std::map<std::pair<const Component*, int>, Typespec> restrictions_;
  StringSet credited_emits_;
};

/// Fluent chain builder returned by operator>> so that
/// `a >> b >> c` composes into one Pipeline.
class Chain {
 public:
  Chain(Component& a, Component& b);

  Chain& operator>>(Component& next);

  /// The pipeline being built (shared; keep the Chain or copy the pipeline
  /// reference before realizing).
  [[nodiscard]] Pipeline& pipeline() noexcept { return *pipe_; }
  [[nodiscard]] std::shared_ptr<Pipeline> share() const noexcept {
    return pipe_;
  }

 private:
  std::shared_ptr<Pipeline> pipe_;
  Component* last_;
};

Chain operator>>(Component& a, Component& b);

}  // namespace infopipe

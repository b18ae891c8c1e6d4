// General-graph planarity testing and embedding.
//
// Both answers come from the O(n + m) edge-addition engine in
// src/graph/boyer_myrvold.*. Verdicts never materialize rotations, and
// embeddings come straight out of the engine's relative arc lists. The
// O(n * m) Demoucron embedder (graph/embedder.hpp) is not behind this API: it
// is an independent oracle that tests and benches call directly.
#pragma once

#include <optional>

#include "graph/graph.hpp"
#include "graph/rotation.hpp"

namespace lrdip {

/// True iff g (connected or not) is planar, without building any rotation
/// system.
bool is_planar(const Graph& g);

/// A genus-0 rotation system for g, or nullopt if g is non-planar.
/// g must be simple.
std::optional<RotationSystem> planar_embedding(const Graph& g);

}  // namespace lrdip

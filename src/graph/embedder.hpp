// Demoucron–Malgrange–Pertuiset planar embedder for biconnected graphs.
//
// The embedder maintains the face set of an embedded subgraph H and repeatedly
// places a path of some fragment (bridge) of G relative to H into an
// admissible face. It either produces the list of faces of a planar embedding
// or reports that G is non-planar. O(n * m). Production code embeds with
// Boyer–Myrvold (graph/planarity.hpp); this embedder stays as the independent
// oracle the differential fuzz, the cross-validation tests and the E-EMBED
// bench sweep compare against, and as the generators' face-list helper.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rotation.hpp"

namespace lrdip {

/// Faces of a planar embedding of a biconnected graph; each face is a simple
/// cycle of nodes in boundary order.
using FaceList = std::vector<std::vector<NodeId>>;

/// Embeds a biconnected simple graph with n >= 3 (or any graph with m <= 1).
/// Returns std::nullopt iff non-planar.
std::optional<FaceList> demoucron_embed(const Graph& g);

/// Converts the face list of a biconnected planar embedding into a rotation
/// system on g.
RotationSystem rotation_from_faces(const Graph& g, const FaceList& faces);

/// Whole-graph Demoucron oracle: components -> biconnected blocks -> face
/// expansion -> rotation merge at cut vertices. A genus-0 rotation system for
/// the simple graph g, or nullopt if g is non-planar.
std::optional<RotationSystem> demoucron_planar_embedding(const Graph& g);

}  // namespace lrdip

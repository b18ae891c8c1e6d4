#include "graph/graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lrdip {

EdgeId Graph::add_edge(NodeId u, NodeId v) {
  LRDIP_CHECK(u >= 0 && u < n() && v >= 0 && v < n());
  LRDIP_CHECK_MSG(u != v, "self-loops are not supported");
  const EdgeId e = m();
  edges_.emplace_back(u, v);
  adj_[u].push_back({v, e});
  adj_[v].push_back({u, e});
  return e;
}

NodeId Graph::add_node() {
  adj_.emplace_back();
  return n() - 1;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  for (const Half& h : adj_[u]) {
    if (h.to == v) return h.edge;
  }
  return -1;
}

bool Graph::is_simple() const {
  // seen_from[w] == v + 1 marks w as already met in v's adjacency list, so
  // the scan is O(n + m) with one allocation.
  std::vector<NodeId> seen_from(adj_.size(), 0);
  for (NodeId v = 0; v < n(); ++v) {
    for (const Half& h : adj_[v]) {
      if (seen_from[h.to] == v + 1) return false;
      seen_from[h.to] = v + 1;
    }
  }
  return true;
}

std::int64_t Graph::degree_sum() const {
  std::int64_t s = 0;
  for (NodeId v = 0; v < n(); ++v) s += degree(v);
  return s;
}

}  // namespace lrdip

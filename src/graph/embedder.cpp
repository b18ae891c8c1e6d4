#include "graph/embedder.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "graph/algorithms.hpp"
#include "graph/biconnected.hpp"
#include "support/check.hpp"

namespace lrdip {
namespace {

/// Any simple cycle of g, as a node sequence (no repeated nodes). Requires a
/// cycle to exist.
std::vector<NodeId> find_cycle(const Graph& g) {
  std::vector<int> state(g.n(), 0);  // 0 unseen, 1 on stack, 2 done
  std::vector<NodeId> parent(g.n(), -1);
  std::vector<EdgeId> parent_edge(g.n(), -1);
  for (NodeId root = 0; root < g.n(); ++root) {
    if (state[root] != 0) continue;
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    state[root] = 1;
    while (!stack.empty()) {
      const auto [v, cursor] = stack.back();
      const auto nbrs = g.neighbors(v);
      if (cursor < nbrs.size()) {
        ++stack.back().second;
        const Half h = nbrs[cursor];
        if (h.edge == parent_edge[v]) continue;
        if (state[h.to] == 1) {
          // Back edge v -> ancestor h.to: walk tree path back.
          std::vector<NodeId> cycle{v};
          NodeId x = v;
          while (x != h.to) {
            x = parent[x];
            cycle.push_back(x);
          }
          return cycle;
        }
        if (state[h.to] == 0) {
          state[h.to] = 1;
          parent[h.to] = v;
          parent_edge[h.to] = h.edge;
          stack.emplace_back(h.to, 0);
        }
      } else {
        state[v] = 2;
        stack.pop_back();
      }
    }
  }
  LRDIP_CHECK_MSG(false, "find_cycle: acyclic graph");
  return {};
}

struct Fragment {
  std::vector<EdgeId> edges;
  std::vector<NodeId> attachments;  // H-nodes touched by the fragment
};

}  // namespace

std::optional<FaceList> demoucron_embed(const Graph& g) {
  LRDIP_CHECK_MSG(g.is_simple(), "demoucron_embed requires a simple graph");
  if (g.m() <= 1 || g.n() < 3) {
    // Trivially planar; no interior faces worth reporting.
    return FaceList{};
  }
  if (g.m() > 3 * g.n() - 6) return std::nullopt;  // Euler bound

  std::vector<char> in_h_node(g.n(), 0), in_h_edge(g.m(), 0);
  int embedded_edges = 0;
  FaceList faces;

  // --- Initialize with any cycle (two faces, opposite orientations).
  {
    const std::vector<NodeId> cycle = find_cycle(g);
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      in_h_node[cycle[i]] = 1;
      const EdgeId e = g.find_edge(cycle[i], cycle[(i + 1) % cycle.size()]);
      LRDIP_CHECK(e != -1);
      in_h_edge[e] = 1;
      ++embedded_edges;
    }
    faces.push_back(cycle);
    faces.emplace_back(cycle.rbegin(), cycle.rend());
  }

  while (embedded_edges < g.m()) {
    // --- Compute fragments of G relative to H.
    std::vector<Fragment> fragments;
    // (a) chords: single non-embedded edges with both endpoints in H.
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (in_h_edge[e]) continue;
      const auto [u, v] = g.endpoints(e);
      if (in_h_node[u] && in_h_node[v]) {
        fragments.push_back({{e}, {u, v}});
      }
    }
    // (b) components of G - V(H) plus their connecting edges.
    {
      std::vector<int> comp(g.n(), -1);
      for (NodeId s = 0; s < g.n(); ++s) {
        if (in_h_node[s] || comp[s] != -1) continue;
        const int cid = static_cast<int>(fragments.size());
        Fragment frag;
        std::set<NodeId> attach;
        std::set<EdgeId> fedges;
        std::deque<NodeId> queue{s};
        comp[s] = cid;
        while (!queue.empty()) {
          const NodeId v = queue.front();
          queue.pop_front();
          for (const Half& h : g.neighbors(v)) {
            fedges.insert(h.edge);
            if (in_h_node[h.to]) {
              attach.insert(h.to);
            } else if (comp[h.to] == -1) {
              comp[h.to] = cid;
              queue.push_back(h.to);
            }
          }
        }
        frag.edges.assign(fedges.begin(), fedges.end());
        frag.attachments.assign(attach.begin(), attach.end());
        fragments.push_back(std::move(frag));
      }
    }
    LRDIP_CHECK(!fragments.empty());

    // --- Admissible faces per fragment: a face is admissible iff its
    // boundary contains every attachment. Intersect the (typically short)
    // per-node face lists instead of scanning all faces per fragment.
    std::vector<std::vector<int>> faces_of_node(g.n());
    for (int face = 0; face < static_cast<int>(faces.size()); ++face) {
      for (NodeId v : faces[face]) faces_of_node[v].push_back(face);
    }
    for (auto& lst : faces_of_node) std::sort(lst.begin(), lst.end());
    std::vector<std::vector<int>> admissible(fragments.size());
    for (std::size_t fi = 0; fi < fragments.size(); ++fi) {
      LRDIP_CHECK(!fragments[fi].attachments.empty());
      std::vector<int> cand = faces_of_node[fragments[fi].attachments.front()];
      for (std::size_t a = 1; a < fragments[fi].attachments.size() && !cand.empty(); ++a) {
        const auto& other = faces_of_node[fragments[fi].attachments[a]];
        std::vector<int> merged;
        std::set_intersection(cand.begin(), cand.end(), other.begin(), other.end(),
                              std::back_inserter(merged));
        cand = std::move(merged);
      }
      if (cand.empty()) return std::nullopt;  // non-planar
      admissible[fi] = std::move(cand);
    }

    // --- Choose a fragment: prefer one with a unique admissible face.
    std::size_t chosen = 0;
    for (std::size_t fi = 0; fi < fragments.size(); ++fi) {
      if (admissible[fi].size() == 1) {
        chosen = fi;
        break;
      }
    }
    const Fragment& frag = fragments[chosen];
    const int face_idx = admissible[chosen].front();

    // --- Find a path through the fragment between two distinct attachments.
    std::vector<NodeId> path;
    if (frag.edges.size() == 1) {
      const auto [u, v] = g.endpoints(frag.edges.front());
      path = {u, v};
    } else {
      LRDIP_CHECK(frag.attachments.size() >= 2);  // biconnected host
      const NodeId a = frag.attachments.front();
      // BFS from a using fragment edges; interior nodes must be outside H.
      std::set<EdgeId> fedges(frag.edges.begin(), frag.edges.end());
      std::vector<NodeId> par(g.n(), -1);
      std::vector<char> seen(g.n(), 0);
      seen[a] = 1;
      std::deque<NodeId> queue{a};
      NodeId b = -1;
      while (!queue.empty() && b == -1) {
        const NodeId v = queue.front();
        queue.pop_front();
        if (in_h_node[v] && v != a) continue;  // do not traverse through H
        for (const Half& h : g.neighbors(v)) {
          if (!fedges.count(h.edge) || seen[h.to]) continue;
          seen[h.to] = 1;
          par[h.to] = v;
          if (in_h_node[h.to]) {
            b = h.to;
            break;
          }
          queue.push_back(h.to);
        }
      }
      LRDIP_CHECK_MSG(b != -1, "fragment must connect two attachments");
      for (NodeId x = b; x != -1; x = par[x]) path.push_back(x);
      std::reverse(path.begin(), path.end());
      LRDIP_CHECK(path.front() == a && path.back() == b);
    }

    // --- Embed `path` into the chosen face, splitting it in two.
    const std::vector<NodeId> face = faces[face_idx];
    const NodeId a = path.front();
    const NodeId b = path.back();
    int ia = -1, ib = -1;
    for (int i = 0; i < static_cast<int>(face.size()); ++i) {
      if (face[i] == a) ia = i;
      if (face[i] == b) ib = i;
    }
    LRDIP_CHECK(ia != -1 && ib != -1 && ia != ib);

    auto arc = [&](int from, int to) {  // inclusive cyclic slice of `face`
      std::vector<NodeId> out;
      for (int i = from;; i = (i + 1) % static_cast<int>(face.size())) {
        out.push_back(face[i]);
        if (i == to) break;
      }
      return out;
    };
    std::vector<NodeId> face1 = arc(ia, ib);  // a ... b along the face
    for (int i = static_cast<int>(path.size()) - 2; i >= 1; --i) face1.push_back(path[i]);
    std::vector<NodeId> face2 = arc(ib, ia);  // b ... a along the face
    for (int i = 1; i + 1 < static_cast<int>(path.size()); ++i) face2.push_back(path[i]);

    faces[face_idx] = std::move(face1);
    faces.push_back(std::move(face2));

    // --- Commit the path to H.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgeId e = g.find_edge(path[i], path[i + 1]);
      LRDIP_CHECK(e != -1 && !in_h_edge[e]);
      in_h_edge[e] = 1;
      ++embedded_edges;
      in_h_node[path[i]] = 1;
      in_h_node[path[i + 1]] = 1;
    }
  }

  return faces;
}

RotationSystem rotation_from_faces(const Graph& g, const FaceList& faces) {
  // For the degenerate cases the embedder skips, fall back to adjacency order.
  if (faces.empty()) return RotationSystem::from_adjacency(g);

  // Face transition at v: arriving via edge (u,v), leave via edge (v,w).
  // That leaving edge is by definition next_clockwise(v, arriving edge).
  std::vector<std::map<EdgeId, EdgeId>> succ(g.n());
  for (const auto& face : faces) {
    const int k = static_cast<int>(face.size());
    for (int i = 0; i < k; ++i) {
      const NodeId u = face[i];
      const NodeId v = face[(i + 1) % k];
      const NodeId w = face[(i + 2) % k];
      const EdgeId in_e = g.find_edge(u, v);
      const EdgeId out_e = g.find_edge(v, w);
      LRDIP_CHECK(in_e != -1 && out_e != -1);
      LRDIP_CHECK_MSG(!succ[v].count(in_e), "dart traversed by two faces");
      succ[v][in_e] = out_e;
    }
  }

  std::vector<std::vector<EdgeId>> order(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    if (g.degree(v) == 0) continue;
    LRDIP_CHECK_MSG(static_cast<int>(succ[v].size()) == g.degree(v),
                    "every incident edge must appear in some face");
    EdgeId e = succ[v].begin()->first;
    for (int i = 0; i < g.degree(v); ++i) {
      order[v].push_back(e);
      e = succ[v].at(e);
    }
    LRDIP_CHECK_MSG(e == order[v].front(), "rotation at node is not a single cycle");
  }
  return RotationSystem(g, std::move(order));
}

namespace {

/// Embeds one connected graph; returns per-node rotation orders or nullopt.
std::optional<std::vector<std::vector<EdgeId>>> embed_connected(const Graph& g) {
  std::vector<std::vector<EdgeId>> order(g.n());
  if (g.m() == 0) return order;
  const auto decomp = biconnected_components(g);
  for (int b = 0; b < decomp.num_components(); ++b) {
    const Subgraph sub =
        make_subgraph(g, decomp.component_nodes[b], decomp.component_edges[b]);
    const auto faces = demoucron_embed(sub.graph);
    if (!faces) return std::nullopt;
    const RotationSystem rot = rotation_from_faces(sub.graph, *faces);
    for (NodeId v = 0; v < sub.graph.n(); ++v) {
      const NodeId host = sub.node_to_orig[v];
      for (EdgeId e : rot.order_at(v)) order[host].push_back(sub.edge_to_orig[e]);
    }
  }
  return order;
}

}  // namespace

std::optional<RotationSystem> demoucron_planar_embedding(const Graph& g) {
  if (g.n() >= 3 && g.m() > 3 * g.n() - 6) return std::nullopt;

  auto [comp, ncomp] = components(g);
  std::vector<std::vector<EdgeId>> order(g.n());
  for (int c = 0; c < ncomp; ++c) {
    std::vector<NodeId> nodes;
    std::vector<EdgeId> edges;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (comp[v] == c) nodes.push_back(v);
    }
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (comp[g.endpoints(e).first] == c) edges.push_back(e);
    }
    const Subgraph sub = make_subgraph(g, nodes, edges);
    const auto sub_order = embed_connected(sub.graph);
    if (!sub_order) return std::nullopt;
    for (NodeId v = 0; v < sub.graph.n(); ++v) {
      for (EdgeId e : (*sub_order)[v]) {
        order[sub.node_to_orig[v]].push_back(sub.edge_to_orig[e]);
      }
    }
  }
  return RotationSystem(g, std::move(order));
}

}  // namespace lrdip

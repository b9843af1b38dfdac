#include "graph/kcore.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace qcm {

std::vector<uint32_t> CoreDecomposition(const Graph& g,
                                        std::vector<VertexId>* peel_order) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> degree(n), core(n);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort vertices by degree.
  std::vector<uint32_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v]];
  uint32_t start = 0;
  for (uint32_t d = 0; d <= max_degree; ++d) {
    uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<VertexId> order(n);    // vertices sorted by current degree
  std::vector<uint32_t> pos(n);      // position of each vertex in `order`
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = bin[degree[v]];
    order[pos[v]] = v;
    ++bin[degree[v]];
  }
  // Restore bin[d] = first index of degree-d block.
  for (uint32_t d = max_degree; d >= 1; --d) bin[d] = bin[d - 1];
  if (max_degree + 1 < bin.size()) bin[max_degree + 1] = n;
  bin[0] = 0;

  for (uint32_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    core[v] = degree[v];
    for (VertexId u : g.Neighbors(v)) {
      if (degree[u] > degree[v]) {
        // Move u to the front of its degree block, then decrement.
        uint32_t du = degree[u];
        uint32_t pu = pos[u];
        uint32_t pw = bin[du];
        VertexId w = order[pw];
        if (u != w) {
          order[pu] = w;
          order[pw] = u;
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --degree[u];
      }
    }
  }
  // Every move above lands past position i, so `order` now lists the
  // vertices in the order they were peeled.
  if (peel_order != nullptr) *peel_order = std::move(order);
  return core;
}

namespace {

/// Threshold peel shared by the Graph and snapshot overloads. Degrees
/// come from the row extents, so a snapshot is peeled from exactly the
/// adjacency ToGraph() would rebuild. Every row is checked once up front
/// -- strictly ascending neighbor ids in [0, n), none the vertex itself,
/// as a Graph guarantees -- so whatever serves the rows afterwards (the
/// engine included) indexes only in range. degree[v] >= k doubles as "v
/// is alive": a vertex is pushed once, when its degree first drops below
/// k, and is never decremented again, so the cascade touches one array.
template <typename G>
Status PeelBelow(const G& g, uint32_t k, std::vector<uint8_t>* alive) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> degree(n);
  std::vector<VertexId> peeled;
  for (VertexId v = 0; v < n; ++v) {
    const auto row = g.Neighbors(v);
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] >= n || row[i] == v || (i > 0 && row[i] <= row[i - 1])) {
        return Status::Corruption(
            "vertex " + std::to_string(v) + " lists neighbor " +
            std::to_string(row[i]) + " at position " + std::to_string(i) +
            " (ids must ascend, differ from the vertex and be < " +
            std::to_string(n) + ")");
      }
    }
    degree[v] = static_cast<uint32_t>(row.size());
    if (degree[v] < k) peeled.push_back(v);
  }
  while (!peeled.empty()) {
    const VertexId v = peeled.back();
    peeled.pop_back();
    for (VertexId u : g.Neighbors(v)) {
      if (degree[u] >= k && --degree[u] < k) peeled.push_back(u);
    }
  }
  alive->resize(n);
  for (VertexId v = 0; v < n; ++v) (*alive)[v] = degree[v] >= k;
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> KCoreMask(const Graph& g, uint32_t k) {
  std::vector<uint8_t> mask;
  // A Graph's neighbor ids are < n by construction.
  QCM_CHECK(PeelBelow(g, k, &mask).ok());
  return mask;
}

StatusOr<std::vector<uint8_t>> KCoreMask(const CsrSnapshot& snapshot,
                                         uint32_t k) {
  std::vector<uint8_t> mask;
  Status s = PeelBelow(snapshot, k, &mask);
  if (!s.ok()) {
    return Status::Corruption(snapshot.path() + ": " +
                              CsrSectionName(kCsrAdjacency) +
                              " section: " + s.message());
  }
  return mask;
}

uint64_t KCoreSize(const Graph& g, uint32_t k) {
  return CountAlive(KCoreMask(g, k));
}

uint64_t CountAlive(const std::vector<uint8_t>& mask) {
  uint64_t count = 0;
  for (uint8_t m : mask) count += m != 0;
  return count;
}

std::string PackVertexMask(const std::vector<uint8_t>& mask) {
  std::string bits((mask.size() + 7) / 8, '\0');
  for (size_t v = 0; v < mask.size(); ++v) {
    if (mask[v]) bits[v / 8] |= static_cast<char>(1u << (v % 8));
  }
  return bits;
}

Status UnpackVertexMask(const std::string& bits, uint32_t num_vertices,
                        std::vector<uint8_t>* mask) {
  const size_t want = (static_cast<size_t>(num_vertices) + 7) / 8;
  if (bits.size() != want) {
    return Status::InvalidArgument(
        "vertex mask has " + std::to_string(bits.size()) +
        " bytes, a " + std::to_string(num_vertices) +
        "-vertex graph needs " + std::to_string(want));
  }
  if (num_vertices % 8 != 0 &&
      (static_cast<uint8_t>(bits.back()) >> (num_vertices % 8)) != 0) {
    return Status::Corruption("vertex mask sets bits past vertex " +
                              std::to_string(num_vertices));
  }
  mask->resize(num_vertices);
  for (uint32_t v = 0; v < num_vertices; ++v) {
    (*mask)[v] = (static_cast<uint8_t>(bits[v / 8]) >> (v % 8)) & 1u;
  }
  return Status::OK();
}

}  // namespace qcm

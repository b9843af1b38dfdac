// k-core computation. CoreDecomposition is the O(n + m) bucket peeling
// algorithm of Batagelj & Zaversnik (paper reference [13]); KCoreMask is
// a plain threshold peel for one fixed k.
//
// The size-threshold pruning (P2, Theorem 2) reduces the input graph to its
// k-core with k = ceil(gamma * (tau_size - 1)) before any mining; the paper
// reports this single preprocessing step as "a dominating factor to scale
// beyond a small graph" (§4 T1). Every mining path installs the mask
// before spawning: SerialMiner from its Graph; ParallelMiner and the
// cluster launcher from the .qcsr snapshot the engine serves, with the one
// snapshot peel (the launcher ships it to ranks packed with
// PackVertexMask).

#ifndef QCM_GRAPH_KCORE_H_
#define QCM_GRAPH_KCORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph.h"
#include "util/status.h"

namespace qcm {

/// Core number of every vertex (the largest k such that the vertex belongs
/// to the k-core). O(n + m) time, O(n) extra space. When `peel_order` is
/// non-null it receives the vertices in the order the bucket peel removes
/// them (a degeneracy order: each vertex has at most its core number of
/// neighbors later in the order). The order depends only on `g`.
std::vector<uint32_t> CoreDecomposition(
    const Graph& g, std::vector<VertexId>* peel_order = nullptr);

/// Membership mask of the k-core: out[v] != 0 iff v survives repeatedly
/// deleting every vertex of remaining degree < k. One stack-driven peel:
/// only the adjacency rows of peeled vertices are scanned.
std::vector<uint8_t> KCoreMask(const Graph& g, uint32_t k);

/// The same peel over a mapped snapshot, in snapshot ids: the Graph
/// overload over the snapshot's own rows.
/// Corruption unless every row lists strictly ascending neighbor ids
/// below NumVertices(), none the vertex itself (each row is checked).
StatusOr<std::vector<uint8_t>> KCoreMask(const CsrSnapshot& snapshot,
                                         uint32_t k);

/// Number of vertices in the k-core.
uint64_t KCoreSize(const Graph& g, uint32_t k);

/// Number of nonzero entries of a KCoreMask result.
uint64_t CountAlive(const std::vector<uint8_t>& mask);

/// Packs a byte-per-vertex mask into ceil(n/8) bytes: vertex v is bit
/// v % 8 of byte v / 8; the pad bits of the last byte are zero.
std::string PackVertexMask(const std::vector<uint8_t>& mask);

/// Inverse of PackVertexMask for a `num_vertices`-vertex graph.
/// InvalidArgument unless bits.size() == ceil(num_vertices / 8);
/// Corruption if a pad bit is set.
Status UnpackVertexMask(const std::string& bits, uint32_t num_vertices,
                        std::vector<uint8_t>* mask);

}  // namespace qcm

#endif  // QCM_GRAPH_KCORE_H_

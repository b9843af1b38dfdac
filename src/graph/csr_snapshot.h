// Binary on-disk CSR graph snapshots (.qcsr): the out-of-core storage
// format of the system. A snapshot is a page-aligned, versioned,
// per-section checksummed image of an immutable Graph plus its original
// external ids, laid out so a worker can mmap the file and touch only the
// pages that hold its partition instead of text-parsing and transiently
// materializing the full graph (ROADMAP "out-of-core graph storage").
// It is the only form in which the engine reads a graph: a graph loaded
// or generated in memory is packed into an anonymous one
// (CsrSnapshot::FromGraph).
//
// Every snapshot is packed in degeneracy order: snapshot id i is the i-th
// vertex the min-degree bucket peel removes (CoreDecomposition's peel
// order). Quick's set enumeration lets a root extend only into larger
// ids, so in this order each root extends only into the neighbors that
// outlive it in the peel -- at most its core number of them -- and the
// dense core sits in one run of ids at the end of the file. The order
// section maps snapshot ids back to the ids of the Graph that was packed
// (the caller ids); results leave the engine's callers in caller ids
// (ToCallerIds, ToGraph).
//
// File layout, version 2 (all integers little-endian; every section
// starts on a page_size boundary and is padded with zeros up to the next
// one):
//
//   offset 0    header (144 bytes, zero-padded to page_size)
//     +0   u32  magic "QCSR"
//     +4   u32  format version
//     +8   u32  page_size (power of two, >= 4096)
//     +12  u32  num_vertices
//     +16  u64  num_edges (undirected)
//     +24  u64  build_seed (generator provenance; 0 for edge-list inputs)
//     +32  u64  file_bytes (total size incl. tail sentinel)
//     +40  4 x {u64 file_offset, u64 bytes, u64 fnv1a checksum}
//          section table: order, offsets, original-ids, adjacency
//     +136 u64  fnv1a checksum of header bytes [0, 136)
//   order         u32[n]    snapshot id -> caller id (a permutation)
//   offsets       u64[n+1]  adjacency entry offsets (CSR row starts)
//   original-ids  u64[n]    snapshot id -> external id map
//   adjacency     u32[2m]   concatenated sorted adjacency lists, in
//                           snapshot ids
//   tail          u64       tail magic at file_bytes-8 (torn-tail guard)
//
// Version 1 (a degrees section in place of order, rows in caller order)
// is rejected with an error naming the version.
//
// The adjacency section is deliberately last: a rank validates the three
// metadata sections (a contiguous prefix) and then faults adjacency pages
// on demand through PagedAdjacencyStore.

#ifndef QCM_GRAPH_CSR_SNAPSHOT_H_
#define QCM_GRAPH_CSR_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace qcm {

inline constexpr uint32_t kCsrMagic = 0x52534351u;  // "QCSR" little-endian
inline constexpr uint32_t kCsrVersion = 2;
inline constexpr uint32_t kCsrMinPageSize = 4096;
inline constexpr uint32_t kCsrDefaultPageSize = 1u << 16;
inline constexpr uint64_t kCsrTailMagic = 0x4c494154'52534351ull;  // "QCSRTAIL"
inline constexpr size_t kCsrHeaderBytes = 144;

/// Section ids, in file order.
enum CsrSectionId : int {
  kCsrOrder = 0,
  kCsrOffsets = 1,
  kCsrOriginalIds = 2,
  kCsrAdjacency = 3,
  kCsrNumSections = 4,
};

const char* CsrSectionName(int section);

struct CsrSectionDesc {
  uint64_t file_offset = 0;  // page_size-aligned
  uint64_t bytes = 0;        // payload bytes, unpadded
  uint64_t checksum = 0;     // FNV-1a over the payload
};

struct CsrHeader {
  uint32_t magic = kCsrMagic;
  uint32_t version = kCsrVersion;
  uint32_t page_size = kCsrDefaultPageSize;
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t build_seed = 0;
  uint64_t file_bytes = 0;
  CsrSectionDesc sections[kCsrNumSections];
  uint64_t header_checksum = 0;
};

struct CsrWriteOptions {
  uint32_t page_size = kCsrDefaultPageSize;
  uint64_t build_seed = 0;
};

/// Packs `g` into a .qcsr snapshot at `path`, in degeneracy order (see
/// the layout above). `original_ids` maps the ids of `g` to external ids
/// (identity when empty; otherwise must have exactly NumVertices()
/// entries). Overwrites any existing file.
Status WriteCsrSnapshot(const Graph& g,
                        const std::vector<uint64_t>& original_ids,
                        const std::string& path,
                        const CsrWriteOptions& opts = {});

/// A read-only mmap of a .qcsr file. Open() always validates the header
/// (magic/version/page-size/checksum), the declared-vs-actual file size,
/// the tail sentinel, section-table geometry, and offset-array
/// monotonicity -- so the accessors below can never read out of bounds on
/// a corrupt file. Section checksum verification is opt-out for the
/// adjacency section only, because streaming it faults every page (a
/// budget-constrained rank wants to avoid exactly that).
///
/// All accessors return pointers/spans into the mapping; they stay valid
/// for the lifetime of the CsrSnapshot even if pages are transiently
/// evicted with madvise(MADV_DONTNEED) -- a read-only file-backed mapping
/// refaults evicted pages with identical content.
class CsrSnapshot {
 public:
  struct OpenOptions {
    /// Stream-verify the order/offsets/original-ids checksums.
    bool verify_sections = true;
    /// Also stream-verify the adjacency checksum (touches every page).
    bool verify_adjacency = false;
  };

  static StatusOr<std::shared_ptr<CsrSnapshot>> Open(
      const std::string& path, const OpenOptions& opts);
  static StatusOr<std::shared_ptr<CsrSnapshot>> Open(const std::string& path) {
    return Open(path, OpenOptions{});
  }

  /// Packs `g` (identity original ids, kCsrMinPageSize pages) into an
  /// anonymous in-memory file (memfd_create) and maps it: how an
  /// in-process engine run serves a Graph it loaded or generated. No
  /// path exists on disk, so nothing outlives the process; path() reads
  /// "memfd:<n>-vertex graph".
  static StatusOr<std::shared_ptr<CsrSnapshot>> FromGraph(const Graph& g);

  ~CsrSnapshot();
  CsrSnapshot(const CsrSnapshot&) = delete;
  CsrSnapshot& operator=(const CsrSnapshot&) = delete;

  const CsrHeader& header() const { return hdr_; }
  const std::string& path() const { return path_; }
  uint32_t NumVertices() const { return hdr_.num_vertices; }
  uint64_t NumEdges() const { return hdr_.num_edges; }
  uint32_t page_size() const { return hdr_.page_size; }

  /// Total bytes mapped (the whole file).
  uint64_t MappedBytes() const { return map_len_; }

  /// From the row extents, like Graph::Degree, so it always matches
  /// Neighbors(v).size().
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// CSR row start of v, in adjacency *entries* (not bytes).
  uint64_t AdjOffset(VertexId v) const { return offsets_[v]; }

  uint64_t OriginalId(VertexId v) const { return original_ids_[v]; }

  /// The id snapshot vertex v has in the packed Graph. Open() checked
  /// that the order section is a permutation of [0, NumVertices()).
  VertexId CallerId(VertexId v) const { return order_[v]; }

  /// Rewrites vertex sets mined over this snapshot into caller ids, each
  /// set sorted ascending again; reads the mapped order section per id.
  /// InvalidArgument (and `sets` partly rewritten) if an id is out of
  /// range.
  Status ToCallerIds(std::vector<std::vector<VertexId>>* sets) const;

  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adj_ + offsets_[v], adj_ + offsets_[v + 1]};
  }

  /// Base of the mapping (the paged store advises page residency
  /// against it).
  const uint8_t* map_base() const { return map_; }

  /// Materializes a fully resident in-memory Graph in caller ids: the
  /// exact Graph that was packed (the input of the Graph-based
  /// SerialMiner reference, e.g. qcm_mine --serial, which so mines the
  /// caller's order; also the parity reference in tests).
  StatusOr<Graph> ToGraph() const;

 private:
  CsrSnapshot() = default;

  /// Validates and maps the snapshot open on `fd`, which the result (or
  /// the error path) closes. `path` names the file in errors.
  static StatusOr<std::shared_ptr<CsrSnapshot>> Map(
      int fd, const std::string& path, const OpenOptions& opts);

  std::string path_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;
  size_t map_len_ = 0;
  CsrHeader hdr_;
  const VertexId* order_ = nullptr;
  const uint64_t* offsets_ = nullptr;
  const uint64_t* original_ids_ = nullptr;
  const VertexId* adj_ = nullptr;
};

}  // namespace qcm

#endif  // QCM_GRAPH_CSR_SNAPSHOT_H_

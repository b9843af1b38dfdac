#include "graph/edge_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace qcm {

namespace {

/// "file:line: why: 'offending text'" -- the offending line is clipped and
/// stripped of its newline so the message stays one line.
Status MalformedLine(const std::string& path, size_t lineno,
                     const std::string& why, const char* line) {
  std::string excerpt(line);
  if (!excerpt.empty() && excerpt.back() == '\n') excerpt.pop_back();
  constexpr size_t kMaxExcerpt = 60;
  if (excerpt.size() > kMaxExcerpt) {
    excerpt.resize(kMaxExcerpt);
    excerpt += "...";
  }
  return Status::Corruption(path + ":" + std::to_string(lineno) + ": " +
                            why + ": '" + excerpt + "'");
}

/// Parses a non-negative decimal id at *p (advancing past it). False on a
/// missing digit or uint64 overflow. Explicit so that signs, hex and other
/// sscanf leniencies are rejected instead of silently misread.
bool ParseId(const char** p, uint64_t* out) {
  const char* q = *p;
  if (*q < '0' || *q > '9') return false;
  uint64_t value = 0;
  while (*q >= '0' && *q <= '9') {
    const uint64_t digit = static_cast<uint64_t>(*q - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
    ++q;
  }
  *p = q;
  *out = value;
  return true;
}

}  // namespace

StatusOr<LoadedGraph> LoadEdgeList(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::vector<std::pair<uint64_t, uint64_t>> raw_edges;
  char line[512];
  size_t lineno = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    if (std::strchr(line, '\n') == nullptr && !std::feof(f)) {
      std::fclose(f);
      return MalformedLine(path, lineno, "edge line too long", line);
    }
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '%' || *p == '\n' || *p == '\r' || *p == '\0') {
      continue;
    }
    uint64_t u = 0, v = 0;
    if (!ParseId(&p, &u)) {
      std::fclose(f);
      return MalformedLine(path, lineno,
                           "malformed edge line (expected source id)",
                           line);
    }
    if (*p != ' ' && *p != '\t') {
      std::fclose(f);
      return MalformedLine(
          path, lineno, "malformed edge line (expected \"u v\")", line);
    }
    while (*p == ' ' || *p == '\t') ++p;
    if (!ParseId(&p, &v)) {
      std::fclose(f);
      return MalformedLine(path, lineno,
                           "malformed edge line (expected target id)",
                           line);
    }
    while (*p == ' ' || *p == '\t') ++p;
    if (*p != '\n' && *p != '\r' && *p != '\0') {
      std::fclose(f);
      return MalformedLine(
          path, lineno,
          "malformed edge line (trailing characters after edge)", line);
    }
    raw_edges.emplace_back(u, v);
  }
  std::fclose(f);

  // Compact ids by sorted rank: a presence table and a prefix count when
  // the largest id is at most kDenseIdFactor times the id occurrences
  // (the table then stays O(m)), a sort of every occurrence otherwise.
  // Both give the same ranks.
  constexpr uint64_t kDenseIdFactor = 4;
  uint64_t max_id = 0;
  for (const auto& [u, v] : raw_edges) max_id = std::max({max_id, u, v});
  const uint64_t occurrences = 2 * raw_edges.size();
  const bool dense =
      !raw_edges.empty() && max_id / kDenseIdFactor < occurrences;
  std::vector<uint64_t> ids;    // rank -> external id
  std::vector<VertexId> table;  // dense: external id -> presence, rank
  if (dense) {
    table.assign(max_id + 1, 0);
    for (const auto& [u, v] : raw_edges) table[u] = table[v] = 1;
    for (uint64_t x = 0; x <= max_id; ++x) {
      if (table[x] != 0) ids.push_back(x);
    }
  } else {
    ids.reserve(occurrences);
    for (const auto& [u, v] : raw_edges) {
      ids.push_back(u);
      ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  if (ids.size() > static_cast<size_t>(UINT32_MAX)) {
    return Status::OutOfRange(path + ": too many distinct vertex ids");
  }
  std::vector<Edge> edges;
  edges.reserve(raw_edges.size());
  if (dense) {
    for (size_t r = 0; r < ids.size(); ++r) {
      table[ids[r]] = static_cast<VertexId>(r);
    }
    for (const auto& [u, v] : raw_edges) {
      edges.emplace_back(table[u], table[v]);
    }
  } else {
    auto rank = [&ids](uint64_t x) {
      return static_cast<VertexId>(
          std::lower_bound(ids.begin(), ids.end(), x) - ids.begin());
    };
    for (const auto& [u, v] : raw_edges) {
      edges.emplace_back(rank(u), rank(v));
    }
  }
  auto graph = Graph::FromEdges(static_cast<uint32_t>(ids.size()),
                                std::move(edges));
  QCM_RETURN_IF_ERROR(graph.status());
  LoadedGraph out;
  out.graph = std::move(graph).value();
  out.original_ids = std::move(ids);
  return out;
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing: " +
                           std::strerror(errno));
  }
  std::fprintf(f, "# qcm edge list: %u vertices, %lu edges\n",
               g.NumVertices(), static_cast<unsigned long>(g.NumEdges()));
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) std::fprintf(f, "%u %u\n", u, v);
    }
  }
  if (std::fclose(f) != 0) {
    return Status::IOError("error closing " + path);
  }
  return Status::OK();
}

}  // namespace qcm

#include "quick/maximality_filter.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "util/logging.h"
#include "util/serde.h"

namespace qcm {

namespace {

// One inverted-index entry: a kept set (its index into the input), its
// size and its signature, so the pre-checks read no set memory.
struct Posting {
  uint64_t sig;
  uint32_t set;
  uint32_t size;
};

}  // namespace

uint64_t SetSignature(const VertexSet& s) {
  uint64_t sig = 0;
  for (VertexId v : s) {
    // Fibonacci hashing: the top 6 bits of the product pick the bit.
    sig |= uint64_t{1} << ((uint64_t{v} * 0x9E3779B97F4A7C15ull) >> 58);
  }
  return sig;
}

std::vector<VertexSet> FilterMaximal(const std::vector<VertexSet>& sets,
                                     size_t* duplicates) {
  // The subset probe below (std::includes) requires each set sorted; the
  // sinks emit sorted sets, so this is an invariant check, not a re-sort.
#ifndef NDEBUG
  for (const VertexSet& s : sets) {
    assert(std::is_sorted(s.begin(), s.end()) &&
           "FilterMaximal input set violates the sorted-emission invariant");
  }
#endif
  QCM_CHECK(sets.size() <= UINT32_MAX)
      << "FilterMaximal indexes candidates with 32 bits";
  std::vector<uint32_t> order(sets.size());
  std::iota(order.begin(), order.end(), 0u);
  // Larger first, then lexicographic: equal sets end up adjacent, and
  // every strict superset of a set precedes it.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const VertexSet& x = sets[a];
    const VertexSet& y = sets[b];
    return x.size() != y.size() ? x.size() > y.size() : x < y;
  });

  size_t dups = 0;
  std::vector<uint32_t> kept;
  // Inverted index: vertex -> postings of the kept sets containing it.
  std::unordered_map<VertexId, std::vector<Posting>> index;
  for (size_t i = 0; i < order.size(); ++i) {
    const VertexSet& s = sets[order[i]];
    if (i > 0 && s == sets[order[i - 1]]) {
      ++dups;
      continue;
    }
    if (s.empty()) continue;
    // Probe via the member contained in the fewest kept sets; a member no
    // kept set contains settles it at once.
    const std::vector<Posting>* probe = nullptr;
    for (VertexId v : s) {
      auto it = index.find(v);
      if (it == index.end()) {
        probe = nullptr;
        break;
      }
      if (probe == nullptr || it->second.size() < probe->size()) {
        probe = &it->second;
      }
    }
    const uint64_t sig = SetSignature(s);
    bool subsumed = false;
    if (probe != nullptr) {
      // Rows are appended in processing order, so the strictly larger
      // sets -- the only possible strict supersets -- form a prefix.
      for (const Posting& p : *probe) {
        if (p.size <= s.size()) break;
        if ((sig & ~p.sig) != 0) continue;
        const VertexSet& t = sets[p.set];
        if (std::includes(t.begin(), t.end(), s.begin(), s.end())) {
          subsumed = true;
          break;
        }
      }
    }
    if (subsumed) continue;
    kept.push_back(order[i]);
    const Posting posting{sig, order[i], static_cast<uint32_t>(s.size())};
    for (VertexId v : s) index[v].push_back(posting);
  }
  if (duplicates != nullptr) *duplicates = dups;

  std::sort(kept.begin(), kept.end(),
            [&](uint32_t a, uint32_t b) { return sets[a] < sets[b]; });
  std::vector<VertexSet> out;
  out.reserve(kept.size());
  for (uint32_t k : kept) out.push_back(sets[k]);
  return out;
}

void CanonicalizeResults(std::vector<VertexSet>* sets,
                         CanonicalizeStats* stats) {
  CanonicalizeStats local;
  for (VertexSet& s : *sets) {
    if (std::is_sorted(s.begin(), s.end())) {
      ++local.sets_already_sorted;
    } else {
      // Every emission path sorts; an unsorted set here means a sink
      // contract violation upstream.
      assert(false && "result set violates the sorted-emission invariant");
      ++local.sets_resorted;
      std::sort(s.begin(), s.end());
    }
  }
  if (std::is_sorted(sets->begin(), sets->end())) {
    // FilterMaximal already returns lexicographic order; verifying costs
    // n-1 comparisons instead of the n*log2 n a blind sort would.
    local.vector_sort_skipped = 1;
  } else {
    std::sort(sets->begin(), sets->end());
  }
  if (stats != nullptr) *stats = local;
}

uint64_t ResultSetDigest(const std::vector<VertexSet>& sets) {
  Encoder enc;
  enc.PutU64(sets.size());
  for (const VertexSet& s : sets) enc.PutU32Vector(s);
  return Fingerprint(enc.buffer());
}

StatusOr<uint64_t> EmitCanonicalResults(std::vector<VertexSet>* sets,
                                        const std::string& output_path,
                                        CanonicalizeStats* canon_stats) {
  CanonicalizeResults(sets, canon_stats);
  const uint64_t digest = ResultSetDigest(*sets);
  std::fprintf(stderr, "result-digest: %016llx\n",
               static_cast<unsigned long long>(digest));
  if (!output_path.empty()) {
    FILE* f = output_path == "-" ? stdout
                                 : std::fopen(output_path.c_str(), "w");
    if (f == nullptr) {
      return Status::IOError("cannot open " + output_path +
                             " for writing");
    }
    for (const VertexSet& s : *sets) {
      for (size_t i = 0; i < s.size(); ++i) {
        std::fprintf(f, "%s%u", i ? " " : "", s[i]);
      }
      std::fprintf(f, "\n");
    }
    if (f != stdout) std::fclose(f);
  }
  return digest;
}

}  // namespace qcm

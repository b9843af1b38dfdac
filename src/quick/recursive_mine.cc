#include "quick/recursive_mine.h"

#include <algorithm>
#include <bit>

#include "quick/cover_vertex.h"
#include "quick/iterative_bounding.h"

namespace qcm {

void TwoHopFilter(MiningContext& ctx, std::span<const LocalId> candidates,
                  LocalId v, std::vector<LocalId>* kept) {
  const LocalGraph& g = ctx.g();
  kept->clear();
  if (ctx.dense()) {
    // Word-parallel twin: reach = {v} ∪ Gamma(v) as one bitset; u is
    // within 2 hops iff its own bit is in reach or its row intersects it.
    const uint32_t words = ctx.words();
    const uint64_t* row_v = ctx.Row(v);
    uint64_t* reach = ctx.WordBuf(0);
    std::copy(row_v, row_v + words, reach);
    reach[v >> 6] |= uint64_t{1} << (v & 63);
    uint64_t touched = words;
    for (LocalId u : candidates) {
      bool within = (reach[u >> 6] >> (u & 63)) & 1;
      if (!within) {
        const uint64_t* row_u = ctx.Row(u);
        for (uint32_t w = 0; w < words; ++w) {
          ++touched;
          if (row_u[w] & reach[w]) {
            within = true;
            break;
          }
        }
      }
      if (within) {
        kept->push_back(u);
      } else {
        ++ctx.stats.diameter_filtered;
      }
    }
    ctx.stats.bitset_words_touched += touched;
    return;
  }
  // Mark {v} ∪ Gamma(v); u is within 2 hops iff u or one of its neighbors
  // is marked. Intermediate hops may pass through any vertex of the task
  // subgraph, exactly like B(v) in the paper (computed on t.g).
  const uint32_t tag = ctx.NewMark();
  ctx.Mark(v, tag);
  for (LocalId w : g.Neighbors(v)) ctx.Mark(w, tag);

  for (LocalId u : candidates) {
    bool within = ctx.Marked(u, tag);
    if (!within) {
      for (LocalId w : g.Neighbors(u)) {
        if (ctx.Marked(w, tag)) {
          within = true;
          break;
        }
      }
    }
    if (within) {
      kept->push_back(u);
    } else {
      ++ctx.stats.diameter_filtered;
    }
  }
}

void LoadNodeDegrees(MiningContext& ctx, const std::vector<LocalId>& s,
                     const std::vector<LocalId>& ext, MineFrame& frame) {
  const std::vector<uint32_t>& ds = ctx.ds();
  const std::vector<uint32_t>& dext = ctx.dext();
  frame.sdeg.resize(s.size() + ext.size());
  frame.udeg.resize(s.size() + ext.size());
  size_t p = 0;
  auto load = [&](LocalId x) {
    frame.sdeg[p] = ds[x];
    frame.udeg[p] = ds[x] + dext[x];
    ++p;
  };
  for (LocalId x : s) load(x);
  for (LocalId x : ext) load(x);
}

namespace {

/// Takes the dropped vertices F out of the seeded dext' of every child
/// member x in S ∪ {v} ∪ ext' (dext'(x) -= |N(x) ∩ F|). Costs one row (or
/// neighbor list) per f in F: what the two-hop filter already spent to
/// reject f, so seeding never costs more than the filter in front of it.
void RemoveDroppedFromDext(MiningContext& ctx, const std::vector<LocalId>& s,
                           LocalId v, const std::vector<LocalId>& ext_child,
                           const std::vector<LocalId>& dropped) {
  std::vector<uint32_t>& dext = ctx.dext();
  if (ctx.dense()) {
    const uint32_t words = ctx.words();
    uint64_t* member = ctx.WordBuf(0);
    std::fill(member, member + words, 0);
    auto set_bit = [&](LocalId x) {
      member[x >> 6] |= uint64_t{1} << (x & 63);
    };
    for (LocalId x : s) set_bit(x);
    set_bit(v);
    for (LocalId x : ext_child) set_bit(x);
    for (LocalId f : dropped) {
      const uint64_t* row_f = ctx.Row(f);
      for (uint32_t w = 0; w < words; ++w) {
        uint64_t bits = row_f[w] & member[w];
        while (bits) {
          --dext[(w << 6) + static_cast<LocalId>(std::countr_zero(bits))];
          bits &= bits - 1;
        }
      }
    }
    ctx.stats.bitset_words_touched += uint64_t{words} * (1 + dropped.size());
    return;
  }
  const uint32_t tag = ctx.NewMark();
  for (LocalId x : s) ctx.Mark(x, tag);
  ctx.Mark(v, tag);
  for (LocalId x : ext_child) ctx.Mark(x, tag);
  for (LocalId f : dropped) {
    for (LocalId w : ctx.g().Neighbors(f)) {
      if (ctx.Marked(w, tag)) --dext[w];
    }
  }
}

/// SeedChildDegrees over an adjacency test adj(x) = A[x][v].
template <typename Adj>
void SeedChildDegreesWith(MiningContext& ctx, const std::vector<LocalId>& s,
                          const std::vector<LocalId>& ext, size_t i,
                          MineFrame& frame, Adj adj) {
  const size_t ns = s.size();
  const std::vector<LocalId>& ext_child = frame.ext_child;
  const bool seed = !ext_child.empty();
  std::vector<uint32_t>& sdeg = frame.sdeg;
  std::vector<uint32_t>& udeg = frame.udeg;
  std::vector<uint32_t>& ds = ctx.ds();
  std::vector<uint32_t>& dext = ctx.dext();

  // v leaves S ∪ ext[i+1..) for every live member; after the retire,
  // udeg[x] - sdeg[x] = |N(x) ∩ ext[i+1..)|, which ext' and F partition.
  for (size_t p = 0; p < ns; ++p) {
    const uint32_t a = adj(s[p]);
    udeg[p] -= a;
    if (seed) {
      ds[s[p]] = sdeg[p] + a;
      dext[s[p]] = udeg[p] - sdeg[p];
    }
  }
  std::vector<LocalId>& dropped = ctx.IdBuf(0);
  dropped.clear();
  size_t k = 0;  // ext_child is an order-preserving subsequence of ext
  for (size_t j = i + 1; j < ext.size(); ++j) {
    const size_t p = ns + j;
    const LocalId x = ext[j];
    const uint32_t a = adj(x);
    udeg[p] -= a;
    if (!seed) continue;
    if (k < ext_child.size() && ext_child[k] == x) {
      ds[x] = sdeg[p] + a;
      dext[x] = udeg[p] - sdeg[p];
      ++k;
    } else {
      dropped.push_back(x);
    }
  }
  if (!seed) return;
  const LocalId v = ext[i];
  ds[v] = sdeg[ns + i];
  dext[v] = udeg[ns + i] - sdeg[ns + i];
  if (!dropped.empty()) RemoveDroppedFromDext(ctx, s, v, ext_child, dropped);
}

}  // namespace

void SeedChildDegrees(MiningContext& ctx, const std::vector<LocalId>& s,
                      const std::vector<LocalId>& ext, size_t i,
                      MineFrame& frame) {
  const LocalId v = ext[i];
  if (ctx.dense()) {
    const uint64_t* row_v = ctx.Row(v);
    SeedChildDegreesWith(ctx, s, ext, i, frame, [row_v](LocalId x) {
      return static_cast<uint32_t>((row_v[x >> 6] >> (x & 63)) & 1);
    });
    // One row word per live member other than v.
    ctx.stats.bitset_words_touched += s.size() + ext.size() - i - 1;
    return;
  }
  const uint32_t tag = ctx.NewMark();
  for (LocalId w : ctx.g().Neighbors(v)) ctx.Mark(w, tag);
  SeedChildDegreesWith(ctx, s, ext, i, frame, [&ctx, tag](LocalId x) {
    return static_cast<uint32_t>(ctx.Marked(x, tag));
  });
}

namespace {

/// Reorders ext so the members of `cover` form the tail, preserving the
/// relative order of the rest (Alg. 2 line 4). Returns the loop bound
/// |ext| - |cover|.
size_t MoveCoverToTail(MiningContext& ctx, std::vector<LocalId>& ext,
                       const std::vector<LocalId>& cover) {
  if (cover.empty()) return ext.size();
  const uint32_t tag = ctx.NewMark2();
  for (LocalId w : cover) ctx.Mark2(w, tag);
  std::vector<LocalId>& tail = ctx.IdBuf(0);
  tail.clear();
  size_t kept = 0;
  for (LocalId u : ext) {
    if (ctx.Marked2(u, tag)) {
      tail.push_back(u);
    } else {
      ext[kept++] = u;
    }
  }
  std::copy(tail.begin(), tail.end(), ext.begin() + kept);
  return kept;
}

/// Alg. 2 lines 8-10 on the frame: is G(S ∪ ext[i..)) a quasi-clique?
/// udeg of a live member is exactly its degree inside that union.
bool LookaheadHolds(MiningContext& ctx, const MineFrame& frame, size_t ns,
                    size_t i) {
  const size_t size = frame.udeg.size() - i;  // |S| + remaining >= 2
  const int64_t need = ctx.CeilGamma(static_cast<int64_t>(size) - 1);
  for (size_t p = 0; p < ns; ++p) {
    if (frame.udeg[p] < need) return false;
  }
  for (size_t p = ns + i; p < frame.udeg.size(); ++p) {
    if (frame.udeg[p] < need) return false;
  }
  return true;
}

/// One search node <s, ext> at recursion depth `depth`. REQUIRES: ds()/
/// dext() fresh for every member of s and ext.
bool MineNode(MiningContext& ctx, size_t depth, const std::vector<LocalId>& s,
              std::vector<LocalId>& ext) {
  ++ctx.stats.nodes_explored;
  bool found = false;
  const MiningOptions& opts = ctx.opts();
  MineFrame& frame = ctx.Frame(depth);

  // Lines 2-4: cover-vertex pruning (P7). Vertices covered by the best
  // cover vertex are never used as the branching vertex v.
  FindBestCoverSet(ctx, s, ext, &frame.cover);
  const size_t loop_end = MoveCoverToTail(ctx, ext, frame.cover);
  ctx.stats.cover_skipped += frame.cover.size();
  LoadNodeDegrees(ctx, s, ext, frame);

  for (size_t i = 0; i < loop_end; ++i) {
    // ext(S) at this point is the suffix ext[i..); earlier branching
    // vertices are excluded for good (the set-enumeration discipline,
    // Alg. 2 line 11).
    const size_t remaining = ext.size() - i;

    // Lines 6-7: size-threshold subtree cut.
    if (s.size() + remaining < opts.min_size) {
      ++ctx.stats.size_prunes;
      return found;
    }

    // Lines 8-10: lookahead -- if S ∪ ext(S) is already a quasi-clique it
    // is the unique maximal result of this subtree.
    if (opts.use_lookahead && LookaheadHolds(ctx, frame, s.size(), i)) {
      std::vector<LocalId>& whole = frame.s_child;
      whole.assign(s.begin(), s.end());
      whole.insert(whole.end(), ext.begin() + static_cast<int64_t>(i),
                   ext.end());
      ctx.EmitVerified(whole);
      ++ctx.stats.lookahead_hits;
      return true;
    }

    // Line 11: branch on v.
    const LocalId v = ext[i];
    std::vector<LocalId>& s_child = frame.s_child;
    std::vector<LocalId>& ext_child = frame.ext_child;
    s_child.assign(s.begin(), s.end());
    s_child.push_back(v);

    // Line 12: ext(S') = ext(S) ∩ B(v) (P1).
    TwoHopFilter(ctx, std::span(ext).subspan(i + 1), v, &ext_child);
    SeedChildDegrees(ctx, s, ext, i, frame);

    if (ext_child.empty()) {
      // Lines 13-16. The original Quick misses this check (§4 T6 remark).
      if (!opts.quick_compat) {
        found |= ctx.CheckAndEmit(s_child);
      }
      continue;
    }

    // Line 18: Algorithm 1, on the seeded degrees. May shrink ext_child,
    // may expand s_child (critical vertices), may emit candidates.
    BoundingResult bounding = IterativeBounding(ctx, s_child, ext_child);
    found |= bounding.emitted;
    if (bounding.pruned) continue;
    // Line 20 guard: even taking all of ext(S') cannot reach tau_size.
    if (s_child.size() + ext_child.size() < opts.min_size) continue;

    if (ctx.TimedOut() && ctx.subtask_sink()) {
      // Algorithm 10 lines 18-24: wrap <S', ext(S')> as a new task and
      // examine G(S') immediately -- this task will never see the
      // subtask's results, so skipping the check could lose a maximal
      // result. (This is the extra checking that inflates result counts
      // for small tau_time in Tables 3/4.)
      ctx.subtask_sink()(s_child, ext_child);
      ++ctx.stats.subtasks_spawned;
      found |= ctx.CheckAndEmit(s_child);
      continue;
    }

    // Line 21: recurse; bounding left ds/dext fresh for <S', ext(S')>.
    // s_child is kept: if the subtree finds nothing, lines 23-25 examine
    // G(S') -- and S' here is the critical-vertex-expanded set, not merely
    // S ∪ {v}.
    const bool child_found = MineNode(ctx, depth + 1, s_child, ext_child);
    found |= child_found;
    if (!child_found) {
      found |= ctx.CheckAndEmit(s_child);
    }
  }
  return found;
}

}  // namespace

bool RecursiveMine(MiningContext& ctx, std::vector<LocalId> s,
                   std::vector<LocalId> ext) {
  ComputeDegreesFromScratch(ctx, s, ext);
  return MineNode(ctx, 0, s, ext);
}

}  // namespace qcm

#include "quick/cover_vertex.h"

#include <algorithm>
#include <bit>

namespace qcm {

namespace {

/// Word-parallel twin of the scalar search below: same candidate order,
/// same early skips/breaks (popcounted sizes equal the scalar list sizes at
/// every decision point), so it selects the same winning cover SET -- only
/// the element order of the result differs, which callers never observe.
void FindBestCoverSetDense(MiningContext& ctx, const std::vector<LocalId>& s,
                           const std::vector<LocalId>& ext, int64_t thresh,
                           std::vector<LocalId>* best) {
  const uint32_t words = ctx.words();
  const std::vector<uint32_t>& ds = ctx.ds();
  uint64_t* ext_mask = ctx.WordBuf(1);
  uint64_t* cover = ctx.WordBuf(2);
  std::fill(ext_mask, ext_mask + words, 0);
  for (LocalId w : ext) ext_mask[w >> 6] |= uint64_t{1} << (w & 63);
  uint64_t touched = words;

  for (LocalId u : ext) {
    if (ds[u] < thresh) continue;
    const uint64_t* row_u = ctx.Row(u);

    // All v in S not adjacent to u must satisfy dS(v) >= thresh.
    bool ok = true;
    for (LocalId v : s) {
      if (!((row_u[v >> 6] >> (v & 63)) & 1) && ds[v] < thresh) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    // Candidate cover = ext ∩ Gamma(u); no self-loops, so bit u is absent.
    int64_t csize = 0;
    for (uint32_t w = 0; w < words; ++w) {
      cover[w] = row_u[w] & ext_mask[w];
      csize += std::popcount(cover[w]);
    }
    touched += words;
    if (csize <= static_cast<int64_t>(best->size())) continue;

    // Intersect with Gamma(v) of every non-neighbor v in S (Eq. 9).
    for (LocalId v : s) {
      if ((row_u[v >> 6] >> (v & 63)) & 1) continue;  // v adjacent to u
      const uint64_t* row_v = ctx.Row(v);
      csize = 0;
      for (uint32_t w = 0; w < words; ++w) {
        cover[w] &= row_v[w];
        csize += std::popcount(cover[w]);
      }
      touched += words;
      if (csize <= static_cast<int64_t>(best->size())) break;
    }
    if (csize > static_cast<int64_t>(best->size())) {
      best->clear();
      for (uint32_t w = 0; w < words; ++w) {
        uint64_t bits = cover[w];
        while (bits) {
          const int b = std::countr_zero(bits);
          best->push_back((w << 6) + static_cast<LocalId>(b));
          bits &= bits - 1;
        }
      }
    }
  }
  ctx.stats.bitset_words_touched += touched;
}

}  // namespace

void FindBestCoverSet(MiningContext& ctx, const std::vector<LocalId>& s,
                      const std::vector<LocalId>& ext,
                      std::vector<LocalId>* best) {
  best->clear();
  if (!ctx.opts().use_cover_vertex || ext.empty() || s.empty()) return;
  const LocalGraph& g = ctx.g();
  const int64_t thresh = ctx.CeilGamma(static_cast<int64_t>(s.size()));
  if (ctx.dense()) return FindBestCoverSetDense(ctx, s, ext, thresh, best);

  const std::vector<uint32_t>& ds = ctx.ds();
  std::vector<LocalId>& cover = ctx.IdBuf(0);
  std::vector<LocalId>& filtered = ctx.IdBuf(1);
  for (LocalId u : ext) {
    if (ds[u] < thresh) continue;

    // Mark Gamma(u).
    const uint32_t u_tag = ctx.NewMark2();
    for (LocalId w : g.Neighbors(u)) ctx.Mark2(w, u_tag);

    // All v in S not adjacent to u must satisfy dS(v) >= thresh.
    bool ok = true;
    for (LocalId v : s) {
      if (!ctx.Marked2(v, u_tag) && ds[v] < thresh) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    // Candidate cover starts as Gamma_ext(u) = ext ∩ Gamma(u). If it is
    // already no bigger than the best cover, u cannot win (the paper's
    // early-skip in Alg. 2 line 2 commentary).
    cover.clear();
    for (LocalId w : ext) {
      if (w != u && ctx.Marked2(w, u_tag)) cover.push_back(w);
    }
    if (cover.size() <= best->size()) continue;

    // Intersect with Gamma(v) of every non-neighbor v in S (Eq. 9).
    for (LocalId v : s) {
      if (ctx.Marked2(v, u_tag)) continue;  // v adjacent to u
      const uint32_t v_tag = ctx.NewMark();
      for (LocalId w : g.Neighbors(v)) ctx.Mark(w, v_tag);
      filtered.clear();
      for (LocalId w : cover) {
        if (ctx.Marked(w, v_tag)) filtered.push_back(w);
      }
      cover.swap(filtered);
      if (cover.size() <= best->size()) break;
    }
    if (cover.size() > best->size()) best->assign(cover.begin(), cover.end());
  }
}

}  // namespace qcm

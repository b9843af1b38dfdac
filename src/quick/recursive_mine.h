// Algorithm 2 (recursive_mine) and its time-delayed variant (Algorithm 10).
//
// The two algorithms share all structure; Algorithm 10 differs only in the
// branch taken when the task's mining deadline has passed: instead of
// recursing into <S', ext(S')>, the pair is wrapped into a new task through
// the context's SubtaskSink, and G(S') is examined immediately because the
// current task loses track of the subtask's findings (Alg. 10 lines 18-24).
// Arming MiningContext::ArmTimeout therefore *is* the time-delayed strategy;
// without it this function is exactly Algorithm 2.

#ifndef QCM_QUICK_RECURSIVE_MINE_H_
#define QCM_QUICK_RECURSIVE_MINE_H_

#include <vector>

#include "quick/mining_context.h"

namespace qcm {

/// Mines all valid quasi-cliques Q ⊇ S with Q ⊆ S ∪ ext (set-enumeration
/// subtree T_S). Returns true iff some valid Q ⊋ S was found and emitted.
/// Candidates are emitted through ctx's sink; non-maximal candidates are
/// possible and removed by postprocessing (maximality_filter.h).
///
/// Counts the root's degrees once; every deeper search node takes its
/// degrees from the IterativeBounding run that admitted it, keeps them in
/// its MineFrame, and seeds each child's from there (SeedChildDegrees).
/// Not re-entrant on one context: the search frames start at depth 0.
///
/// REQUIRES: s non-empty and disjoint from ext; all ids local to ctx.g();
/// state() all kOut.
bool RecursiveMine(MiningContext& ctx, std::vector<LocalId> s,
                   std::vector<LocalId> ext);

/// Diameter-based candidate filter (P1 / Alg. 2 line 12): writes into
/// *kept the members of `candidates` within 2 hops of v in ctx.g(),
/// preserving order.
void TwoHopFilter(MiningContext& ctx, std::span<const LocalId> candidates,
                  LocalId v, std::vector<LocalId>* kept);

// ---- The per-node degree frame (exposed for the kernel parity tests) ----

/// Fills frame.sdeg / frame.udeg for the node <s, ext> from ctx.ds() /
/// ctx.dext(), in position order (s, then ext). REQUIRES: ds()/dext()
/// fresh for every member of s and ext.
void LoadNodeDegrees(MiningContext& ctx, const std::vector<LocalId>& s,
                     const std::vector<LocalId>& ext, MineFrame& frame);

/// Branch i of the node <s, ext> (v = ext[i]) with frame.ext_child =
/// TwoHopFilter(ext[i+1..), v): retires v from frame.udeg and, when
/// ext_child is non-empty, writes into ctx.ds() / ctx.dext() the degrees of
/// S' = s ∪ {v} and ext' = ext_child for every member of S' ∪ ext':
///   ds'(x)   = sdeg[x] + A[x][v]
///   dext'(x) = udeg[x] - A[x][v] - sdeg[x] - |N(x) ∩ F|,
/// F = ext[i+1..) \ ext' (the vertices the two-hop filter dropped).
/// REQUIRES: the frame was loaded for <s, ext> and branches 0..i-1 were
/// seeded in order, so udeg counts S ∪ ext[i..).
void SeedChildDegrees(MiningContext& ctx, const std::vector<LocalId>& s,
                      const std::vector<LocalId>& ext, size_t i,
                      MineFrame& frame);

}  // namespace qcm

#endif  // QCM_QUICK_RECURSIVE_MINE_H_

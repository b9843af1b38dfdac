// Algorithm 1 of the paper: the iterative bound-based pruning subprocedure.
//
// Given <S, ext(S)>, repeatedly (a) refreshes degrees, (b) recomputes
// U_S / L_S (whose failure triggers Type-II pruning), (c) applies
// critical-vertex expansion (P6), (d) applies the Type-II rules
// (Theorems 4, 6, 8), and (e) applies the Type-I rules (Theorems 3, 5, 7)
// to shrink ext(S) -- iterating because each shrink tightens the bounds.

#ifndef QCM_QUICK_ITERATIVE_BOUNDING_H_
#define QCM_QUICK_ITERATIVE_BOUNDING_H_

#include <vector>

#include "quick/mining_context.h"

namespace qcm {

/// Outcome of IterativeBounding.
struct BoundingResult {
  /// True iff extending S (beyond S itself) was pruned -- the caller must
  /// not recurse. Mirrors the boolean return of Algorithm 1.
  bool pruned = false;
  /// True iff some candidate quasi-clique (S, possibly after critical-vertex
  /// expansion) was emitted during bounding. Lets the caller maintain the
  /// "found a quasi-clique extending S" flag precisely.
  bool emitted = false;
};

/// Runs Algorithm 1 on <s, ext>, both passed by reference:
///   * ext may shrink (Type-I pruning), preserving relative order;
///   * s may grow (critical-vertex expansion, Theorem 9).
/// REQUIRES: s non-empty, s/ext disjoint, members are local ids of ctx.g(),
/// state() all kOut, and -- the fresh-degrees precondition -- ctx.ds() /
/// ctx.dext() hold |N(x) ∩ s| / |N(x) ∩ ext| for every member x of s and
/// ext. RecursiveMine seeds them from its degree frame; other callers use
/// ComputeDegreesFromScratch. The first iteration uses them as given; later
/// iterations recount after a Type-I shrink or a critical-vertex move.
/// Guarantees pruned == false only if ext is non-empty on return, and then
/// ds()/dext() are fresh for the returned s and ext.
BoundingResult IterativeBounding(MiningContext& ctx, std::vector<LocalId>& s,
                                 std::vector<LocalId>& ext);

}  // namespace qcm

#endif  // QCM_QUICK_ITERATIVE_BOUNDING_H_

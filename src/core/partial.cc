#include "core/partial.h"

#include <algorithm>

#include "util/logging.h"

namespace moche {

namespace {

// Frames this large are refused, so k < 2^29 and every A, B in [-k, k]
// fits the 32-bit tree (see "Width" in the header).
constexpr size_t kMaxBaseValues = size_t{1} << 29;

// Padding leaves sit right of every run: they never enter a prefix max and
// never win a suffix min. At +-2^30 they stay beyond every real value after
// k < 2^29 suffix adds, and nothing wraps.
constexpr int32_t kNoMax = -(int32_t{1} << 30);
constexpr int32_t kNoMin = int32_t{1} << 30;

}  // namespace

Status PartialExplanationChecker::Reset(const BoundsEngine& engine,
                                        size_t k) {
  if (k == 0 || k >= engine.frame().m()) {
    return Status::InvalidArgument("explanation size out of range");
  }
  if (engine.frame().q() >= kMaxBaseValues) {
    return Status::OutOfRange(
        "phase-2 checker takes fewer than 2^29 distinct values");
  }
  frame_ = &engine.frame();
  k_ = k;
  accepted_count_ = 0;
  steps_ = 0;
  engine.ComputeBoundsInto(k, &lk_, &uk_);
  const size_t q = frame_->q();
  size_t runs = 1;
  for (size_t i = 1; i <= q; ++i) runs += frame_->CountT(i) > 0 ? 1 : 0;
  leaves_ = 1;
  while (leaves_ < runs) leaves_ *= 2;
  run_of_.resize(q + 1);
  counts_.assign(runs, 0);
  nodes_.resize(2 * leaves_);
  add_.assign(leaves_, 0);

  // One pass maps every base index to its run and keeps each run's leaf at
  // the max l and min u seen so far (P = 0 with nothing accepted). Where
  // runs start depends on the data, so the pass is branch-free: a mask
  // drops the previous run's extremes where a new run starts, and every
  // leaf store is unconditional. It also checks that the empty set is a
  // partial explanation (l_i <= u_j for all i <= j): it is iff an
  // explanation of size k exists, and every later Accept relies on it.
  // Only then are the 32-bit leaves exact (every l and u in [0, k]);
  // otherwise they are discarded.
  const int64_t* lk = lk_.data();
  const int64_t* uk = uk_.data();
  Node* leaf = nodes_.data() + leaves_;
  size_t run = 0;
  int64_t run_max_l = lk[0];
  int64_t run_min_u = uk[0];
  int64_t prefix_max_l = lk[0];
  bool feasible = lk[0] <= uk[0];
  run_of_[0] = 0;
  leaf[0] = Node{static_cast<int32_t>(run_max_l),
                 static_cast<int32_t>(run_min_u)};
  for (size_t i = 1; i <= q; ++i) {
    const bool starts = frame_->CountT(i) > 0;
    const int64_t keep = static_cast<int64_t>(starts) - 1;  // 0 or all ones
    run += starts ? 1 : 0;
    run_max_l = std::max((run_max_l & keep) | (lk[i] & ~keep), lk[i]);
    run_min_u = std::min((run_min_u & keep) | (uk[i] & ~keep), uk[i]);
    leaf[run] = Node{static_cast<int32_t>(run_max_l),
                     static_cast<int32_t>(run_min_u)};
    run_of_[i] = static_cast<uint32_t>(run);
    prefix_max_l = std::max(prefix_max_l, lk[i]);
    feasible &= prefix_max_l <= uk[i];
  }
  if (!feasible) {
    return Status::Internal(
        "no qualified k-cumulative vector; was k computed by phase 1?");
  }
  for (size_t x = leaves_ + runs; x < 2 * leaves_; ++x) {
    nodes_[x] = Node{kNoMax, kNoMin};
  }
  for (size_t x = leaves_ - 1; x >= 1; --x) {
    nodes_[x] = Node{std::max(nodes_[2 * x].max_a, nodes_[2 * x + 1].max_a),
                     std::min(nodes_[2 * x].min_b, nodes_[2 * x + 1].min_b)};
  }
  return Status::OK();
}

bool PartialExplanationChecker::RunFeasible(size_t b) {
  // Walk from leaf b to the root. A left sibling lies wholly in runs < b
  // (the prefix), a right sibling wholly in runs > b (the suffix); each
  // parent's pending add applies to everything gathered below it.
  size_t x = leaves_ + b;
  int32_t max_a = kNoMax;
  int32_t min_b = nodes_[x].min_b;
  ++steps_;
  for (; x > 1; x >>= 1) {
    ++steps_;
    if ((x & 1) != 0) {
      max_a = std::max(max_a, nodes_[x - 1].max_a);
    } else {
      min_b = std::min(min_b, nodes_[x + 1].min_b);
    }
    const int32_t add = add_[x >> 1];
    max_a += add;
    min_b += add;
  }
  return max_a <= min_b - 1;
}

bool PartialExplanationChecker::CandidateFeasible(size_t v) {
  MOCHE_DCHECK(v >= 1 && v <= frame_->q());
  // An R-only index has CountT(v) == 0 and fails here, so a run that gets
  // past this check starts at v (b >= 1).
  const size_t b = run_of_[v];
  if (counts_[b] >= frame_->CountT(v)) {
    return false;  // would exceed the multiplicity available in T
  }
  return RunFeasible(b);
}

bool PartialExplanationChecker::CandidateFeasibleFull(size_t v) {
  MOCHE_DCHECK(v >= 1 && v <= frame_->q());
  if (counts_[run_of_[v]] >= frame_->CountT(v)) return false;
  const size_t q = frame_->q();
  int64_t upper = uk_[q];
  ++steps_;
  if (upper < lk_[q]) return false;
  for (size_t i = q; i >= 1; --i) {
    ++steps_;
    // s_i: the accepted copies of value i, nonzero only where a run starts.
    int64_t s = run_of_[i] != run_of_[i - 1] ? counts_[run_of_[i]] : 0;
    if (i == v) ++s;
    const int64_t nu = std::min(uk_[i - 1], upper - s);
    if (nu < lk_[i - 1]) return false;
    upper = nu;
  }
  return true;
}

void PartialExplanationChecker::Accept(size_t v) {
  const bool feasible = CandidateFeasible(v);
  MOCHE_CHECK(feasible);
  const size_t b = run_of_[v];
  ++counts_[b];
  ++accepted_count_;
  // P rises by one on runs b..r: subtract one from A and B there. Leaf b
  // takes it directly, every right sibling on the path as a pending add,
  // and each ancestor is recombined from its children.
  size_t x = leaves_ + b;
  --nodes_[x].max_a;
  --nodes_[x].min_b;
  ++steps_;
  for (; x > 1; x >>= 1) {
    ++steps_;
    if ((x & 1) == 0) {
      Node& sibling = nodes_[x + 1];
      --sibling.max_a;
      --sibling.min_b;
      if (x + 1 < leaves_) --add_[x + 1];
    }
    const Node& left = nodes_[x & ~size_t{1}];
    const Node& right = nodes_[x | 1];
    const size_t parent = x >> 1;
    nodes_[parent] = Node{std::max(left.max_a, right.max_a) + add_[parent],
                          std::min(left.min_b, right.min_b) + add_[parent]};
  }
}

}  // namespace moche

// Differential oracle: BoundsEngine Theorem 1/2 and SizeScan against
// brute-force subset enumeration on small instances.
//
// Soundness is the sharp edge: when the engine refutes a size h (Theorem 1
// says no qualified h-subset exists), exhaustive enumeration must agree —
// a refuted size with a qualifying explanation would make MOCHE return
// non-minimal (wrong) explanations while every test stays green. The
// target also checks completeness (engine says exists => brute force finds
// one), Theorem 2's necessity (qualified h-subset exists => the Equation 5
// condition holds), SizeScan's bit-identity to the stateless check under
// arbitrary probe orders, that ConstructQualifiedVector's witness is a
// genuine sub-multiset of T of the requested size, and that the phase-2
// checker's closed-form Theorem-3 check agrees with the paper's full
// recursion on every candidate of a greedy scan, and that the anchored
// frame (CumulativeFrame::BuildAnchoredInto) answers Theorem 1, Theorem 2,
// a SizeScan walk and the checker's Reset exactly as the full frame does
// at every h (the last two legs draw no input bytes, so the committed
// corpus keeps its meaning).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "core/brute_force.h"
#include "core/cumulative.h"
#include "core/instance.h"
#include "core/partial.h"
#include "fuzz_target.h"
#include "provider.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  // Small m keeps the 2^m enumeration cheap; a tight shared alphabet makes
  // ties (the hard case for the ceil/floor tolerance algebra) the norm.
  moche::KsInstance inst;
  const size_t n = in.SizeInRange(1, 14);
  const size_t m = in.SizeInRange(2, 9);
  const int alphabet = static_cast<int>(in.SizeInRange(1, 6));
  if (in.Bool()) {
    in.TiedArray(n, alphabet, &inst.reference);
    in.TiedArray(m, alphabet, &inst.test);
  } else {
    in.FiniteArray(n, &inst.reference);
    in.FiniteArray(m, &inst.test);
  }
  inst.alpha = in.Alpha();

  auto frame = moche::CumulativeFrame::Build(inst.reference, inst.test);
  MOCHE_FUZZ_CHECK(frame.ok(), "CumulativeFrame::Build failed: %s",
                   frame.status().message().c_str());
  moche::BoundsEngine engine(*frame, inst.alpha);
  moche::BruteForceExplainer brute;

  std::vector<bool> exists(m, false);
  for (size_t h = 1; h < m; ++h) {
    const bool fast = engine.ExistsQualified(h);
    auto slow = brute.ExistsQualifiedSubset(inst, h);
    MOCHE_FUZZ_CHECK(slow.ok(), "brute force failed at h=%zu: %s", h,
                     slow.status().message().c_str());
    MOCHE_FUZZ_CHECK(
        fast == *slow,
        "Theorem 1 %s at h=%zu but enumeration says %s (n=%zu m=%zu "
        "alpha=%.17g)",
        fast ? "accepts" : "refutes", h, *slow ? "exists" : "none", n, m,
        inst.alpha);
    exists[h] = fast;

    // Theorem 2 is a necessary condition: existence implies it holds.
    if (fast) {
      MOCHE_FUZZ_CHECK(engine.NecessaryCondition(h),
                       "Theorem 2 fails at h=%zu where a qualified subset "
                       "exists",
                       h);
    }

    // The constructed witness must be a size-h sub-multiset of T.
    auto witness = engine.ConstructQualifiedVector(h);
    MOCHE_FUZZ_CHECK(witness.ok() == fast,
                     "ConstructQualifiedVector %s at h=%zu but Theorem 1 "
                     "says %d",
                     witness.ok() ? "succeeded" : "failed", h, fast);
    if (witness.ok()) {
      const std::vector<int64_t>& cum = *witness;
      MOCHE_FUZZ_CHECK(cum.size() == frame->q() + 1 && cum[0] == 0,
                       "witness vector has wrong shape at h=%zu", h);
      MOCHE_FUZZ_CHECK(cum.back() == static_cast<int64_t>(h),
                       "witness vector has size %lld, wanted h=%zu",
                       static_cast<long long>(cum.back()), h);
      for (size_t i = 1; i < cum.size(); ++i) {
        const int64_t count = cum[i] - cum[i - 1];
        MOCHE_FUZZ_CHECK(count >= 0 && count <= frame->CountT(i),
                         "witness count %lld at i=%zu exceeds T's "
                         "multiplicity %lld",
                         static_cast<long long>(count), i,
                         static_cast<long long>(frame->CountT(i)));
      }
    }
  }

  // Theorem 2 is monotone in h: once it holds it must keep holding.
  bool held = false;
  for (size_t h = 1; h < m; ++h) {
    const bool now = engine.NecessaryCondition(h);
    MOCHE_FUZZ_CHECK(!held || now,
                     "Theorem 2 monotonicity violated at h=%zu", h);
    held = held || now;
  }

  // SizeScan must be bit-identical to the stateless check in ANY call
  // order, including revisits (the walk carries failure state across
  // sizes; a byte-derived probe order stresses the carry logic).
  moche::SizeScan scan(engine);
  const size_t probes = in.SizeInRange(1, 24);
  for (size_t p = 0; p < probes; ++p) {
    const size_t h = in.SizeInRange(1, m - 1);
    MOCHE_FUZZ_CHECK(scan.ExistsQualified(h) == exists[h],
                     "SizeScan diverges from ExistsQualified at h=%zu "
                     "(probe %zu)",
                     h, p);
  }
  // Every probe either short-circuits via the O(1) refutation or falls back
  // to a full scan; the counters must account for all of them.
  MOCHE_FUZZ_CHECK(scan.probe_refutations() + scan.full_scans() == probes,
                   "SizeScan counters %zu + %zu do not cover %zu probes",
                   scan.probe_refutations(), scan.full_scans(), probes);

  // Phase 2 at every feasible size: scan base indices in order, offering
  // each value one more time than T holds it (so the multiplicity limit is
  // hit), and accept whenever feasible. The closed form must equal the full
  // recursion on every offer, and the scan must fill the explanation.
  moche::PartialExplanationChecker checker;
  for (size_t h = 1; h < m; ++h) {
    if (!exists[h]) continue;
    const moche::Status reset = checker.Reset(engine, h);
    MOCHE_FUZZ_CHECK(reset.ok(),
                     "checker rejects h=%zu where Theorem 1 accepts: %s", h,
                     reset.message().c_str());
    for (size_t v = 1; v <= frame->q(); ++v) {
      for (int64_t copy = 0; copy <= frame->CountT(v); ++copy) {
        const bool closed = checker.CandidateFeasible(v);
        const bool full = checker.CandidateFeasibleFull(v);
        MOCHE_FUZZ_CHECK(closed == full,
                         "h=%zu v=%zu after %zu accepts: closed form says "
                         "%d, full recursion %d",
                         h, v, checker.accepted_count(), closed, full);
        if (closed && checker.accepted_count() < h) checker.Accept(v);
      }
    }
    MOCHE_FUZZ_CHECK(checker.accepted_count() == h,
                     "greedy scan accepted %zu of h=%zu points",
                     checker.accepted_count(), h);
  }

  // The anchored frame keeps only the test values and the ends of the
  // reference-only runs; every decision must match the full frame's.
  std::vector<double> r_sorted = inst.reference;
  std::vector<double> t_sorted = inst.test;
  std::sort(r_sorted.begin(), r_sorted.end());
  std::sort(t_sorted.begin(), t_sorted.end());
  moche::CumulativeFrame anchored;
  moche::CumulativeFrame::BuildAnchoredInto(r_sorted, t_sorted, &anchored);
  MOCHE_FUZZ_CHECK(anchored.n() == n && anchored.m() == m &&
                       anchored.q() <= frame->q(),
                   "anchored frame n=%zu m=%zu q=%zu vs full q=%zu",
                   anchored.n(), anchored.m(), anchored.q(), frame->q());
  const moche::BoundsEngine anchored_engine(anchored, inst.alpha);
  moche::SizeScan full_walk(engine);
  moche::SizeScan anchored_walk(anchored_engine);
  moche::PartialExplanationChecker anchored_checker;
  for (size_t h = 0; h < m; ++h) {
    const bool full_exists = engine.ExistsQualified(h);
    MOCHE_FUZZ_CHECK(anchored_engine.ExistsQualified(h) == full_exists,
                     "anchored Theorem 1 differs at h=%zu", h);
    MOCHE_FUZZ_CHECK(anchored_engine.NecessaryCondition(h) ==
                         engine.NecessaryCondition(h),
                     "anchored Theorem 2 differs at h=%zu", h);
    MOCHE_FUZZ_CHECK(anchored_walk.ExistsQualified(h) ==
                         full_walk.ExistsQualified(h),
                     "anchored SizeScan differs at h=%zu", h);
    if (h == 0) continue;
    MOCHE_FUZZ_CHECK(checker.Reset(engine, h).ok() ==
                         anchored_checker.Reset(anchored_engine, h).ok(),
                     "anchored checker Reset differs at h=%zu", h);
  }
  return 0;
}

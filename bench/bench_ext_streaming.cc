// Extension bench (not a paper figure): the incremental KS detector
// (dos Reis et al. [17], src/ks/streaming.*) vs a from-scratch batch
// re-test on every arriving observation. This quantifies the substrate
// choice behind the streaming drift monitor (docs/ARCHITECTURE.md).
//
// Expected shape: the batch cost per update grows ~linearly in n+m (sort +
// merge). The detector's segment tree over the d distinct reference
// values costs O(log d) per update, with no dependence on the window size
// m; the crossover is immediate and the gap reaches 3-4 orders of
// magnitude by n = 1e5.

#include <algorithm>
#include <cstdio>
#include <deque>

#include "ks/ks_test.h"
#include "ks/streaming.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  using namespace moche;
  std::printf("=== Extension: incremental vs batch KS per stream update "
              "===\n\n");
  printf("%-10s %-10s %-14s %-14s %-8s\n", "n (ref)", "m (win)",
         "batch s/upd", "tree s/upd", "speedup");
  printf("------------------------------------------------------------\n");

  for (size_t scale : {1000u, 10000u, 100000u}) {
    Rng rng(scale);
    std::vector<double> reference(scale);
    for (double& v : reference) v = rng.Normal();
    const size_t window = scale / 5;
    const size_t updates = scale >= 100000 ? 50 : 500;

    // incremental
    auto stream = StreamingKs::Create(reference, window, 0.05);
    if (!stream.ok()) return 1;
    for (size_t i = 0; i < window; ++i) {
      (void)stream->Push(rng.Normal());
    }
    WallTimer tree_timer;
    for (size_t i = 0; i < updates; ++i) {
      (void)stream->Push(rng.Normal(0.5, 1.0));
      (void)stream->Drifted();
    }
    const double tree_per_update = tree_timer.Seconds() / updates;

    // batch: re-sort the window and recompute the statistic every update
    std::vector<double> ref_sorted = reference;
    std::sort(ref_sorted.begin(), ref_sorted.end());
    std::deque<double> win;
    for (size_t i = 0; i < window; ++i) win.push_back(rng.Normal());
    WallTimer batch_timer;
    for (size_t i = 0; i < updates; ++i) {
      win.pop_front();
      win.push_back(rng.Normal(0.5, 1.0));
      std::vector<double> sorted(win.begin(), win.end());
      std::sort(sorted.begin(), sorted.end());
      volatile double d = ks::StatisticSorted(ref_sorted, sorted);
      (void)d;
    }
    const double batch_per_update = batch_timer.Seconds() / updates;

    const std::string speedup =
        StrFormat("%.0fx", batch_per_update / tree_per_update);
    printf("%-10zu %-10zu %-14.3e %-14.3e %-8s\n", scale, window,
           batch_per_update, tree_per_update, speedup.c_str());
  }
  std::printf("\nBoth paths compute identical statistics "
              "(tests/ks/streaming_test.cc proves step equality).\n");
  return 0;
}

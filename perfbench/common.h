// Shared plumbing of perfbench: latency percentiles, the
// in-memory span tracer, metric records and the machine/build record.
//
// Everything here lives in the benchmark's own code. The library is only
// ever called through its public headers; spans are recorded around those
// calls, never inside them.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// A nearest-rank percentile of a sample set, with the evidence behind it.
struct Percentile {
  double percentile = 0.0;  ///< the percentile actually reported
  double value = 0.0;
  size_t samples = 0;       ///< size of the sample set
};

/// Nearest-rank percentile `p` in (0, 100] of `samples` (any order).
/// An empty set yields value 0 with samples 0.
Percentile NearestRank(std::vector<double> samples, int p);

/// The tail latency: the highest integer percentile in [50, 99] whose
/// nearest-rank value still has at least `kTailBeyond` samples strictly
/// ranked above it. With 1000 or more samples that is p99; smaller sets
/// fall back to a lower percentile, and a set too small for even the
/// median reports its maximum as percentile 100.
inline constexpr size_t kTailBeyond = 10;
Percentile TailPercentile(std::vector<double> samples);

double Median(std::vector<double> samples);
double Sum(const std::vector<double>& samples);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

inline constexpr int64_t kNoParent = -1;

/// One recorded span: a named interval around a call into a library layer.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = kNoParent;  ///< index of the enclosing span
  uint64_t request = 0;        ///< the instance or batch the span serves
};

/// Nanoseconds on the monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out once, when the run ends. A
/// disabled tracer records nothing, so the untraced run pays one branch
/// per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (kNoParent when disabled).
  int64_t Begin(const char* name, uint64_t request,
                int64_t parent = kNoParent) {
    if (!enabled_) return kNoParent;
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Records an already measured interval.
  int64_t Add(const char* name, uint64_t request, int64_t start_ns,
              int64_t end_ns, int64_t parent = kNoParent) {
    if (!enabled_) return kNoParent;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of a closed span, in ms.
  double DurationMs(int64_t id) const {
    const Span& span = spans_[static_cast<size_t>(id)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
  }

  /// Writes one line per span: name, request, parent, start, end, self
  /// (all times in ns relative to the first span). False on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span, in ns: its duration minus the part of its
/// interval covered by the union of its direct children (clipped to the
/// parent's interval, overlaps among children counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self times (ms) of every span called `name`, in recording order.
std::vector<double> SelfTimesMsOf(const std::vector<Span>& spans,
                                  const std::vector<int64_t>& self_ns,
                                  const std::string& name);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;       ///< observations behind the value (0 = n/a)
  double percentile = 0.0;  ///< for percentile metrics, which one
};

/// What one workload run reports back to main().
struct RunResult {
  uint64_t attempted = 0;  ///< timed public calls made
  uint64_t failed = 0;     ///< of which returned a non-OK Status
  std::vector<std::string> check_failures;  ///< the first few, for stderr
  size_t check_failure_count = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< record extras

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, double percentile = 0.0) {
    metrics.push_back(Metric{name, value, unit, samples, percentile});
  }
  void AddPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit) {
    Add(name, p.value, unit, p.samples, p.percentile);
  }
  void Fail(const std::string& what) {
    if (check_failures.size() < 20) check_failures.push_back(what);
    ++check_failure_count;
  }
};

/// The timed calls of one run. Each workload cycles a fixed input, so a
/// distinct call -- an instance, or a batch's position in the input cycle
/// -- runs several times; `key` names it.
struct CallLog {
  std::vector<uint32_t> key;
  std::vector<double> ms;
  std::vector<double> observations;  ///< observations the call handled

  void Add(uint32_t call, double call_ms, double call_observations) {
    key.push_back(call);
    ms.push_back(call_ms);
    observations.push_back(call_observations);
  }
};

/// The end-to-end metrics every workload reports from its untraced run:
/// set-up time (median of `setup_s`); latency p50 and tail over each
/// distinct call's median latency, so a machine stall that hits one
/// repetition of a call does not reach them; and observations and calls
/// per second of one pass over the distinct calls at those latencies.
void AddEndToEnd(const CallLog& log, const std::vector<double>& setup_s,
                 RunResult* result);

/// trace.overhead_ms.p50: p50 of the calls that carried a span minus p50
/// of the interleaved calls that did not.
void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms,
                      RunResult* result);

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch directory inside the checkout
};

// ---------------------------------------------------------------------------
// Machine and process
// ---------------------------------------------------------------------------

/// Peak resident set size of this process so far, in MB (getrusage).
double PeakRssMb();

/// CPU model name from /proc/cpuinfo, or "unknown".
std::string CpuModel();

/// Online processors.
size_t Nproc();

/// Moves the calling thread to the next CPU the process may use each time
/// `Step` finds `period_ns` elapsed, so a single-threaded run samples every
/// core instead of inheriting the speed of the one it started on: on a
/// shared 4-core VM the cores differed by up to 20% at one moment, and
/// which was slow changed from minute to minute. Restores the original
/// affinity when destroyed; a no-op where affinity cannot be read or set.
class CoreRotation {
 public:
  explicit CoreRotation(int64_t period_ns);
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Call between timed calls.
  void Step();

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;  // empty when inactive
  size_t next_ = 0;
  int64_t period_ns_;
  int64_t due_ns_ = 0;
};

/// FNV-1a over a 64-bit word stream, for result digests.
struct Digest {
  uint64_t state = 1469598103934665603ull;
  void Mix(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      state ^= (word >> (8 * b)) & 0xffu;
      state *= 1099511628211ull;
    }
  }
};

/// Compares `digest` with the one a previous run of the same workload and
/// seed stored under `out_dir`, storing it on first sight. False on a
/// mismatch (the workload is not deterministic in its seed).
bool DigestMatchesEarlierRun(const std::string& out_dir,
                             const std::string& key, uint64_t digest);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

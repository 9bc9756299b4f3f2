#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

Percentile NearestRank(std::vector<double> samples, int p) {
  Percentile out;
  out.percentile = p;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t n = samples.size();
  // 1-based nearest rank ceil(p * n / 100), in integer arithmetic.
  size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  return out;
}

Percentile TailPercentile(std::vector<double> samples) {
  const size_t n = samples.size();
  for (int p = 99; p >= 50; --p) {
    const size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
    if (rank >= 1 && n - rank >= kTailBeyond) {
      return NearestRank(std::move(samples), p);
    }
  }
  return NearestRank(std::move(samples), 100);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(),
                                         samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double v : samples) total += v;
  return total;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to [lo, hi].
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::vector<double> SelfTimesMsOf(const std::vector<Span>& spans,
                                  const std::vector<int64_t>& self_ns,
                                  const std::string& name) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      out.push_back(static_cast<double>(self_ns[i]) * 1e-6);
    }
  }
  return out;
}

namespace {

// One sample per distinct call: its median latency, and the observations
// it handles.
struct PerCall {
  std::vector<double> ms;
  std::vector<double> observations;
};

PerCall MedianPerCall(const CallLog& log) {
  std::vector<std::vector<double>> samples;
  std::vector<double> observations;
  for (size_t i = 0; i < log.ms.size(); ++i) {
    const size_t call = log.key[i];
    if (call >= samples.size()) {
      samples.resize(call + 1);
      observations.resize(call + 1);
    }
    samples[call].push_back(log.ms[i]);
    observations[call] = log.observations[i];
  }
  PerCall out;
  for (size_t call = 0; call < samples.size(); ++call) {
    if (samples[call].empty()) continue;
    out.ms.push_back(Median(std::move(samples[call])));
    out.observations.push_back(observations[call]);
  }
  return out;
}

}  // namespace

void AddEndToEnd(const CallLog& log, const std::vector<double>& setup_s,
                 RunResult* result) {
  result->Add("setup_s", Median(setup_s), "s", setup_s.size());
  const PerCall per_call = MedianPerCall(log);
  const size_t calls = per_call.ms.size();
  result->AddPercentile("call_ms.p50", NearestRank(per_call.ms, 50), "ms");
  result->AddPercentile("call_ms.p99", TailPercentile(per_call.ms), "ms");
  const double seconds = Sum(per_call.ms) * 1e-3;
  if (seconds <= 0.0) return;
  result->Add("obs_per_s", Sum(per_call.observations) / seconds, "obs/s",
              calls);
  result->Add("calls_per_s", static_cast<double>(calls) / seconds, "1/s",
              calls);
  result->notes.emplace_back("timed_calls", std::to_string(log.ms.size()));
}

void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms,
                      RunResult* result) {
  result->Add("trace.overhead_ms.p50",
              NearestRank(traced_ms, 50).value -
                  NearestRank(untraced_ms, 50).value,
              "ms", traced_ms.size() + untraced_ms.size(), 50);
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%lld\t%lld\t%lld\t%lld\n", i, s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

CoreRotation::CoreRotation(int64_t period_ns) : period_ns_(period_ns) {
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) cpus_.clear();
}

CoreRotation::~CoreRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CoreRotation::Step() {
  if (cpus_.empty()) return;
  const int64_t now = NowNs();
  if (now < due_ns_) return;
  due_ns_ = now + period_ns_;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  if (sched_setaffinity(0, sizeof(one), &one) != 0) cpus_.clear();
}

bool DigestMatchesEarlierRun(const std::string& out_dir,
                             const std::string& key, uint64_t digest) {
  const std::string path = out_dir + "/digest_" + key + ".txt";
  std::ostringstream text;
  text << std::hex << digest;
  std::ifstream in(path);
  std::string stored;
  if (in >> stored) return stored == text.str();
  std::ofstream out(path);
  out << text.str() << "\n";
  return true;
}

}  // namespace perfbench

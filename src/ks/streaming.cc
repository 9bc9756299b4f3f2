#include "ks/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace moche {

namespace {
// n * m bound: every score lies in [-2^53, 2^53], and the double conversion
// of a score and of n * m is exact.
constexpr uint64_t kMaxScoreProduct = uint64_t{1} << 53;
// Aggregate of the padding leaves past d: the identity of Combine. A
// shift by at most n * m keeps it inside int64.
constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t kPosInf = std::numeric_limits<int64_t>::max() / 4;
}  // namespace

StreamingKs::StreamingKs(size_t n, size_t window_size, double alpha)
    : n_(n), window_size_(window_size), alpha_(alpha) {}

StreamingKs::StreamingKs(StreamingKs&&) noexcept = default;
StreamingKs& StreamingKs::operator=(StreamingKs&&) noexcept = default;
StreamingKs::~StreamingKs() = default;

Result<StreamingKs> StreamingKs::Create(const std::vector<double>& reference,
                                        size_t window_size, double alpha) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  if (window_size == 0) {
    return Status::InvalidArgument("window size must be positive");
  }
  if (window_size > kMaxScoreProduct / reference.size()) {
    return Status::InvalidArgument(StrFormat(
        "reference size %zu times window size %zu exceeds 2^53",
        reference.size(), window_size));
  }
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  StreamingKs stream(reference.size(), window_size, alpha);

  stream.keys_ = reference;
  // moche-lint: allow(sort-doubles): ValidateSample screened the reference
  std::sort(stream.keys_.begin(), stream.keys_.end());
  // Leaf 0 (values below the smallest key) has base 0; leaf i + 1 holds
  // base = m * C_R(k_i), C_R counted before the duplicates are dropped.
  const int64_t m = static_cast<int64_t>(window_size);
  stream.leaves_.emplace_back();
  for (size_t i = 0; i < stream.keys_.size(); ++i) {
    if (i + 1 < stream.keys_.size() &&
        stream.keys_[i + 1] == stream.keys_[i]) {
      continue;
    }
    Leaf leaf;
    leaf.base = m * static_cast<int64_t>(i + 1);
    stream.leaves_.push_back(leaf);
  }
  stream.keys_.erase(std::unique(stream.keys_.begin(), stream.keys_.end()),
                     stream.keys_.end());
  stream.keys_.shrink_to_fit();
  stream.leaves_.shrink_to_fit();

  size_t size = 2;
  while (size < stream.leaves_.size()) size *= 2;
  stream.nodes_.resize(size);
  for (size_t p = size; --p > 0;) stream.Pull(p);
  return stream;
}

StreamingKs::Span StreamingKs::LeafSpan(size_t leaf) const {
  if (leaf >= leaves_.size()) return Span{kNegInf, kPosInf, 0};
  const Leaf& l = leaves_[leaf];
  const int64_t n = static_cast<int64_t>(n_);
  return Span{l.base - n * l.eq, l.base - n * (l.eq + l.gap), l.eq + l.gap};
}

StreamingKs::Span StreamingKs::Combine(const Span& left,
                                       const Span& right) const {
  const int64_t shift = static_cast<int64_t>(n_) * left.sum;
  return Span{std::max(left.max, right.max - shift),
              std::min(left.min, right.min - shift), left.sum + right.sum};
}

size_t StreamingKs::Count(double value, int64_t delta) {
  const size_t i = static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), value) - keys_.begin());
  if (i < keys_.size() && keys_[i] == value) {
    leaves_[i + 1].eq += delta;
    return i + 1;
  }
  // Strictly between keys[i - 1] and keys[i]: the gap of leaf i.
  leaves_[i].gap += delta;
  return i;
}

void StreamingKs::Pull(size_t p) {
  const size_t size = nodes_.size();
  nodes_[p] = 2 * p < size ? Combine(nodes_[2 * p], nodes_[2 * p + 1])
                           : Combine(LeafSpan(2 * p - size),
                                     LeafSpan(2 * p + 1 - size));
}

void StreamingKs::Refresh(size_t a, size_t b) {
  // Both leaves sit at the same depth, so the two paths merge for good.
  for (size_t p = (nodes_.size() + a) / 2, q = (nodes_.size() + b) / 2;
       p != 0; p /= 2, q /= 2) {
    Pull(p);
    if (q != p) Pull(q);
  }
}

Status StreamingKs::Push(double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("observation is not finite");
  }
  if (window_.size() < window_size_) {
    // Filling: the ring grows in arrival order and its head stays at 0.
    window_.push_back(value);
    const size_t leaf = Count(value, +1);
    Refresh(leaf, leaf);
    return Status::OK();
  }
  double& oldest = window_[window_head_];
  const size_t evicted = Count(oldest, -1);
  const size_t inserted = Count(value, +1);
  Refresh(evicted, inserted);
  oldest = value;
  window_head_ = (window_head_ + 1) % window_size_;
  return Status::OK();
}

void StreamingKs::SerializeStateTo(std::string* out) const {
  bin::AppendU64Le(static_cast<uint64_t>(n_), out);
  bin::AppendU64Le(static_cast<uint64_t>(window_size_), out);
  bin::AppendDoubleLe(alpha_, out);
  bin::AppendU64Le(static_cast<uint64_t>(window_.size()), out);
  for (size_t i = 0; i < window_.size(); ++i) {
    bin::AppendDoubleLe(window_[(window_head_ + i) % window_.size()], out);
  }
}

Result<StreamingKs> StreamingKs::DeserializeState(
    const std::vector<double>& reference, bin::Reader* reader) {
  uint64_t n = 0;
  uint64_t window_size = 0;
  double alpha = 0.0;
  uint64_t window_count = 0;
  if (!reader->ReadU64Le(&n) || !reader->ReadU64Le(&window_size) ||
      !reader->ReadDoubleLe(&alpha) || !reader->ReadU64Le(&window_count)) {
    return Status::InvalidArgument(
        "streaming detector: snapshot truncated in the state header");
  }
  if (n != reference.size()) {
    return Status::InvalidArgument(
        StrFormat("streaming detector: snapshot was taken over a reference "
                  "of %llu values, restore got %zu",
                  static_cast<unsigned long long>(n), reference.size()));
  }
  if (window_count > window_size) {
    return Status::InvalidArgument(StrFormat(
        "streaming detector: snapshot window holds %llu of %llu values",
        static_cast<unsigned long long>(window_count),
        static_cast<unsigned long long>(window_size)));
  }
  if (window_count > reader->remaining() / 8) {
    return Status::InvalidArgument(
        "streaming detector: snapshot truncated inside the window ring");
  }
  // Create re-validates the reference sample, window size (including the
  // n * m bound) and alpha, then replaying the ring in arrival order
  // rebuilds the tree's counts (a pure function of the multisets).
  MOCHE_ASSIGN_OR_RETURN(
      StreamingKs stream,
      Create(reference, static_cast<size_t>(window_size), alpha));
  for (uint64_t i = 0; i < window_count; ++i) {
    double value = 0.0;
    reader->ReadDoubleLe(&value);  // bounded above; cannot fail
    MOCHE_RETURN_IF_ERROR(stream.Push(value));
  }
  return stream;
}

std::vector<double> StreamingKs::WindowContents() const {
  std::vector<double> out;
  WindowContentsInto(&out);
  return out;
}

void StreamingKs::WindowContentsInto(std::vector<double>* out) const {
  out->clear();
  out->reserve(window_.size());
  for (size_t i = 0; i < window_.size(); ++i) {
    out->push_back(window_[(window_head_ + i) % window_.size()]);
  }
}

Result<KsOutcome> StreamingKs::CurrentOutcome() const {
  if (!WindowFull()) {
    return Status::InvalidArgument(
        StrFormat("window holds %zu of %zu observations", window_.size(),
                  window_size_));
  }
  const Span& root = nodes_[1];
  KsOutcome out;
  out.n = n_;
  out.m = window_size_;
  out.statistic =
      static_cast<double>(std::max(std::abs(root.max), std::abs(root.min))) /
      (static_cast<double>(n_) * static_cast<double>(window_size_));
  // alpha / sizes were validated by StreamingKs::Create.
  out.threshold = ks::internal::ThresholdUnchecked(alpha_, n_, window_size_);
  out.reject = out.statistic > out.threshold;
  return out;
}

bool StreamingKs::Drifted() const {
  if (!WindowFull()) return false;
  auto outcome = CurrentOutcome();
  return outcome.ok() && outcome->reject;
}

}  // namespace moche

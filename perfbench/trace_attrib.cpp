#include "trace_attrib.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace perfbench {

namespace obs = streamk::obs;

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorted, disjoint union of `intervals`.
std::vector<Interval> merge(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

/// Length of [a, b) inside the disjoint sorted `windows`.
std::int64_t overlap(const std::vector<Interval>& windows, std::int64_t a,
                     std::int64_t b) {
  if (b <= a) return 0;
  auto it = std::upper_bound(
      windows.begin(), windows.end(), a,
      [](std::int64_t t, const Interval& w) { return t < w.second; });
  std::int64_t total = 0;
  for (; it != windows.end() && it->first < b; ++it) {
    total += std::min(b, it->second) - std::max(a, it->first);
  }
  return total;
}

bool is_library_span(obs::EventKind kind) {
  switch (kind) {
    case obs::EventKind::kPlanCompile:
    case obs::EventKind::kPack:
    case obs::EventKind::kMacSegment:
    case obs::EventKind::kFixupWait:
    case obs::EventKind::kEpilogueApply:
    case obs::EventKind::kPoolTask:
    case obs::EventKind::kTunerFind:
    case obs::EventKind::kGemm:
      return true;
    default:
      return false;
  }
}

}  // namespace

void TraceAttribution::add_epoch(std::span<const obs::TraceSpan> spans) {
  std::vector<Interval> calls;
  std::map<std::uint32_t, std::vector<const obs::TraceSpan*>> by_thread;
  for (const obs::TraceSpan& s : spans) {
    if (s.kind == obs::EventKind::kBenchRegion) {
      calls.emplace_back(s.t0_ns, s.t1_ns);
    } else if (is_library_span(s.kind) && s.t1_ns > s.t0_ns) {
      by_thread[s.tid].push_back(&s);
    }
  }
  const std::vector<Interval> windows = merge(std::move(calls));
  for (const Interval& w : windows) {
    lane_ns_ += static_cast<double>(lanes_) * static_cast<double>(w.second - w.first);
  }

  auto bucket_of = [](obs::EventKind kind) {
    switch (kind) {
      case obs::EventKind::kMacSegment: return kMac;
      case obs::EventKind::kPack: return kPack;
      case obs::EventKind::kFixupWait: return kFixupWait;
      case obs::EventKind::kEpilogueApply: return kEpilogue;
      default: return kOtherBusy;
    }
  };

  // Spans of one thread nest (they are RAII scopes), so a sweep with a stack
  // labels every instant with its innermost open span.
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const obs::TraceSpan* x, const obs::TraceSpan* y) {
                return x->t0_ns != y->t0_ns ? x->t0_ns < y->t0_ns
                                            : x->t1_ns > y->t1_ns;
              });
    struct Open { std::int64_t end; Bucket bucket; };
    std::vector<Open> stack;
    std::int64_t cursor = 0;
    auto credit = [&](std::int64_t until) {
      bucket_ns_[stack.back().bucket] +=
          static_cast<double>(overlap(windows, cursor, until));
      cursor = until;
    };
    auto close_until = [&](std::int64_t t) {
      while (!stack.empty() && stack.back().end <= t) {
        credit(stack.back().end);
        stack.pop_back();
      }
    };
    for (const obs::TraceSpan* s : list) {
      close_until(s->t0_ns);
      if (!stack.empty()) credit(s->t0_ns);
      cursor = s->t0_ns;
      // A child never outlives its parent; clamp against clock jitter.
      const std::int64_t end =
          stack.empty() ? s->t1_ns : std::min(s->t1_ns, stack.back().end);
      stack.push_back({end, bucket_of(s->kind)});
    }
    close_until(std::numeric_limits<std::int64_t>::max());
  }
}

TraceShares TraceAttribution::shares() const {
  double busy = 0.0;
  for (const double b : bucket_ns_) busy += b;
  const double denom = std::max(lane_ns_, busy);
  TraceShares s;
  if (denom <= 0.0) return s;
  s.mac = bucket_ns_[kMac] / denom;
  s.pack = bucket_ns_[kPack] / denom;
  s.fixup_wait = bucket_ns_[kFixupWait] / denom;
  s.epilogue = bucket_ns_[kEpilogue] / denom;
  s.unattributed = bucket_ns_[kOtherBusy] / denom;
  s.pool_idle = (denom - busy) / denom;
  return s;
}

double TraceAttribution::lane_seconds() const { return lane_ns_ * 1e-9; }

}  // namespace perfbench

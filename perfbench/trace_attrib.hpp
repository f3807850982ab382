#pragma once

// Per-layer time attribution from the library's own trace spans.
//
// The traced run wraps every call in a benchmark span (obs kBenchRegion on
// the caller thread) and snapshots the trace rings in epochs.  Within the
// union of the call spans, each thread's time is labelled by its innermost
// library span: kMacSegment (MAC self time, its nested kPack children
// excluded), kPack, kFixupWait, kEpilogueApply, or any other library span
// (kGemm, kPoolTask, kPlanCompile, kTunerFind: busy but outside the leaf
// layers, "unattributed").  Lane time is nproc lanes times the union's
// length; what no library span covers is pool idle time.  The shares are
// raw span sums per lane, not obs::profile's imbalance statistic.

#include <cstddef>
#include <cstdint>
#include <span>

#include "obs/trace.hpp"

namespace perfbench {

struct TraceShares {
  double mac = 0.0;
  double pack = 0.0;
  double fixup_wait = 0.0;
  double epilogue = 0.0;
  double pool_idle = 0.0;
  double unattributed = 0.0;
};

class TraceAttribution {
 public:
  explicit TraceAttribution(std::size_t lanes) : lanes_(lanes) {}

  /// Accumulates one epoch's snapshot (obs::snapshot_trace()).
  void add_epoch(std::span<const streamk::obs::TraceSpan> spans);

  /// Shares of lane time; they sum to 1 whenever any call was traced.
  TraceShares shares() const;
  double lane_seconds() const;

 private:
  enum Bucket { kMac, kPack, kFixupWait, kEpilogue, kOtherBusy, kBuckets };

  std::size_t lanes_;
  double bucket_ns_[kBuckets] = {};
  double lane_ns_ = 0.0;
};

}  // namespace perfbench

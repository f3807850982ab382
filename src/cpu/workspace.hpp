#pragma once

// Fixup workspace: temporary partial-sum storage plus flags.
//
// Stream-K's communication structure (Algorithm 5): a CTA whose iteration
// range begins mid-tile stores its accumulators to a per-CTA partials slot
// in global memory and raises its flag; the tile's owner waits on each
// contributing CTA's flag and reduces the slots.  Storage is allocated only
// for CTAs that actually spill, so -- as the paper emphasizes -- temporary
// storage scales with the grid (O(p)), never with the problem output size.
//
// Synchronization uses one std::atomic<std::uint32_t> per spilling CTA: the
// store in signal() publishes the partials written before it; the acquire
// load in wait() makes them visible to the owner.  wait() blocks via C++20
// atomic waiting, so heavily oversubscribed executions (hundreds of CTAs on
// one hardware thread) make progress without spinning.
//
// The flag store is seq_cst, not release.  notify_all() skips the futex wake
// when its (seq_cst) load of the waiter count reads zero -- libstdc++ 12
// does exactly this.  A release store may be reordered after that load
// (store-load reordering is allowed, and happens on x86), so a waiter can
// register, re-check the flag, still read 0, and sleep while the signaller
// reads a zero waiter count and skips the wake: a lost wake-up that strands
// the tile owner forever.  A seq_cst store is totally ordered with the
// waiter-count load, which closes that window.
//
// A workspace is *rebindable*: bind(plan, tile_elements) re-derives the
// slot map and rearms the flags while reusing the existing buffer capacity,
// which is what lets runtime::WorkspacePool recycle workspaces across
// submissions instead of allocating per call.  Partials need no clearing on
// rebind or reset: a spilling CTA overwrites its whole slot before
// signalling.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/schedule_plan.hpp"
#include "util/check.hpp"

namespace streamk::cpu {

template <typename Acc>
class FixupWorkspace {
 public:
  /// Unbound workspace (for pooling); bind() before use.
  FixupWorkspace() = default;

  /// Adopts the plan's spill-slot assignment: one slot per CTA with a
  /// non-starting segment.  `tile_elements` is BLK_M * BLK_N.
  FixupWorkspace(const core::SchedulePlan& plan, std::int64_t tile_elements) {
    bind(plan, tile_elements);
  }

  /// Convenience overload: compiles `decomposition` for its slot layout.
  FixupWorkspace(const core::Decomposition& decomposition,
                 std::int64_t tile_elements) {
    bind(core::compile_plan(decomposition), tile_elements);
  }

  /// (Re)binds the workspace to `plan`: rebuilds the slot map, sizes the
  /// partials buffer, and rearms all flags.  Existing vector capacity is
  /// reused, so rebinding to a same-shaped plan allocates nothing.  The
  /// plan is not referenced after bind() returns.
  void bind(const core::SchedulePlan& plan, std::int64_t tile_elements) {
    plan.check_runnable();
    tile_elements_ = tile_elements;
    slot_count_ = plan.spill_slot_count();
    const std::int64_t grid = plan.grid();
    slot_of_cta_.resize(static_cast<std::size_t>(grid));
    for (std::int64_t cta = 0; cta < grid; ++cta) {
      slot_of_cta_[static_cast<std::size_t>(cta)] = plan.spill_slot(cta);
    }
    partials_.resize(static_cast<std::size_t>(slot_count_ * tile_elements_));
    if (flag_capacity_ < slot_count_ || !flags_) {
      const std::int64_t capacity = slot_count_ > 0 ? slot_count_ : 1;
      flags_ = std::make_unique<std::atomic<std::uint32_t>[]>(
          static_cast<std::size_t>(capacity));
      flag_capacity_ = capacity;
    }
    reset();
  }

  std::int64_t slot_count() const { return slot_count_; }

  bool cta_spills(std::int64_t cta) const {
    return slot_of_cta_[static_cast<std::size_t>(cta)] >= 0;
  }

  /// The partials buffer of a spilling CTA.
  std::span<Acc> partials(std::int64_t cta) {
    const std::int64_t slot = slot_of_cta_[static_cast<std::size_t>(cta)];
    util::check(slot >= 0, "CTA has no partials slot");
    return std::span<Acc>(
        partials_.data() + static_cast<std::size_t>(slot * tile_elements_),
        static_cast<std::size_t>(tile_elements_));
  }

  /// Publishes `cta`'s partials and wakes waiters.  The store is seq_cst so
  /// notify_all() cannot miss a waiter (see the header comment).
  void signal(std::int64_t cta) {
    const std::int64_t slot = slot_of_cta_[static_cast<std::size_t>(cta)];
    util::check(slot >= 0, "signal from CTA without slot");
    auto& flag = flags_[static_cast<std::size_t>(slot)];
    flag.store(1, std::memory_order_seq_cst);
    flag.notify_all();
  }

  /// Blocks until `cta`'s partials are published (acquire).  Returns the
  /// number of blocking iterations taken (0 = the flag was already up), so
  /// callers can report fixup contention without this header knowing about
  /// the telemetry layer.
  std::int64_t wait(std::int64_t cta) {
    const std::int64_t slot = slot_of_cta_[static_cast<std::size_t>(cta)];
    util::check(slot >= 0, "wait on CTA without slot");
    auto& flag = flags_[static_cast<std::size_t>(slot)];
    std::int64_t wakeups = 0;
    std::uint32_t observed = flag.load(std::memory_order_acquire);
    while (observed == 0) {
      flag.wait(0, std::memory_order_acquire);
      observed = flag.load(std::memory_order_acquire);
      ++wakeups;
    }
    return wakeups;
  }

  /// Rearms all flags (partials contents need no clearing; spilling CTAs
  /// overwrite their slot before signalling).
  void reset() {
    for (std::int64_t s = 0; s < slot_count_; ++s) {
      flags_[static_cast<std::size_t>(s)].store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::int64_t tile_elements_ = 0;
  std::int64_t slot_count_ = 0;
  std::int64_t flag_capacity_ = 0;
  std::vector<std::int64_t> slot_of_cta_;
  std::vector<Acc> partials_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> flags_;
};

}  // namespace streamk::cpu

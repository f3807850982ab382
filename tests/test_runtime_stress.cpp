// Concurrency stress suite for the persistent worker-pool runtime.
//
// The paper's claim is that a fixed pool of persistent workers absorbs any
// work distribution; this suite hammers the host-side realization of that
// claim: N submitter threads pushing randomized shapes across all five
// decomposition kinds through the one shared pool, every result checked
// against the sequential reference; oversubscription (a spilling Stream-K
// grid far larger than the pool); a lost-wake-up regression on the fixup
// flag; the serial workers == 1 descending-order determinism guarantee; and
// pool/workspace lifecycle (exceptions rethrown at the handle, restart after
// shutdown, FixupWorkspace reuse).
//
// Runs under ASan/UBSan and the TSan CI job -- the flag ordering of the
// fixup protocol and the region close/cancel protocol are exactly what
// TSan is here to referee.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "conv/implicit_gemm.hpp"
#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "cpu/batched.hpp"
#include "cpu/blas.hpp"
#include "cpu/decomposed_runner.hpp"
#include "cpu/executor.hpp"
#include "cpu/gemm.hpp"
#include "cpu/reference.hpp"
#include "cpu/workspace.hpp"
#include "runtime/gemm_runtime.hpp"
#include "runtime/workspace_pool.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace streamk {
namespace {

struct StressCase {
  core::GemmShape shape;
  cpu::GemmOptions options;
  std::string label;
};

/// One randomized case: shape, one of the five decomposition kinds, and a
/// worker count spanning inline, matched, and oversubscribed regimes.
StressCase random_case(util::Pcg32& rng) {
  static const core::GemmShape kShapes[] = {
      {64, 64, 64}, {65, 63, 33},  {96, 96, 96},
      {32, 32, 384}, {7, 201, 95}, {128, 128, 512},
  };
  StressCase c;
  c.shape = kShapes[rng.uniform_below(6)];
  c.options.block = {32, 32, 16};
  c.options.workers = static_cast<std::size_t>(rng.uniform_int(1, 8));
  switch (rng.uniform_below(5)) {
    case 0:
      c.options.schedule = cpu::Schedule::kDataParallel;
      c.label = "dp";
      break;
    case 1:
      c.options.schedule = cpu::Schedule::kFixedSplit;
      c.options.split = rng.uniform_int(2, 3);
      c.label = "split";
      break;
    case 2:
      c.options.schedule = cpu::Schedule::kStreamK;
      c.options.grid = rng.uniform_int(2, 16);
      c.label = "sk";
      break;
    case 3:
      c.options.schedule = cpu::Schedule::kHybridOneTile;
      c.label = "hy1";
      break;
    default:
      c.options.schedule = cpu::Schedule::kHybridTwoTile;
      c.label = "hy2";
      break;
  }
  return c;
}

// ------------------------------------------------------- concurrent stress

TEST(RuntimeStress, ConcurrentSubmittersAllKindsMatchReference) {
  constexpr int kSubmitters = 4;
  constexpr int kIterations = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([t, &failures] {
      util::Pcg32 rng(1234u + static_cast<std::uint64_t>(t));
      for (int iter = 0; iter < kIterations; ++iter) {
        const StressCase c = random_case(rng);
        cpu::Matrix<double> a(c.shape.m, c.shape.k);
        cpu::Matrix<double> b(c.shape.k, c.shape.n);
        cpu::Matrix<double> out(c.shape.m, c.shape.n);
        cpu::fill_random_int(a, rng);
        cpu::fill_random_int(b, rng);

        cpu::Matrix<double> expected(c.shape.m, c.shape.n);
        cpu::reference_gemm<double, double, double>(a, b, expected,
                                                    c.options.block);

        runtime::GemmHandle handle =
            runtime::submit_gemm(a, b, out, c.options);
        const cpu::GemmReport report = handle.get();
        if (report.grid <= 0 ||
            !testing::bitwise_equal(expected, out)) {
          failures.fetch_add(1);
          ADD_FAILURE() << "submitter " << t << " iter " << iter << " ["
                        << c.label << "] diverged from reference";
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RuntimeStress, MixedFrontEndsInFlightTogether) {
  // One submission of every front end concurrently in flight on the shared
  // pool: plain GEMM, transposed dgemm, batched GEMM, and implicit-GEMM
  // convolution, gathered out of order.
  util::Pcg32 rng(77);

  // Plain GEMM (Stream-K forced, spilling grid).
  const core::GemmShape gs{96, 96, 96};
  cpu::Matrix<double> ga(gs.m, gs.k), gb(gs.k, gs.n), gc(gs.m, gs.n);
  cpu::fill_random_int(ga, rng);
  cpu::fill_random_int(gb, rng);
  cpu::GemmOptions gemm_opts;
  gemm_opts.schedule = cpu::Schedule::kStreamK;
  gemm_opts.grid = 7;
  gemm_opts.block = {32, 32, 16};
  gemm_opts.workers = 4;

  // Transposed dgemm.
  cpu::Matrix<double> ta(gs.k, gs.m), tb(gs.n, gs.k), tc(gs.m, gs.n);
  cpu::fill_random_int(ta, rng);
  cpu::fill_random_int(tb, rng);

  // Batched GEMM.
  const cpu::BatchedShape batched{3, {50, 44, 60}};
  std::vector<cpu::Matrix<double>> as, bs, cs;
  for (std::int64_t e = 0; e < batched.batch; ++e) {
    as.emplace_back(batched.shape.m, batched.shape.k);
    bs.emplace_back(batched.shape.k, batched.shape.n);
    cs.emplace_back(batched.shape.m, batched.shape.n);
    cpu::fill_random_int(as.back(), rng);
    cpu::fill_random_int(bs.back(), rng);
  }
  cpu::GemmOptions batched_opts;
  batched_opts.block = {32, 32, 16};
  batched_opts.workers = 3;

  // Implicit-GEMM convolution.
  conv::ConvShape conv;
  conv.batch = 1;
  conv.height = 8;
  conv.width = 8;
  conv.in_channels = 3;
  conv.out_channels = 4;
  conv.filter_h = 3;
  conv.filter_w = 3;
  conv.pad = 1;
  conv::Tensor4<double> input(conv.batch, conv.height, conv.width,
                              conv.in_channels);
  conv::Tensor4<double> filter(conv.out_channels, conv.filter_h,
                               conv.filter_w, conv.in_channels);
  conv::Tensor4<double> output(conv.batch, conv.out_h(), conv.out_w(),
                               conv.out_channels);
  util::Pcg32 conv_rng(5);
  for (double& v : input.data()) {
    v = static_cast<double>(conv_rng.uniform_int(-3, 3));
  }
  for (double& v : filter.data()) {
    v = static_cast<double>(conv_rng.uniform_int(-3, 3));
  }
  cpu::GemmOptions conv_opts;
  conv_opts.workers = 2;

  // Submit everything before gathering anything.
  runtime::GemmHandle h_gemm = runtime::submit_gemm(ga, gb, gc, gemm_opts);
  runtime::GemmHandle h_blas =
      runtime::submit_dgemm(cpu::Trans::kTranspose, cpu::Trans::kTranspose,
                            1.0, ta, tb, 0.0, tc, gemm_opts);
  runtime::GemmHandle h_batched =
      runtime::submit_batched_gemm(as, bs, cs, batched_opts);
  runtime::GemmHandle h_conv =
      runtime::submit_conv_forward(conv, input, filter, output, conv_opts);

  // Gather in reverse submission order.
  EXPECT_GT(h_conv.get().tiles, 0);
  EXPECT_GT(h_batched.get().tiles, 0);
  EXPECT_GT(h_blas.get().tiles, 0);
  EXPECT_GT(h_gemm.get().tiles, 0);

  // Verify every result.
  cpu::Matrix<double> expected(gs.m, gs.n);
  cpu::reference_gemm<double, double, double>(ga, gb, expected,
                                              gemm_opts.block);
  EXPECT_TRUE(testing::bitwise_equal(expected, gc));

  cpu::Matrix<double> t_expected(gs.m, gs.n);
  for (std::int64_t i = 0; i < gs.m; ++i) {
    for (std::int64_t j = 0; j < gs.n; ++j) {
      double sum = 0.0;
      for (std::int64_t l = 0; l < gs.k; ++l) {
        sum += ta.at(l, i) * tb.at(j, l);
      }
      t_expected.at(i, j) = sum;
    }
  }
  EXPECT_LT(testing::max_abs_diff(t_expected, tc), 1e-9);

  for (std::size_t e = 0; e < cs.size(); ++e) {
    cpu::Matrix<double> be(batched.shape.m, batched.shape.n);
    cpu::reference_gemm<double, double, double>(as[e], bs[e], be,
                                                batched_opts.block);
    EXPECT_TRUE(testing::bitwise_equal(be, cs[e])) << "batch entry " << e;
  }

  conv::Tensor4<double> direct(conv.batch, conv.out_h(), conv.out_w(),
                               conv.out_channels);
  conv::direct_conv<double, double, double>(conv, input, filter, direct);
  for (std::size_t i = 0; i < direct.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(direct.data()[i], output.data()[i]);
  }
}

// ------------------------------------------------------- oversubscription

TEST(RuntimeStress, SpillingGridFarExceedsPoolSize) {
  // A 64-CTA Stream-K schedule (every CTA spilling or waiting) on a pool of
  // two workers: progress relies on descending claims + blocking waits, and
  // the region must absorb the 32x oversubscription.
  runtime::global_pool().restart(2);

  const core::GemmShape shape{128, 128, 256};
  util::Pcg32 rng(42);
  cpu::Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
  cpu::Matrix<double> c(shape.m, shape.n);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kStreamK;
  options.block = {32, 32, 16};
  options.grid = 64;
  options.workers = 64;

  const cpu::GemmReport report =
      runtime::submit_gemm(a, b, c, options).get();
  EXPECT_EQ(report.grid, 64);
  EXPECT_GT(report.spills, 0) << "case must exercise the fixup protocol";

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected, options.block);
  EXPECT_TRUE(testing::bitwise_equal(expected, c));

  runtime::global_pool().restart();
}

// ------------------------------------------------------- fixup wake-up

TEST(RuntimeStress, FixupSignalNeverLosesWakeup) {
  // Regression for a lost wake-up: FixupWorkspace::signal stored its flag
  // with release ordering, which lets the store slip past notify_all()'s
  // waiter-count check, so an owner that went to sleep in between was never
  // woken.  The smallest problem that races a signal against a blocked
  // owner -- one tile, Stream-K grid 3 (two spilling CTAs), four workers --
  // is looped on a runner thread while this thread watches its progress: a
  // call that stops finishing is reported as a failure and the process
  // exits non-zero instead of hanging the suite.
  const core::GemmShape shape{32, 32, 96};
  const core::WorkMapping mapping(shape, {32, 32, 16});
  const core::SchedulePlan plan =
      core::compile_plan(core::StreamKBasic(mapping, 3));
  ASSERT_EQ(plan.spill_slot_count(), 2);

  util::Pcg32 rng(11);
  cpu::Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
  cpu::Matrix<double> c(shape.m, shape.n);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);

  // Bounded both ways: enough calls to hit the race on a few-core host
  // within a few seconds, and a time cap for slow sanitizer builds.
  constexpr std::int64_t kMaxCalls = 200'000;
  constexpr auto kBudget = std::chrono::seconds(3);
  constexpr auto kStall = std::chrono::seconds(20);

  std::atomic<std::int64_t> calls{0};
  std::atomic<bool> done{false};
  std::thread runner([&] {
    const auto stop = std::chrono::steady_clock::now() + kBudget;
    while (calls.load(std::memory_order_relaxed) < kMaxCalls &&
           std::chrono::steady_clock::now() < stop) {
      cpu::execute_plan<double, double, double>(plan, a, b, c,
                                                {.workers = 4});
      calls.fetch_add(1, std::memory_order_relaxed);
    }
    done.store(true, std::memory_order_release);
  });

  std::int64_t last = -1;
  auto last_progress = std::chrono::steady_clock::now();
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::int64_t now_calls = calls.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (now_calls != last) {
      last = now_calls;
      last_progress = now;
    } else if (now - last_progress > kStall) {
      // The stalled call can never return, so neither can the runner be
      // joined nor the pool shut down: fail loudly and leave.
      ADD_FAILURE() << "fixup wait stalled after " << now_calls
                    << " calls: lost wake-up";
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  runner.join();
  EXPECT_GT(calls.load(), 0);

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected,
                                              mapping.block());
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

// ------------------------------------------------------- serial determinism

TEST(RuntimeStress, SerialWorkerDescendingOrderIsDeterministic) {
  // Real-valued fill so floating-point reduction order matters: the serial
  // workers == 1 path must claim CTAs in descending order, making repeated
  // runs bitwise identical.
  const core::GemmShape shape{96, 96, 192};
  util::Pcg32 rng(7);
  cpu::Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
  cpu::fill_random(a, rng);
  cpu::fill_random(b, rng);

  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kStreamK;
  options.block = {32, 32, 16};
  options.grid = 5;
  options.workers = 1;

  cpu::Matrix<double> first(shape.m, shape.n);
  cpu::Matrix<double> second(shape.m, shape.n);
  runtime::submit_gemm(a, b, first, options).get();
  runtime::submit_gemm(a, b, second, options).get();
  EXPECT_TRUE(testing::bitwise_equal(first, second));

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected, options.block);
  EXPECT_LT(testing::max_abs_diff(expected, first), 1e-9);
}

// ------------------------------------------------------- lifecycle

TEST(RuntimeLifecycle, SubmittedExceptionRethrownAtHandleNotTerminate) {
  // Non-conforming operands: the check fires inside the pool job; the
  // exception must surface at the handle, not std::terminate the worker.
  cpu::Matrix<double> a(8, 8), b(8, 8);
  cpu::Matrix<double> wrong(8, 9);
  runtime::GemmHandle handle = runtime::submit_gemm(a, b, wrong);
  EXPECT_THROW(handle.get(), util::CheckError);

  // The pool survives and keeps serving work.
  util::Pcg32 rng(3);
  cpu::Matrix<double> c(8, 8), expected(8, 8);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);
  runtime::submit_gemm(a, b, c).get();
  cpu::reference_gemm<double, double, double>(a, b, expected,
                                              cpu::default_cpu_block(
                                                  gpu::Precision::kFp64));
  EXPECT_TRUE(testing::bitwise_equal(expected, c));
}

TEST(RuntimeLifecycle, SpillerExceptionReleasesFixupWaitersAndPropagates) {
  // A spilling CTA whose MAC functor throws must still raise its flag, or
  // the tile owner's workspace.wait() would hang the region forever; the
  // exception -- not the garbage partials -- is what reaches the caller.
  const core::GemmShape shape{32, 32, 256};
  const core::WorkMapping mapping(shape, {32, 32, 16});
  const core::StreamKBasic sk(mapping, 4);  // 4 CTAs sharing one tile
  const core::SchedulePlan plan = core::compile_plan(sk);
  ASSERT_GT(plan.spill_slot_count(), 0);

  cpu::ExecutorOptions options;
  options.workers = 4;
  EXPECT_THROW(
      cpu::run_decomposed<double>(
          plan, mapping.block().tile_elements(),
          [](const core::TileSegment& seg, std::span<double>,
             cpu::MacScratch<double>&, cpu::PanelCache<double>*) {
            if (!seg.starts_tile()) throw std::runtime_error("spiller died");
          },
          [](std::int64_t, std::span<const double>) {}, options),
      std::runtime_error);
}

TEST(RuntimeLifecycle, GlobalPoolShutdownDegradesThenRestartServes) {
  util::Pcg32 rng(9);
  const core::GemmShape shape{64, 64, 64};
  cpu::Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);
  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::GemmOptions options;
  options.block = {32, 32, 16};
  options.workers = 4;
  cpu::reference_gemm<double, double, double>(a, b, expected, options.block);

  runtime::global_pool().shutdown();
  {
    // Degraded mode: everything runs inline on this thread, still correct.
    cpu::Matrix<double> c(shape.m, shape.n);
    runtime::submit_gemm(a, b, c, options).get();
    EXPECT_TRUE(testing::bitwise_equal(expected, c));
  }

  runtime::global_pool().restart(4);
  EXPECT_EQ(runtime::global_pool().thread_count(), 4u);
  {
    cpu::Matrix<double> c(shape.m, shape.n);
    runtime::submit_gemm(a, b, c, options).get();
    EXPECT_TRUE(testing::bitwise_equal(expected, c));
  }
  runtime::global_pool().restart();
}

TEST(RuntimeLifecycle, FixupWorkspaceResetAndRebindReuse) {
  // Direct protocol-level check of the reuse path WorkspacePool exercises:
  // signal/wait, reset rearms, rebinding to a same-shaped plan reuses the
  // object and rearms again.
  const core::GemmShape shape{64, 64, 256};
  const core::WorkMapping mapping(shape, {32, 32, 16});
  const core::StreamKBasic sk(mapping, 6);
  const core::SchedulePlan plan = core::compile_plan(sk);
  ASSERT_GT(plan.spill_slot_count(), 0);

  cpu::FixupWorkspace<double> workspace(plan, 32 * 32);
  std::int64_t spiller = -1;
  for (std::int64_t cta = 0; cta < plan.grid(); ++cta) {
    if (workspace.cta_spills(cta)) {
      spiller = cta;
      break;
    }
  }
  ASSERT_GE(spiller, 0);

  workspace.partials(spiller)[0] = 1.5;
  workspace.signal(spiller);
  workspace.wait(spiller);  // returns immediately: flag raised
  EXPECT_EQ(workspace.partials(spiller)[0], 1.5);

  workspace.reset();
  workspace.signal(spiller);  // rearmed flag can be raised again
  workspace.wait(spiller);

  workspace.bind(plan, 32 * 32);  // rebind = fresh flags, reused buffers
  workspace.signal(spiller);
  workspace.wait(spiller);
}

TEST(RuntimeLifecycle, WorkspacePoolReusedAcrossBackToBackSubmissions) {
  const core::GemmShape shape{96, 96, 96};
  util::Pcg32 rng(21);
  cpu::Matrix<double> a(shape.m, shape.k), b(shape.k, shape.n);
  cpu::fill_random_int(a, rng);
  cpu::fill_random_int(b, rng);
  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kStreamK;
  options.grid = 6;
  options.block = {32, 32, 16};
  options.workers = 3;

  cpu::Matrix<double> expected(shape.m, shape.n);
  cpu::reference_gemm<double, double, double>(a, b, expected, options.block);

  cpu::Matrix<double> first(shape.m, shape.n);
  runtime::submit_gemm(a, b, first, options).get();
  const std::size_t pooled =
      runtime::WorkspacePool<double>::instance().pooled_count();
  EXPECT_GE(pooled, 1u);

  // The same-shaped follow-up leases the recycled workspace back out; the
  // free list must not grow.
  cpu::Matrix<double> second(shape.m, shape.n);
  runtime::submit_gemm(a, b, second, options).get();
  EXPECT_LE(runtime::WorkspacePool<double>::instance().pooled_count(),
            pooled);

  EXPECT_TRUE(testing::bitwise_equal(expected, first));
  EXPECT_TRUE(testing::bitwise_equal(expected, second));
}

}  // namespace
}  // namespace streamk

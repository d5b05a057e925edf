//===- bench/bench_fig8.cpp - Figure 8 reproduction --------------------------===//
//
// Reproduces Figure 8 of the paper: relative median kernel runtimes of
// handwritten implementations vs the code generated by the Descend
// compiler, for four benchmarks (Reduce, Transpose, Scan, MM) at three
// footprint sizes each.
//
// Both sides are compiled by the same host compiler and run on the same
// simulator substrate; the Descend side was generated at build time by
// descendc --emit=sim from kernels/*.descend (see DESIGN.md for the
// substitution rationale). The paper's claim is that Descend's safety
// layer is fully erased at compile time, so the ratio should be ~1.
//
// Output: one row per (benchmark, size) with median times and the
// CUDA/Descend relative runtime the figure plots (higher = Descend
// faster).
//
//===----------------------------------------------------------------------===//

#include "bench/handwritten.h"

// Generated kernels, three instantiations each (suffix = footprint).
#include "gen_fig8_matmul_large.h"
#include "gen_fig8_matmul_medium.h"
#include "gen_fig8_matmul_small.h"
#include "gen_fig8_reduce_large.h"
#include "gen_fig8_reduce_medium.h"
#include "gen_fig8_reduce_small.h"
#include "gen_fig8_scan_large.h"
#include "gen_fig8_scan_medium.h"
#include "gen_fig8_scan_small.h"
#include "gen_fig8_transpose_large.h"
#include "gen_fig8_transpose_medium.h"
#include "gen_fig8_transpose_small.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

using namespace descend;
using sim::GpuDevice;

namespace {

/// Paired, interleaved measurement: alternating A/B repetitions cancel
/// machine drift between the two medians, and the order within a pair
/// alternates too (A first on even repetitions, B first on odd ones), so
/// neither side always runs on the caches and worker wake-up state the
/// other left behind.
struct Paired {
  double AMs = 0, BMs = 0;
};

Paired medianPairMs(const std::function<void()> &A,
                    const std::function<void()> &B, int Reps) {
  std::vector<double> TA, TB;
  TA.reserve(Reps);
  TB.reserve(Reps);
  A();
  B(); // warm-up
  auto TimeMs = [](const std::function<void()> &F) {
    auto T0 = std::chrono::steady_clock::now();
    F();
    auto T1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(T1 - T0).count();
  };
  for (int I = 0; I != Reps; ++I) {
    if (I % 2 == 0) {
      TA.push_back(TimeMs(A));
      TB.push_back(TimeMs(B));
    } else {
      TB.push_back(TimeMs(B));
      TA.push_back(TimeMs(A));
    }
  }
  std::sort(TA.begin(), TA.end());
  std::sort(TB.begin(), TB.end());
  return Paired{TA[TA.size() / 2], TB[TB.size() / 2]};
}

bool nearlyEqual(const double *A, const double *B, size_t N) {
  for (size_t I = 0; I != N; ++I)
    if (std::abs(A[I] - B[I]) > 1e-6 * (1.0 + std::abs(A[I])))
      return false;
  return true;
}

struct Row {
  const char *Bench;
  const char *Size;
  double CudaMs;
  double DescendMs;
  std::string CountersJson; ///< one counted (untimed) generated run
};

std::vector<Row> Rows;

void report(const char *Bench, const char *Size, double HandMs,
            double GenMs, std::string CountersJson) {
  Rows.push_back(Row{Bench, Size, HandMs, GenMs, std::move(CountersJson)});
}

/// Runs \p Gen once with perf counters on (strictly after the timed
/// repetitions, so the counting branch never sits in a measured loop)
/// and returns the launch-stats JSON for the BENCH_*.json row.
template <typename GenFn>
std::string countedRunJson(GpuDevice &Dev, GenFn &&Gen) {
  Dev.setCounters(true);
  Gen();
  sim::LaunchStats LS = Dev.totalStats();
  Dev.setCounters(false);
  Dev.resetStats();
  return LS.json();
}

int repsFor(const char *Size) {
  // The paper ran 100 repetitions per configuration; we keep that for the
  // small/medium footprints and reduce it for large ones to keep the
  // total wall time reasonable on the simulator (medians are stable).
  if (std::string(Size) == "large")
    return 31;
  return 101;
}

//===----------------------------------------------------------------------===//
// Transpose
//===----------------------------------------------------------------------===//

template <typename GenFn>
void runTranspose(const char *Size, unsigned N, GenFn Gen) {
  GpuDevice Dev;
  auto In = Dev.alloc<double>((size_t)N * N);
  auto OutH = Dev.alloc<double>((size_t)N * N);
  auto OutG = Dev.alloc<double>((size_t)N * N);
  for (size_t I = 0; I != (size_t)N * N; ++I)
    In.data()[I] = static_cast<double>(I % 1013);

  hand::transpose(Dev, In, OutH, N);
  Gen(Dev, In, OutG);
  if (!nearlyEqual(OutH.data(), OutG.data(), (size_t)N * N)) {
    std::fprintf(stderr, "transpose %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  Paired P = medianPairMs([&] { hand::transpose(Dev, In, OutH, N); },
                          [&] { Gen(Dev, In, OutG); }, repsFor(Size));
  report("Transpose", Size, P.AMs, P.BMs,
         countedRunJson(Dev, [&] { Gen(Dev, In, OutG); }));
}

//===----------------------------------------------------------------------===//
// Reduce
//===----------------------------------------------------------------------===//

template <typename GenFn>
void runReduce(const char *Size, unsigned NB, GenFn Gen) {
  GpuDevice Dev;
  auto In = Dev.alloc<double>((size_t)NB * 256);
  auto OutH = Dev.alloc<double>(NB);
  auto OutG = Dev.alloc<double>(NB);
  for (size_t I = 0; I != (size_t)NB * 256; ++I)
    In.data()[I] = static_cast<double>(I % 89) * 0.5;

  hand::reduce(Dev, In, OutH, NB);
  Gen(Dev, In, OutG);
  if (!nearlyEqual(OutH.data(), OutG.data(), NB)) {
    std::fprintf(stderr, "reduce %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  Paired P = medianPairMs([&] { hand::reduce(Dev, In, OutH, NB); },
                          [&] { Gen(Dev, In, OutG); }, repsFor(Size));
  report("Reduce", Size, P.AMs, P.BMs,
         countedRunJson(Dev, [&] { Gen(Dev, In, OutG); }));
}

//===----------------------------------------------------------------------===//
// Scan (two kernels, host scanning the block totals in between — the
// paper measures from the start of the first to the end of the second)
//===----------------------------------------------------------------------===//

template <typename ScanFn, typename AddFn>
void runScan(const char *Size, unsigned NB, ScanFn GenScan, AddFn GenAdd) {
  GpuDevice Dev;
  const size_t N = (size_t)NB * 256;
  auto In = Dev.alloc<double>(N);
  auto OutH = Dev.alloc<double>(N);
  auto OutG = Dev.alloc<double>(N);
  auto Sums = Dev.alloc<double>(NB);
  auto Offsets = Dev.alloc<double>(NB);
  for (size_t I = 0; I != N; ++I)
    In.data()[I] = static_cast<double>(I % 31) * 0.25;

  auto HostScanTotals = [&] {
    double Acc = 0;
    for (unsigned B = 0; B != NB; ++B) {
      Acc += Sums.data()[B];
      Offsets.data()[B] = Acc;
    }
  };
  auto RunHand = [&] {
    hand::scanBlocks(Dev, In, OutH, Sums, NB);
    HostScanTotals();
    hand::addSums(Dev, OutH, Offsets, NB);
  };
  auto RunGen = [&] {
    GenScan(Dev, In, OutG, Sums);
    HostScanTotals();
    GenAdd(Dev, OutG, Offsets);
  };

  RunHand();
  RunGen();
  if (!nearlyEqual(OutH.data(), OutG.data(), N)) {
    std::fprintf(stderr, "scan %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  Paired P = medianPairMs(RunHand, RunGen, repsFor(Size));
  // Two launches per generated run; the counted JSON merges both.
  report("Scan", Size, P.AMs, P.BMs, countedRunJson(Dev, RunGen));
}

//===----------------------------------------------------------------------===//
// Matrix multiplication
//===----------------------------------------------------------------------===//

template <typename GenFn>
void runMatmul(const char *Size, unsigned NT, GenFn Gen) {
  GpuDevice Dev;
  const unsigned N = NT * 16;
  auto A = Dev.alloc<double>((size_t)N * N);
  auto B = Dev.alloc<double>((size_t)N * N);
  auto CH = Dev.alloc<double>((size_t)N * N);
  auto CG = Dev.alloc<double>((size_t)N * N);
  for (size_t I = 0; I != (size_t)N * N; ++I) {
    A.data()[I] = static_cast<double>((I * 7) % 13) - 6.0;
    B.data()[I] = static_cast<double>((I * 11) % 9) - 4.0;
  }

  hand::matmul(Dev, A, B, CH, NT);
  Gen(Dev, A, B, CG);
  if (!nearlyEqual(CH.data(), CG.data(), (size_t)N * N)) {
    std::fprintf(stderr, "matmul %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  int Reps = std::string(Size) == "large" ? 11 : 31;
  Paired P = medianPairMs([&] { hand::matmul(Dev, A, B, CH, NT); },
                          [&] { Gen(Dev, A, B, CG); }, Reps);
  report("MM", Size, P.AMs, P.BMs,
         countedRunJson(Dev, [&] { Gen(Dev, A, B, CG); }));
}

} // namespace

int main() {
  std::printf("Figure 8 reproduction: handwritten vs Descend-generated "
              "kernels on the GPU simulator\n");
  std::printf("(relative runtime = CUDA/Descend; 1.0 = equal, the paper "
              "reports |1 - r| < 3%%)\n\n");

  runReduce("small", 16384, descend::gen::reduce_small);
  runReduce("medium", 32768, descend::gen::reduce_medium);
  runReduce("large", 65536, descend::gen::reduce_large);

  runTranspose("small", 1024, descend::gen::transpose_small);
  runTranspose("medium", 2048, descend::gen::transpose_medium);
  runTranspose("large", 4096, descend::gen::transpose_large);

  runScan("small", 4096, descend::gen::scan_blocks_small,
          descend::gen::add_sums_small);
  runScan("medium", 8192, descend::gen::scan_blocks_medium,
          descend::gen::add_sums_medium);
  runScan("large", 16384, descend::gen::scan_blocks_large,
          descend::gen::add_sums_large);

  runMatmul("small", 16, descend::gen::matmul_small);
  runMatmul("medium", 24, descend::gen::matmul_medium);
  runMatmul("large", 32, descend::gen::matmul_large);

  std::printf("%-10s %-7s %12s %14s %10s\n", "benchmark", "size",
              "CUDA [ms]", "Descend [ms]", "relative");
  std::printf("---------------------------------------------------------\n");
  double GeoMean = 1.0;
  for (const Row &R : Rows) {
    double Rel = R.CudaMs / R.DescendMs;
    GeoMean *= Rel;
    std::printf("%-10s %-7s %12.3f %14.3f %9.3fx\n", R.Bench, R.Size,
                R.CudaMs, R.DescendMs, Rel);
  }
  GeoMean = std::pow(GeoMean, 1.0 / Rows.size());
  std::printf("---------------------------------------------------------\n");
  std::printf("%-10s %-7s %12s %14s %9.3fx\n", "Mean", "", "", "", GeoMean);
  std::printf("\nShape check (paper: all ratios within a few %% of 1.0): "
              "%s\n",
              std::abs(1.0 - GeoMean) < 0.10 ? "PASS" : "CHECK MANUALLY");

  // Machine-readable per-kernel counter summaries (one counted run per
  // row, taken outside the timed loops); run_benches.sh folds these into
  // the BENCH_fig8.json rows.
  std::printf("\n");
  for (const Row &R : Rows)
    std::printf("COUNTERS %s %s %s\n", R.Bench, R.Size,
                R.CountersJson.c_str());
  return 0;
}

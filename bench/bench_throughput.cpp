//===- bench/bench_throughput.cpp - Launch-path throughput ------------------===//
//
// Measures the absolute throughput of the simulator launch path — the
// number the ROADMAP's "as fast as the hardware allows" goal actually
// cares about, complementing the Fig. 8 generated/handwritten *ratio*:
//
//  1. Small-launch rate: >= 4k launches of a tiny kernel, executed
//     three ways — with a thread pool spawned and joined per launch (the
//     pre-persistent-pool executor, reproduced here as the baseline),
//     synchronously on the persistent worker pool, and enqueued over
//     four sim::Streams. The pool/spawn ratio is the regression-gated
//     speedup (tools/bench_baseline.json: throughput_min_speedup).
//  2. Worker-count scaling sweep on a medium kernel.
//  3. A mixed serving loop alternating the *generated* quickstart and
//     reduction host drivers (sync and graph-replay overloads) at 1 and 4
//     workers and at 1 and 64 blocks per request, approximating a service
//     handling small independent requests. The graph mode captures each
//     driver once and replays the instantiated graph per request. A
//     whole-pipeline graph replays one captured request pair; its ratio
//     over re-enqueueing the same pair in stream form is gated
//     (tools/bench_baseline.json: graph_min_replay_speedup), and its
//     ratio over the sync drivers is reported next to it.
//
// Output lines are machine-parseable key=value rows prefixed with
// THROUGHPUT; tools/run_benches.sh turns them into BENCH_throughput.json.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "sim/Sim.h"

#include "gen_quickstart_host_serve.h"   // scale_vec_serve + run_serve (nb=1)
#include "gen_quickstart_host_serve64.h" // run_serve64               (nb=64)
#include "gen_reduction_host_serve.h"    // reduce_rserve + run_rserve  (nb=1)
#include "gen_reduction_host_serve64.h"  // run_rserve64              (nb=64)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace descend;
using sim::BlockCtx;
using sim::Dim3;
using sim::GpuDevice;
using sim::ThreadCtx;

namespace {

/// How many workers the measured devices use. Pinned (not hardware
/// concurrency) so the spawn-vs-pool comparison is the same experiment
/// on every machine; run_benches.sh stamps the value into the JSON.
constexpr unsigned BenchWorkers = 4;

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// The seed executor, verbatim: spawn a worker pool per launch, join it,
/// one block per atomic claim, one arena allocation per worker. This is
/// the baseline the persistent pool is gated against. Its blocks get the
/// same check word runBlocks gives them, so both sides run the same
/// block code.
void spawnPerLaunchRunBlocks(GpuDevice &Dev, Dim3 Grid, Dim3 Block,
                             size_t SharedBytes,
                             const std::function<void(BlockCtx &)> &RunBlock) {
  const unsigned NumBlocks = Grid.total();
  const unsigned NumWorkers = std::min(Dev.effectiveWorkers(), NumBlocks);

  auto RunOne = [&](unsigned Linear, std::byte *Arena) {
    BlockCtx B;
    B.X = Linear % Grid.X;
    B.Y = (Linear / Grid.X) % Grid.Y;
    B.Z = Linear / (Grid.X * Grid.Y);
    B.GridDim = Grid;
    B.BlockDim = Block;
    B.SharedArena = Arena;
    B.SharedBytes = SharedBytes;
    B.Dev = &Dev;
    B.SharedBufferId = sim::detail::FirstSharedBufferId + Linear;
    B.Checks = Dev.accessChecks();
    if (SharedBytes)
      std::memset(Arena, 0, SharedBytes);
    RunBlock(B);
  };

  std::atomic<unsigned> Next{0};
  std::vector<std::thread> Pool;
  Pool.reserve(NumWorkers);
  for (unsigned W = 0; W != NumWorkers; ++W)
    Pool.emplace_back([&]() {
      std::vector<std::byte> Arena(SharedBytes ? SharedBytes : 1);
      while (true) {
        unsigned L = Next.fetch_add(1, std::memory_order_relaxed);
        if (L >= NumBlocks)
          return;
        RunOne(L, Arena.data());
      }
    });
  for (std::thread &T : Pool)
    T.join();
}

template <typename BufT>
void tinyPhase(BufT Buf, BlockCtx &B, ThreadCtx &T) {
  size_t I = B.X * B.BlockDim.X + T.X;
  Buf.store(B, I, Buf.load(B, I) + 1.0);
}

void report(const char *Section, const char *Mode, long long Count,
            double Ms) {
  std::printf("THROUGHPUT %s mode=%s count=%lld ms=%.3f rate=%.1f\n",
              Section, Mode, Count, Ms, Count / (Ms / 1000.0));
}

//===----------------------------------------------------------------------===//
// 1. Small-launch rate
//===----------------------------------------------------------------------===//

double smallLaunchRate(const char *Mode, int Launches, bool Emit = true) {
  const unsigned Blocks = 8, Threads = 32;
  GpuDevice Dev;
  Dev.setWorkers(BenchWorkers);
  auto Buf = Dev.alloc<double>(Blocks * Threads);

  auto T0 = std::chrono::steady_clock::now();
  if (std::strcmp(Mode, "spawn_per_launch") == 0) {
    for (int L = 0; L != Launches; ++L)
      spawnPerLaunchRunBlocks(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                              [&](BlockCtx &B) {
                                ThreadCtx T;
                                for (T.X = 0; T.X != Threads; ++T.X) {
                                  B.CurThread = T.X;
                                  tinyPhase(Buf, B, T);
                                }
                              });
  } else if (std::strcmp(Mode, "pool_sync") == 0) {
    for (int L = 0; L != Launches; ++L)
      launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                   [Buf](BlockCtx &B, ThreadCtx &T) { tinyPhase(Buf, B, T); });
  } else { // pool_streams: four streams, each its own buffer
    const int NumStreams = 4;
    std::vector<GpuDevice::Buffer<double>> Bufs;
    for (int S = 0; S != NumStreams; ++S)
      Bufs.push_back(Dev.alloc<double>(Blocks * Threads));
    std::vector<std::unique_ptr<sim::Stream>> Streams;
    for (int S = 0; S != NumStreams; ++S)
      Streams.push_back(std::make_unique<sim::Stream>(Dev));
    T0 = std::chrono::steady_clock::now();
    for (int L = 0; L != Launches; ++L) {
      auto B = Bufs[L % NumStreams];
      Streams[L % NumStreams]->enqueue([&Dev, B] {
        launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                     [B](BlockCtx &Blk, ThreadCtx &T) {
                       tinyPhase(B, Blk, T);
                     });
      });
    }
    for (auto &S : Streams)
      S->synchronize();
  }
  double Ms = msSince(T0);
  if (Emit)
    report("small_launch", Mode, Launches, Ms);
  return Launches / (Ms / 1000.0);
}

//===----------------------------------------------------------------------===//
// 2. Worker-count scaling sweep
//===----------------------------------------------------------------------===//

void workerSweep() {
  const unsigned Blocks = 64, Threads = 256;
  const size_t N = static_cast<size_t>(Blocks) * Threads;
  const int Launches = 40;
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    GpuDevice Dev;
    Dev.setWorkers(W);
    auto In = Dev.alloc<double>(N);
    auto Out = Dev.alloc<double>(Blocks);
    for (size_t I = 0; I != N; ++I)
      In.data()[I] = static_cast<double>(I % 97);
    auto Run = [&] {
      launchPhases(Dev, Dim3{Blocks}, Dim3{1}, 0,
                   [In, Out, Threads](BlockCtx &B, ThreadCtx &) {
                     double Sum = 0;
                     for (size_t I = 0; I != Threads; ++I)
                       Sum += In.load(B, B.X * Threads + I);
                     Out.store(B, B.X, Sum);
                   });
    };
    Run(); // warm-up (creates the pool)
    auto T0 = std::chrono::steady_clock::now();
    for (int L = 0; L != Launches; ++L)
      Run();
    double Ms = msSince(T0);
    char Mode[32];
    std::snprintf(Mode, sizeof(Mode), "workers_%u", W);
    report("worker_sweep", Mode, Launches, Ms);
  }
}

//===----------------------------------------------------------------------===//
// 3. Mixed host-program serving loop (generated drivers)
//===----------------------------------------------------------------------===//

/// All serving loops measure best-of-N rounds: scheduler noise on a
/// shared machine would otherwise dominate a single 512-request sample.
constexpr int ServingRounds = 3;

/// One pair of build-time serve headers: the generated quickstart and
/// reduction drivers at a grid of NB blocks of 256 threads.
struct ServeNb1 {
  static constexpr size_t NB = 1;
  template <typename... A> static void quick(A &...Args) {
    descend::gen::run_serve(Args...);
  }
  template <typename... A> static void reduce(A &...Args) {
    descend::gen::run_rserve(Args...);
  }
};

struct ServeNb64 {
  static constexpr size_t NB = 64;
  template <typename... A> static void quick(A &...Args) {
    descend::gen::run_serve64(Args...);
  }
  template <typename... A> static void reduce(A &...Args) {
    descend::gen::run_rserve64(Args...);
  }
};

/// The host buffers of one quickstart and one reduction request.
template <size_t NB> struct ServeBufs {
  rt::HostBuffer<double> QVec{NB * 256, 1.0};
  rt::HostBuffer<double> RData{NB * 256, 0.5}, RPartials{NB, 0.0},
      RTotal{1, 0.0};
};

/// Best-of-ServingRounds wall time of \p Iters calls of \p Serve(I).
template <typename F> double bestMs(int Iters, F &&Serve) {
  double BestMs = 0;
  for (int Round = 0; Round != ServingRounds; ++Round) {
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I != Iters; ++I)
      Serve(I);
    double Ms = msSince(T0);
    if (Round == 0 || Ms < BestMs)
      BestMs = Ms;
  }
  return BestMs;
}

double reportServing(const char *Mode, unsigned Workers, size_t NB,
                     long long Requests, double Ms) {
  std::printf("THROUGHPUT serving mode=%s workers=%u nb=%zu count=%lld "
              "ms=%.3f rate=%.1f\n",
              Mode, Workers, NB, Requests, Ms, Requests / (Ms / 1000.0));
  return Requests / (Ms / 1000.0);
}

/// Requests alternate quickstart and reduction through the synchronous
/// GpuDevice& drivers.
template <typename Set> double serveSync(unsigned Workers, int Requests) {
  GpuDevice Dev;
  Dev.setWorkers(Workers);
  ServeBufs<Set::NB> B;
  double Ms = bestMs(Requests, [&](int R) {
    if (R % 2 == 0)
      Set::quick(Dev, B.QVec);
    else
      Set::reduce(Dev, B.RData, B.RPartials, B.RTotal);
  });
  return reportServing("generated_sync", Workers, Set::NB, Requests, Ms);
}

/// The same loop over the graph-mode overloads: the first quickstart and
/// reduction request each capture their driver into a persistent
/// GraphExec; every later request rebinds the host buffers and replays
/// the instantiated graph with a single enqueue. Prints the graph shape
/// so run_benches.sh can stamp ops-per-graph and the replay count.
template <typename Set> double serveGraph(unsigned Workers, int Requests) {
  GpuDevice Dev;
  Dev.setWorkers(Workers);
  ServeBufs<Set::NB> B;
  sim::Stream S(Dev);
  sim::GraphExec GQ, GR;
  double Ms = bestMs(Requests, [&](int R) {
    if (R % 2 == 0)
      Set::quick(S, GQ, B.QVec);
    else
      Set::reduce(S, GR, B.RData, B.RPartials, B.RTotal);
  });
  std::printf("THROUGHPUT graph_shape ops_quickstart=%zu ops_reduction=%zu "
              "replays=%d\n",
              GQ.opCount(), GR.opCount(), Requests * ServingRounds);
  return reportServing("generated_graph", Workers, Set::NB, Requests, Ms);
}

/// One quickstart request and one reduction request (nb=1) in stream
/// form: rt::*Async transfers and kernel launches enqueued on \p S, one
/// join per driver, then the reduction's sequential CPU finish. Captured,
/// it is the replayed pipeline; called per pair, it is the
/// enqueue-per-operation baseline the replay is gated against, so both
/// sides of the gated ratio run exactly the same operations.
void servePairStreamed(sim::Stream &S, ServeBufs<1> &B) {
  GpuDevice &Dev = S.device();
  auto DVec = rt::allocCopyAsync(S, B.QVec);
  S.enqueue([=, &Dev] { descend::gen::scale_vec_serve(Dev, DVec); });
  rt::copyToHostAsync(S, B.QVec, DVec, "host_vec", "d_vec");
  S.synchronize();
  rt::checkDevice(Dev, "stream synchronize");

  auto DIn = rt::allocCopyAsync(S, B.RData);
  auto DOut = rt::allocCopyAsync(S, B.RPartials);
  S.enqueue([=, &Dev] { descend::gen::reduce_rserve(Dev, DIn, DOut); });
  rt::copyToHostAsync(S, B.RPartials, DOut, "partials", "d_out");
  S.synchronize();
  rt::checkDevice(Dev, "stream synchronize");
  B.RTotal[0] = B.RPartials[0];
}

/// Re-enqueue baseline: every request pair enqueues its ~7 operations,
/// allocates 3 device buffers and joins the stream twice.
double servePipelineReenqueue(unsigned Workers, int Requests) {
  GpuDevice Dev;
  Dev.setWorkers(Workers);
  ServeBufs<1> B;
  sim::Stream S(Dev);
  const int Pairs = Requests / 2;
  double Ms = bestMs(Pairs, [&](int) { servePairStreamed(S, B); });
  return reportServing("stream_reenqueue", Workers, 1, Pairs * 2, Ms);
}

/// Whole-pipeline capture — the cudaStreamBeginCapture idiom: record one
/// full request pair (servePairStreamed) into a single graph, then serve
/// every later pair by replaying it with ONE enqueue and ONE join. The
/// reduction's CPU finish is host code, not device work, so it re-runs on
/// the host per replay.
double servePipelineGraph(unsigned Workers, int Requests) {
  GpuDevice Dev;
  Dev.setWorkers(Workers);
  ServeBufs<1> B;
  sim::Stream S(Dev);
  S.beginCapture();
  servePairStreamed(S, B); // enqueues record as graph nodes
  sim::GraphExec G = S.endCapture().instantiate();

  const int Pairs = Requests / 2;
  double Ms = bestMs(Pairs, [&](int) {
    G.launch(S);
    S.synchronize();
    B.RTotal[0] = B.RPartials[0];
  });
  std::printf("THROUGHPUT graph_shape ops_pipeline=%zu replays=%d\n",
              G.opCount(), Pairs * ServingRounds);
  return reportServing("pipeline_graph", Workers, 1, Pairs * 2, Ms);
}

//===----------------------------------------------------------------------===//
// 4. Compile service: cold vs warm latency and serving-loop hit rate
//===----------------------------------------------------------------------===//

std::string slurp(const char *Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Measures the CompileService the way descendd uses it: a set of
/// programs compiled cold (distinct sources), then re-requested warm
/// (cache probes), then a mixed serving loop. Emits the warm/cold
/// speedup the baseline gates (service_min_hit_speedup).
void compileServiceBench() {
  std::string Sources[2] = {
      slurp(DESCEND_PROGRAM_DIR "/quickstart_host.descend"),
      slurp(DESCEND_PROGRAM_DIR "/reduction_host.descend")};
  if (Sources[0].empty() || Sources[1].empty()) {
    std::printf("THROUGHPUT service_summary skipped=1 (sources not "
                "found)\n");
    return;
  }

  service::CompileService Svc(/*Capacity=*/128);
  auto Salted = [&](int I) {
    service::CompileRequest Req;
    Req.Source = "// request " + std::to_string(I) + "\n" + Sources[I % 2];
    Req.Defines["nb"] = 8;
    return Req;
  };

  // Cold: every request is a distinct key, so each pays the full
  // parse -> typecheck -> bytecode pipeline.
  const int Cold = 24;
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Cold; ++I) {
    service::CompileReply Rep = Svc.compile(Salted(I));
    if (!Rep.Ok) {
      std::printf("THROUGHPUT service_summary skipped=1 (compile "
                  "failed)\n");
      std::fprintf(stderr, "%s\n", Rep.Diagnostics.c_str());
      return;
    }
  }
  double ColdMs = msSince(T0);
  report("service", "cold_compile", Cold, ColdMs);

  // Warm: the same keys again, many times over — every request is a
  // cache probe.
  const int Warm = 4096;
  T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Warm; ++I)
    Svc.compile(Salted(I % Cold));
  double WarmMs = msSince(T0);
  report("service", "warm_hit", Warm, WarmMs);

  // Mixed serving loop: mostly warm probes with a trickle of new
  // specializations, like a long-lived daemon serving editors.
  service::ServiceStats Before = Svc.stats();
  const int Mixed = 512;
  T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Mixed; ++I) {
    if (I % 16 == 15) {
      service::CompileRequest Req = Salted(I % Cold);
      Req.Defines["nb"] = 8 + I % 3; // new -D binding: a distinct entry
      Svc.compile(Req);
    } else {
      Svc.compile(Salted(I % Cold));
    }
  }
  double MixedMs = msSince(T0);
  report("service", "mixed_serving", Mixed, MixedMs);
  service::ServiceStats After = Svc.stats();

  double HitRate =
      static_cast<double>(After.Hits - Before.Hits) / Mixed;
  double ColdPer = ColdMs / Cold, WarmPer = WarmMs / Warm;
  std::printf("THROUGHPUT service_summary hit_rate=%.3f cold_ms=%.3f "
              "warm_ms=%.4f warm_speedup=%.1f entries=%zu evictions=%llu\n",
              HitRate, ColdPer, WarmPer, ColdPer / WarmPer, After.Entries,
              static_cast<unsigned long long>(After.Evictions));
}

} // namespace

int main() {
  std::printf("Simulator launch-path throughput (workers=%u)\n",
              BenchWorkers);
  std::printf("(spawn_per_launch reproduces the pre-persistent-pool "
              "executor; the pool/spawn ratio is the gated speedup)\n\n");

  const int Launches = 4096;
  smallLaunchRate("pool_sync", 256, /*Emit=*/false); // warm-up
  double SpawnRate = smallLaunchRate("spawn_per_launch", Launches);
  double PoolRate = smallLaunchRate("pool_sync", Launches);
  double StreamRate = smallLaunchRate("pool_streams", Launches);

  workerSweep();

  // Serving at 1 worker (the end-to-end benchmark's setting) and at
  // BenchWorkers, each at one block and at 64 blocks per request.
  const int Requests = 512;
  double ReplayVsReenqueue = 0;
  for (unsigned W : {1u, BenchWorkers}) {
    double Sync1 = serveSync<ServeNb1>(W, Requests);
    double Graph1 = serveGraph<ServeNb1>(W, Requests);
    double Sync64 = serveSync<ServeNb64>(W, Requests);
    double Graph64 = serveGraph<ServeNb64>(W, Requests);
    double Reenqueue = servePipelineReenqueue(W, Requests);
    double Replay = servePipelineGraph(W, Requests);
    std::printf("THROUGHPUT vs_sync workers=%u replay_vs_sync=%.2f "
                "graph_driver_vs_sync_nb1=%.2f "
                "graph_driver_vs_sync_nb64=%.2f\n",
                W, Replay / Sync1, Graph1 / Sync1, Graph64 / Sync64);
    if (W == BenchWorkers)
      ReplayVsReenqueue = Replay / Reenqueue;
  }

  compileServiceBench();

  std::printf("\nTHROUGHPUT speedup pool_vs_spawn=%.2f streams_vs_spawn="
              "%.2f\n",
              PoolRate / SpawnRate, StreamRate / SpawnRate);
  std::printf("THROUGHPUT graph_summary replay_vs_reenqueue=%.2f "
              "replays=%d\n",
              ReplayVsReenqueue, Requests);
  return 0;
}

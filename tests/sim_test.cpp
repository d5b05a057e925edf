//===- tests/sim_test.cpp - Tests for the GPU simulator substrate ---------===//

#include "sim/Sim.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

using namespace descend::sim;

namespace {

TEST(Sim, VectorScaleAllThreads) {
  GpuDevice Dev;
  auto Buf = Dev.alloc<double>(1024);
  for (size_t I = 0; I != 1024; ++I)
    Buf.data()[I] = static_cast<double>(I);

  launchPhases(Dev, Dim3{4}, Dim3{256}, 0,
               [&](BlockCtx &B, ThreadCtx &T) {
                 size_t I = B.X * 256 + T.X;
                 Buf.store(B, I, Buf.load(B, I) * 3.0);
               });

  for (size_t I = 0; I != 1024; ++I)
    EXPECT_EQ(Buf.data()[I], 3.0 * I);
}

TEST(Sim, PhasesActAsBarriers) {
  // Phase 1 reverses into shared memory, phase 2 writes back: correct only
  // if the barrier semantics hold within each block.
  GpuDevice Dev;
  auto Buf = Dev.alloc<int>(512);
  for (int I = 0; I != 512; ++I)
    Buf.data()[I] = I;

  launchPhases(
      Dev, Dim3{2}, Dim3{256}, 256 * sizeof(int),
      [&](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<int>(0, 255 - T.X, Buf.load(B, B.X * 256 + T.X));
      },
      [&](BlockCtx &B, ThreadCtx &T) {
        Buf.store(B, B.X * 256 + T.X, B.sharedLoad<int>(0, T.X));
      });

  for (int Blk = 0; Blk != 2; ++Blk)
    for (int I = 0; I != 256; ++I)
      EXPECT_EQ(Buf.data()[Blk * 256 + I], Blk * 256 + (255 - I));
}

TEST(Sim, SharedMemoryIsPerBlock) {
  GpuDevice Dev;
  auto Out = Dev.alloc<int>(8);
  launchPhases(
      Dev, Dim3{8}, Dim3{1}, sizeof(int),
      [&](BlockCtx &B, ThreadCtx &) {
        B.sharedStore<int>(0, 0, static_cast<int>(B.X) + 1);
      },
      [&](BlockCtx &B, ThreadCtx &) {
        Out.store(B, B.X, B.sharedLoad<int>(0, 0));
      });
  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(Out.data()[I], I + 1);
}

TEST(Sim, MultiDimensionalCoordinates) {
  GpuDevice Dev;
  auto Out = Dev.alloc<unsigned>(2 * 3 * 4 * 5);
  launchPhases(Dev, Dim3{2, 3}, Dim3{4, 5}, 0,
               [&](BlockCtx &B, ThreadCtx &T) {
                 unsigned Idx = ((B.Y * 2 + B.X) * 5 + T.Y) * 4 + T.X;
                 Out.store(B, Idx, B.X + 10 * B.Y + 100 * T.X + 1000 * T.Y);
               });
  // Spot-check a few coordinates.
  EXPECT_EQ(Out.data()[0], 0u);
  unsigned Idx = ((2u * 2 + 1) * 5 + 4) * 4 + 3;
  EXPECT_EQ(Out.data()[Idx], 1u + 20u + 300u + 4000u);
}

TEST(Sim, RaceDetectorFindsListing1Bug) {
  // The Listing 1 transpose bug: tmp[ty + j*32 + tx] instead of
  // tmp[(ty+j)*32 + tx] makes multiple threads write the same location.
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto In = Dev.alloc<double>(64 * 64);
  auto Out = Dev.alloc<double>(64 * 64);

  launchPhases(
      Dev, Dim3{2, 2}, Dim3{32, 8}, 32 * 32 * sizeof(double),
      [&](BlockCtx &B, ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8) {
          size_t Src = (B.Y * 32 + T.Y + J) * 64 + B.X * 32 + T.X;
          // BUG (intentional): missing parentheses around (T.Y + J).
          B.sharedStore<double>(0, T.Y + J * 32 + T.X, In.load(B, Src));
        }
      },
      [&](BlockCtx &B, ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8) {
          size_t Dst = (B.X * 32 + T.Y + J) * 64 + B.Y * 32 + T.X;
          Out.store(B, Dst, B.sharedLoad<double>(0, T.X * 32 + T.Y + J));
        }
      });

  auto Races = Dev.findRaces();
  EXPECT_FALSE(Races.empty()) << "the Listing 1 bug must be detected";
}

TEST(Sim, FixedTransposeIsRaceFree) {
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto In = Dev.alloc<double>(64 * 64);
  auto Out = Dev.alloc<double>(64 * 64);
  for (int I = 0; I != 64 * 64; ++I)
    In.data()[I] = I;

  launchPhases(
      Dev, Dim3{2, 2}, Dim3{32, 8}, 32 * 32 * sizeof(double),
      [&](BlockCtx &B, ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8) {
          size_t Src = (B.Y * 32 + T.Y + J) * 64 + B.X * 32 + T.X;
          B.sharedStore<double>(0, (T.Y + J) * 32 + T.X, In.load(B, Src));
        }
      },
      [&](BlockCtx &B, ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8) {
          size_t Dst = (B.X * 32 + T.Y + J) * 64 + B.Y * 32 + T.X;
          Out.store(B, Dst, B.sharedLoad<double>(0, T.X * 32 + T.Y + J));
        }
      });

  EXPECT_TRUE(Dev.findRaces().empty());
  // And it really is the transpose.
  for (int R = 0; R != 64; ++R)
    for (int C = 0; C != 64; ++C)
      EXPECT_EQ(Out.data()[C * 64 + R], In.data()[R * 64 + C]);
}

TEST(Sim, RaceAcrossPhaseIsNotReported) {
  // Write in phase 0, read by a different thread in phase 1: ordered by
  // the barrier, hence no race.
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto Buf = Dev.alloc<int>(256);
  launchPhases(
      Dev, Dim3{1}, Dim3{256}, 0,
      [&](BlockCtx &B, ThreadCtx &T) { Buf.store(B, T.X, (int)T.X); },
      [&](BlockCtx &B, ThreadCtx &T) {
        (void)Buf.load(B, 255 - T.X);
      });
  EXPECT_TRUE(Dev.findRaces().empty());
}

TEST(Sim, RaceWithinPhaseIsReported) {
  // rev_per_block from Section 2.2: in-place reversal in a single phase.
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto Buf = Dev.alloc<double>(256);
  launchPhases(Dev, Dim3{1}, Dim3{256}, 0,
               [&](BlockCtx &B, ThreadCtx &T) {
                 Buf.store(B, T.X, Buf.load(B, 255 - T.X));
               });
  EXPECT_FALSE(Dev.findRaces().empty());
}

TEST(Sim, CrossBlockRaceIsReported) {
  // Two blocks write the same global location: never safe in one kernel.
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto Buf = Dev.alloc<int>(4);
  launchPhases(Dev, Dim3{2}, Dim3{1}, 0,
               [&](BlockCtx &B, ThreadCtx &) { Buf.store(B, 0, (int)B.X); });
  EXPECT_FALSE(Dev.findRaces().empty());
}

TEST(Sim, ReadsAloneDoNotRace) {
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto Buf = Dev.alloc<int>(1);
  launchPhases(Dev, Dim3{4}, Dim3{64}, 0,
               [&](BlockCtx &B, ThreadCtx &) { (void)Buf.load(B, 0); });
  EXPECT_TRUE(Dev.findRaces().empty());
}

TEST(Sim, BoundsCheckingCatchesOverrun) {
  // The Section 2.3 bug: launching with more threads than elements.
  GpuDevice Dev;
  Dev.setBoundsChecking(true);
  auto Buf = Dev.alloc<double>(100);
  launchPhases(Dev, Dim3{1}, Dim3{256}, 0,
               [&](BlockCtx &B, ThreadCtx &T) { Buf.store(B, T.X, 1.0); });
  EXPECT_EQ(Dev.boundsViolations().size(), 156u);
  EXPECT_EQ(Dev.boundsViolations()[0].Size, 100u);
}

TEST(Sim, ParallelBlockExecutionMatchesSequential) {
  // Histogram-free reduction: each block sums its slice.
  const size_t N = 1 << 16;
  std::vector<double> Expected(64, 0);
  GpuDevice Seq, Par;
  Seq.setWorkers(1);
  Par.setWorkers(8);
  for (GpuDevice *Dev : {&Seq, &Par}) {
    auto In = Dev->alloc<double>(N);
    auto Out = Dev->alloc<double>(64);
    for (size_t I = 0; I != N; ++I)
      In.data()[I] = static_cast<double>(I % 97);
    launchPhases(*Dev, Dim3{64}, Dim3{1}, 0,
                 [&](BlockCtx &B, ThreadCtx &) {
                   double Sum = 0;
                   for (size_t I = 0; I != N / 64; ++I)
                     Sum += In.load(B, B.X * (N / 64) + I);
                   Out.store(B, B.X, Sum);
                 });
    if (Dev == &Seq)
      for (int I = 0; I != 64; ++I)
        Expected[I] = Out.data()[I];
    else
      for (int I = 0; I != 64; ++I)
        EXPECT_EQ(Out.data()[I], Expected[I]);
  }
}

TEST(Sim, ProgramLoopBindsLoopVarPerIteration) {
  // Accumulate the loop variable per thread: loopVar(0) must be bound
  // before each iteration's phases run.
  GpuDevice Dev;
  auto Out = Dev.alloc<long long>(64);
  PhaseProgram Prog;
  Prog.loopBegin(0, 0, 5);
  Prog.straight([&](BlockCtx &B, ThreadCtx &T) {
    size_t I = B.X * 32 + T.X;
    Out.store(B, I, Out.load(B, I) + B.loopVar(0));
  });
  Prog.loopEnd();
  launchProgram(Dev, Dim3{2}, Dim3{32}, 0, Prog);
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Out.data()[I], 0 + 1 + 2 + 3 + 4);
}

TEST(Sim, ProgramLoopBoundsReadOuterLoopVars) {
  // Triangular nest: inner bound = outer var + 1; total iterations of a
  // [0..4) outer loop are 1+2+3+4 = 10.
  GpuDevice Dev;
  auto Out = Dev.alloc<int>(1);
  PhaseProgram Prog;
  Prog.loopBegin(0, 0, 4);
  Prog.loopBegin(
      1, [](const BlockCtx &) -> long long { return 0; },
      [](const BlockCtx &B) -> long long { return B.loopVar(0) + 1; });
  Prog.straight([&](BlockCtx &B, ThreadCtx &) {
    Out.store(B, 0, Out.load(B, 0) + 1);
  });
  Prog.loopEnd();
  Prog.loopEnd();
  launchProgram(Dev, Dim3{1}, Dim3{1}, 0, Prog);
  EXPECT_EQ(Out.data()[0], 10);
}

TEST(Sim, ProgramPhasesActAsBarriersAcrossIterations) {
  // Ping-pong through shared memory inside a program loop: phase
  // boundaries must order iterations exactly like unrolled phases, and
  // the race detector must see distinct phases per iteration.
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto Buf = Dev.alloc<int>(256);
  for (int I = 0; I != 256; ++I)
    Buf.data()[I] = I;
  PhaseProgram Prog;
  Prog.loopBegin(0, 0, 3);
  Prog.straight([&](BlockCtx &B, ThreadCtx &T) {
    B.sharedStore<int>(0, 255 - T.X, Buf.load(B, T.X));
  });
  Prog.straight([&](BlockCtx &B, ThreadCtx &T) {
    Buf.store(B, T.X, B.sharedLoad<int>(0, T.X));
  });
  Prog.loopEnd();
  launchProgram(Dev, Dim3{1}, Dim3{256}, 256 * sizeof(int), Prog);
  // Three reversals = one reversal.
  for (int I = 0; I != 256; ++I)
    EXPECT_EQ(Buf.data()[I], 255 - I);
  EXPECT_TRUE(Dev.findRaces().empty());
}

TEST(Sim, ProgramMatchesEquivalentUnrolledPhases) {
  // The same kernel as launchPhases straight-line phases and as a
  // PhaseProgram loop must produce identical memory.
  auto Run = [](GpuDevice &Dev, GpuDevice::Buffer<double> Buf, bool Loop) {
    if (!Loop) {
      auto Phase = [&](BlockCtx &B, ThreadCtx &T) {
        size_t I = B.X * 64 + T.X;
        Buf.store(B, I, Buf.load(B, I) * 2.0 + 1.0);
      };
      launchPhases(Dev, Dim3{2}, Dim3{64}, 0, Phase, Phase, Phase);
      return;
    }
    PhaseProgram Prog;
    Prog.loopBegin(0, 0, 3);
    Prog.straight([&](BlockCtx &B, ThreadCtx &T) {
      size_t I = B.X * 64 + T.X;
      Buf.store(B, I, Buf.load(B, I) * 2.0 + 1.0);
    });
    Prog.loopEnd();
    launchProgram(Dev, Dim3{2}, Dim3{64}, 0, Prog);
  };
  GpuDevice DevA, DevB;
  auto BufA = DevA.alloc<double>(128);
  auto BufB = DevB.alloc<double>(128);
  for (int I = 0; I != 128; ++I)
    BufA.data()[I] = BufB.data()[I] = I * 0.25;
  Run(DevA, BufA, false);
  Run(DevB, BufB, true);
  for (int I = 0; I != 128; ++I)
    EXPECT_EQ(BufA.data()[I], BufB.data()[I]);
}

TEST(Sim, CheckWordFollowsObserverTogglesBetweenLaunches) {
  // Every launch snapshots the device's observers into each block's check
  // word; toggling one between two launches must show at the next launch,
  // in the word and in what the observer records.
  GpuDevice Dev;
  auto Buf = Dev.alloc<double>(4);
  unsigned Seen = ~0u;
  auto Launch = [&] {
    launchPhases(Dev, Dim3{1}, Dim3{1}, 0, [&](BlockCtx &B, ThreadCtx &) {
      Seen = B.Checks;
      Buf.store(B, 0, Buf.load(B, 0) + 1.0);
    });
  };

  Launch();
  EXPECT_EQ(Seen, 0u);

  Dev.setCounters(true);
  Launch();
  EXPECT_EQ(Seen, unsigned(CheckCounters));
  EXPECT_EQ(Dev.lastLaunchStats().globalLoads(), 1u);
  Dev.setCounters(false);
  Launch();
  EXPECT_EQ(Seen, 0u);
  EXPECT_EQ(Dev.totalStats().Launches, 1u);

  Dev.setRaceDetection(true);
  Launch();
  EXPECT_EQ(Seen, unsigned(CheckRaces));
  EXPECT_EQ(Dev.accessLogSize(), 2u);
  Dev.setRaceDetection(false);
  Launch();
  EXPECT_EQ(Seen, 0u);
  EXPECT_EQ(Dev.accessLogSize(), 2u);

  Dev.setBoundsChecking(true);
  Launch();
  EXPECT_EQ(Seen, unsigned(CheckBounds));
  Dev.setCounters(true);
  Dev.setRaceDetection(true);
  Launch();
  EXPECT_EQ(Seen, unsigned(CheckCounters | CheckRaces | CheckBounds));
  Dev.setCounters(false);
  Dev.setRaceDetection(false);
  Dev.setBoundsChecking(false);
  Launch();
  EXPECT_EQ(Seen, 0u);

  EXPECT_EQ(Buf.data()[0], 8.0); // every launch landed its access
  EXPECT_TRUE(Dev.boundsViolations().empty());
}

TEST(Sim, OutOfRangeAccessIsLoggedAndNeverLanded) {
  // Under bounds checking an out-of-range access goes through the checked
  // seam: counted (it was issued), logged at its last element, and never
  // landed — a wide access straddling the end writes neither element.
  GpuDevice Dev;
  Dev.setBoundsChecking(true);
  Dev.setCounters(true);
  auto Buf = Dev.alloc<double>(4);
  Buf.data()[3] = 5.0;
  double Loaded = -1.0, Wide0 = -1.0, Wide1 = -1.0;
  launchPhases(Dev, Dim3{1}, Dim3{1}, 0, [&](BlockCtx &B, ThreadCtx &) {
    Buf.store(B, 4, 1.0);
    Buf.store2(B, 3, 2.0, 3.0);
    Loaded = Buf.load(B, 4);
    Buf.load2(B, 3, Wide0, Wide1);
    Buf.store(B, 2, 9.0); // in range: lands
  });

  ASSERT_EQ(Dev.boundsViolations().size(), 4u);
  for (const BoundsReport &R : Dev.boundsViolations()) {
    EXPECT_EQ(R.Offset, 4u);
    EXPECT_EQ(R.Size, 4u);
    EXPECT_EQ(R.BufferId, Buf.id());
  }
  EXPECT_EQ(Buf.data()[3], 5.0);
  EXPECT_EQ(Buf.data()[2], 9.0);
  EXPECT_EQ(Loaded, 0.0);
  EXPECT_EQ(Wide0, 0.0);
  EXPECT_EQ(Wide1, 0.0);
  EXPECT_EQ(Dev.lastLaunchStats().globalStores(), 3u);
  EXPECT_EQ(Dev.lastLaunchStats().globalLoads(), 2u);
}

TEST(Sim, ClearLogsResets) {
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto Buf = Dev.alloc<int>(1);
  launchPhases(Dev, Dim3{2}, Dim3{1}, 0,
               [&](BlockCtx &B, ThreadCtx &) { Buf.store(B, 0, 1); });
  EXPECT_FALSE(Dev.findRaces().empty());
  Dev.clearLogs();
  EXPECT_TRUE(Dev.findRaces().empty());
}

//===----------------------------------------------------------------------===//
// Thread splits: a split() phase must be observably the guarded phase
//===----------------------------------------------------------------------===//

/// Everything a launch exposes, with counters, race detection and bounds
/// checking all on (race detection also makes execution sequential, so
/// the visit order below is deterministic).
struct Observed {
  std::vector<double> Out;
  /// (block, CurThread, CurPhase, T.X, T.Y, T.Z, side) per body run.
  std::vector<std::tuple<unsigned, unsigned, unsigned, unsigned, unsigned,
                         unsigned, bool>>
      Visits;
  LaunchStats Stats;
  std::vector<std::string> Races, Bounds;
};

constexpr size_t SplitOutSize = 160;

/// Runs \p Launch(Dev, Out, Visits) on a fresh fully observed device.
template <typename LaunchFn> Observed observe(LaunchFn Launch) {
  GpuDevice Dev;
  Dev.setCounters(true);
  Dev.setRaceDetection(true);
  Dev.setBoundsChecking(true);
  auto Out = Dev.alloc<double>(SplitOutSize);
  Observed O;
  Launch(Dev, Out, O.Visits);
  O.Out.assign(Out.data(), Out.data() + Out.size());
  O.Stats = Dev.lastLaunchStats();
  for (const RaceReport &R : Dev.findRaces())
    O.Races.push_back(R.str());
  for (const BoundsReport &R : Dev.boundsViolations())
    O.Bounds.push_back(R.str());
  return O;
}

void expectSameObservations(const Observed &Guarded, const Observed &Split) {
  EXPECT_EQ(Guarded.Out, Split.Out);
  EXPECT_EQ(Guarded.Visits, Split.Visits);
  EXPECT_TRUE(Guarded.Stats == Split.Stats)
      << Guarded.Stats.str() << "\nvs\n"
      << Split.Stats.str();
  EXPECT_EQ(Guarded.Stats.sharedTransactions(),
            Split.Stats.sharedTransactions());
  EXPECT_EQ(Guarded.Stats.bankConflicts(), Split.Stats.bankConflicts());
  EXPECT_EQ(Guarded.Races, Split.Races);
  EXPECT_EQ(Guarded.Bounds, Split.Bounds);
}

using Visit = std::tuple<unsigned, unsigned, unsigned, unsigned, unsigned,
                         unsigned, bool>;

unsigned coordOf(const ThreadCtx &T, unsigned Dim) {
  return Dim == 0 ? T.X : Dim == 1 ? T.Y : T.Z;
}

/// The two sides of the test phase. The then side makes neighbouring
/// threads write one element (a same-phase race) and reads shared memory
/// with a stride (bank conflicts); the else side writes past the end of
/// the buffer for high threads of high blocks (bounds reports) and
/// overlaps the next block's then writes (cross-block races).
struct SplitSides {
  GpuDevice::Buffer<double> Out;
  std::vector<Visit> *Visits;

  void record(BlockCtx &B, ThreadCtx &T, bool Then) const {
    Visits->emplace_back(B.linear(), B.CurThread, B.CurPhase, T.X, T.Y, T.Z,
                         Then);
  }
  void then(BlockCtx &B, ThreadCtx &T) const {
    record(B, T, true);
    const size_t Lin = B.CurThread;
    Out.store(B, B.linear() * 64 + Lin / 2,
              B.sharedLoad<double>(0, (Lin * 2) % 64) + B.loopVar(0));
  }
  void otherwise(BlockCtx &B, ThreadCtx &T) const {
    record(B, T, false);
    const size_t Lin = B.CurThread;
    Out.store(B, B.linear() * 64 + 40 + Lin, B.sharedLoad<double>(0, 63 - Lin % 64));
  }
};

/// Fills the block's 64-element shared array (a plain phase).
auto fillShared() {
  return [](BlockCtx &B, ThreadCtx &) {
    if (B.CurThread < 64)
      B.sharedStore<double>(0, B.CurThread, B.CurThread * 0.5 + B.X);
  };
}

/// One launch of fillShared + the test phase on dimension \p D at \p At,
/// guarded (`if (coord < At)`) or as split(); with \p Idle the else side
/// does nothing.
template <unsigned D, typename AtFn>
Observed runSplitKernel(Dim3 Grid, Dim3 Block, AtFn At, bool Split,
                        bool Idle) {
  return observe([&](GpuDevice &Dev, GpuDevice::Buffer<double> Out,
                     std::vector<Visit> &Visits) {
    const SplitSides S{Out, &Visits};
    auto Guarded = [&](BlockCtx &B, ThreadCtx &T) {
      if (coordOf(T, D) < At(static_cast<const BlockCtx &>(B)))
        S.then(B, T);
      else if (!Idle)
        S.otherwise(B, T);
    };
    auto Body = [&](BlockCtx &B, ThreadCtx &T, auto Then) {
      if constexpr (Then)
        S.then(B, T);
      else
        S.otherwise(B, T);
    };
    if (!Split)
      launchPhases(Dev, Grid, Block, 64 * sizeof(double), fillShared(),
                   Guarded);
    else if (Idle)
      launchPhases(Dev, Grid, Block, 64 * sizeof(double), fillShared(),
                   split(ThreadDim<D>{}, At, Body, idle));
    else
      launchPhases(Dev, Grid, Block, 64 * sizeof(double), fillShared(),
                   split(ThreadDim<D>{}, At, Body));
  });
}

TEST(SimSplit, MatchesGuardedPhaseAtEveryPosition) {
  // At = 0 (no then thread), a middle position, At = extent (no else
  // thread) and At > extent (clamped), each with a two-sided and an idle
  // else; plus a block-dependent position read from the BlockCtx.
  for (long long AtV : {0ll, 20ll, 64ll, 100ll, -3ll})
    for (bool Idle : {false, true}) {
      SCOPED_TRACE("At=" + std::to_string(AtV) + " idle=" +
                   std::to_string(Idle));
      auto At = [AtV](const BlockCtx &) { return AtV; };
      Observed G = runSplitKernel<0>(Dim3{3}, Dim3{64}, At, false, Idle);
      Observed S = runSplitKernel<0>(Dim3{3}, Dim3{64}, At, true, Idle);
      expectSameObservations(G, S);
      if (AtV == 20 && !Idle) {
        EXPECT_FALSE(G.Races.empty());  // the comparison saw races...
        EXPECT_FALSE(G.Bounds.empty()); // ...and bounds reports
      }
    }
  auto PerBlock = [](const BlockCtx &B) -> long long { return 10 + 7 * B.X; };
  expectSameObservations(
      runSplitKernel<0>(Dim3{3}, Dim3{64}, PerBlock, false, false),
      runSplitKernel<0>(Dim3{3}, Dim3{64}, PerBlock, true, false));
}

TEST(SimSplit, IdleSideRunsNoThreads) {
  auto At = [](const BlockCtx &) { return 5ll; };
  Observed S = runSplitKernel<0>(Dim3{2}, Dim3{64}, At, true, true);
  ASSERT_EQ(S.Visits.size(), 2u * 5u);
  for (const Visit &V : S.Visits)
    EXPECT_TRUE(std::get<6>(V));
}

TEST(SimSplit, IntegerPositionEqualsCallable) {
  Observed Lit = observe([](GpuDevice &Dev, GpuDevice::Buffer<double> Out,
                            std::vector<Visit> &Visits) {
    const SplitSides S{Out, &Visits};
    launchPhases(Dev, Dim3{2}, Dim3{64}, 64 * sizeof(double), fillShared(),
                 split(
                     ThreadX, 17,
                     [&](BlockCtx &B, ThreadCtx &T, auto) { S.then(B, T); },
                     idle));
  });
  auto At = [](const BlockCtx &) { return 17ll; };
  expectSameObservations(
      runSplitKernel<0>(Dim3{2}, Dim3{64}, At, false, true), Lit);
}

TEST(SimSplit, SplitOnYOfTwoDimensionalBlock) {
  // A 16x4 block split on Y: rows [0, At) run the then side, the rest the
  // else side, interleaved per z exactly like the guarded loop.
  for (long long AtV : {0ll, 1ll, 3ll, 4ll, 9ll}) {
    SCOPED_TRACE("At=" + std::to_string(AtV));
    auto At = [AtV](const BlockCtx &) { return AtV; };
    expectSameObservations(
        runSplitKernel<1>(Dim3{2}, Dim3{16, 4}, At, false, false),
        runSplitKernel<1>(Dim3{2}, Dim3{16, 4}, At, true, false));
  }
  // An X split of a 3-D block and a Z split interleave per row / per
  // plane the same way.
  auto At = [](const BlockCtx &B) -> long long { return 3 + B.X; };
  expectSameObservations(
      runSplitKernel<0>(Dim3{2}, Dim3{8, 4, 2}, At, false, false),
      runSplitKernel<0>(Dim3{2}, Dim3{8, 4, 2}, At, true, false));
  auto AtZ = [](const BlockCtx &) -> long long { return 1; };
  expectSameObservations(
      runSplitKernel<2>(Dim3{2}, Dim3{8, 4, 2}, AtZ, false, false),
      runSplitKernel<2>(Dim3{2}, Dim3{8, 4, 2}, AtZ, true, false));
}

TEST(SimSplit, ProgramLoopSplitReadsLoopVar) {
  // A halving loop like the reduction's: `if (_tx < 32 >> s)` inside a
  // PhaseProgram loop, the split position read from loopVar(0).
  auto At = [](const BlockCtx &B) -> long long { return 32 >> B.loopVar(0); };
  auto Run = [&](bool Split) {
    return observe([&](GpuDevice &Dev, GpuDevice::Buffer<double> Out,
                       std::vector<Visit> &Visits) {
      const SplitSides S{Out, &Visits};
      PhaseProgram Prog;
      Prog.straight(fillShared());
      Prog.loopBegin(0, 0, 6);
      if (Split)
        Prog.straight(split(
            ThreadX, At, [&](BlockCtx &B, ThreadCtx &T, auto) { S.then(B, T); },
            idle));
      else
        Prog.straight([&](BlockCtx &B, ThreadCtx &T) {
          if (T.X < At(B))
            S.then(B, T);
        });
      Prog.loopEnd();
      launchProgram(Dev, Dim3{2}, Dim3{64}, 64 * sizeof(double), Prog);
    });
  };
  Observed G = Run(false), S = Run(true);
  expectSameObservations(G, S);
  EXPECT_EQ(S.Visits.size(), 2u * (32 + 16 + 8 + 4 + 2 + 1));
}

} // namespace

//===- tests/generated_host_test.cpp - Generated host drivers, executed -----===//
//
// Executes the build-time generated host drivers (programs/*.descend
// compiled by descendc --emit=sim) and checks them bit-for-bit against the
// equivalent handwritten host code over runtime/HostRuntime.h — the
// acceptance gate for the host-program subsystem: the driver Descend
// generates must be indistinguishable from the driver a careful human
// writes.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"

#include "gen_host_call_args.h"       // fill_args + run_args
#include "gen_quickstart_host.h"      // scale_vec + run          (nb=8)
#include "gen_reduction_host_small.h" // reduce_small + run_small (nb=8)

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

using namespace descend;

namespace {

TEST(GeneratedHost, QuickstartDriverBitIdenticalToHandwritten) {
  const size_t N = 8 * 256;

  // Generated path: one call into the emitted driver.
  sim::GpuDevice DevGen;
  rt::HostBuffer<double> Gen(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Gen[I] = static_cast<double>(I) * 0.25;
  descend::gen::run(DevGen, Gen);

  // Handwritten path: the same host logic spelled by hand.
  sim::GpuDevice DevRef;
  rt::HostBuffer<double> Ref(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Ref[I] = static_cast<double>(I) * 0.25;
  auto DVec = rt::allocCopy(DevRef, Ref);
  descend::gen::scale_vec(DevRef, DVec);
  rt::copyToHost(Ref, DVec);

  EXPECT_EQ(0, std::memcmp(Gen.data(), Ref.data(), N * sizeof(double)));
  // And both actually computed the kernel.
  EXPECT_EQ(Gen[100], 100.0 * 0.25 * 3.0);
}

TEST(GeneratedHost, ReductionDriverBitIdenticalToHandwritten) {
  const unsigned NB = 8;
  const size_t N = static_cast<size_t>(NB) * 256;

  auto Fill = [N](rt::HostBuffer<double> &B) {
    for (size_t I = 0; I != N; ++I)
      B[I] = static_cast<double>(I % 1000) * 0.001;
  };

  // Generated path: transfers, launch, copy-back and the sequential CPU
  // finish all come out of the compiled host function.
  sim::GpuDevice DevGen;
  rt::HostBuffer<double> Data(N, 0.0), Partials(NB, 0.0), Total(1, 0.0);
  Fill(Data);
  descend::gen::run_small(DevGen, Data, Partials, Total);

  // Handwritten path, step for step.
  sim::GpuDevice DevRef;
  rt::HostBuffer<double> RData(N, 0.0), RPartials(NB, 0.0), RTotal(1, 0.0);
  Fill(RData);
  auto DIn = rt::allocCopy(DevRef, RData);
  auto DOut = rt::allocCopy(DevRef, RPartials);
  descend::gen::reduce_small(DevRef, DIn, DOut);
  rt::copyToHost(RPartials, DOut);
  RTotal[0] = 0.0;
  for (size_t I = 0; I != NB; ++I)
    RTotal[0] = RTotal[0] + RPartials[I];

  EXPECT_EQ(0,
            std::memcmp(Partials.data(), RPartials.data(),
                        NB * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Total.data(), RTotal.data(), sizeof(double)));

  // Sanity: the reduction really reduced.
  double Expected = 0.0;
  for (size_t I = 0; I != N; ++I)
    Expected += static_cast<double>(I % 1000) * 0.001;
  EXPECT_NEAR(Total[0], Expected, 1e-9);
}

TEST(GeneratedHost, DriverIsRerunnable) {
  // The driver owns no global state: running it twice on fresh devices
  // gives identical results.
  const size_t N = 8 * 256;
  rt::HostBuffer<double> A(N, 1.5), B(N, 1.5);
  sim::GpuDevice D1, D2;
  descend::gen::run(D1, A);
  descend::gen::run(D2, B);
  EXPECT_EQ(0, std::memcmp(A.data(), B.data(), N * sizeof(double)));
  EXPECT_EQ(A[0], 4.5);
}

//===----------------------------------------------------------------------===//
// Graph-mode overloads: capture on the first call, replay afterwards —
// bit-identical to the synchronous GpuDevice& driver on every call.
//===----------------------------------------------------------------------===//

TEST(GeneratedHost, GraphDriverBitIdenticalToSyncAcrossReplays) {
  const size_t N = 8 * 256;
  sim::GpuDevice DevGraph, DevSync;
  DevGraph.setWorkers(4);
  sim::Stream S(DevGraph);
  sim::GraphExec G; // capture happens on the first run() call
  for (int Round = 0; Round != 5; ++Round) {
    rt::HostBuffer<double> Graph(N, 0.0), Sync(N, 0.0);
    for (size_t I = 0; I != N; ++I)
      Graph[I] = Sync[I] = static_cast<double>((I * 31 + Round) % 977) * 0.5;
    descend::gen::run(S, G, Graph);
    descend::gen::run(DevSync, Sync);
    ASSERT_EQ(0, std::memcmp(Graph.data(), Sync.data(), N * sizeof(double)))
        << "replay " << Round;
  }
  EXPECT_TRUE(G.instantiated());
  EXPECT_EQ(G.opCount(), 3u); // H2D, launch, D2H
}

TEST(GeneratedHost, GraphReductionDriverMatchesSyncIncludingHostTail) {
  // run_small has a CPU finish loop after the captured prefix: the tail
  // must re-execute per call against the replayed D2H results.
  const unsigned NB = 8;
  const size_t N = static_cast<size_t>(NB) * 256;
  sim::GpuDevice DevGraph, DevSync;
  DevGraph.setWorkers(4);
  sim::Stream S(DevGraph);
  sim::GraphExec G;
  for (int Round = 0; Round != 4; ++Round) {
    rt::HostBuffer<double> Data(N, 0.0), Partials(NB, 0.0), Total(1, 0.0);
    rt::HostBuffer<double> SData(N, 0.0), SPartials(NB, 0.0), STotal(1, 0.0);
    for (size_t I = 0; I != N; ++I)
      Data[I] = SData[I] = static_cast<double>((I + Round * 7) % 1000) * 0.001;
    descend::gen::run_small(S, G, Data, Partials, Total);
    descend::gen::run_small(DevSync, SData, SPartials, STotal);
    ASSERT_EQ(0, std::memcmp(Partials.data(), SPartials.data(),
                             NB * sizeof(double)))
        << "replay " << Round;
    ASSERT_EQ(0, std::memcmp(Total.data(), STotal.data(), sizeof(double)))
        << "replay " << Round;
  }
  EXPECT_EQ(G.opCount(), 4u); // 2x H2D, launch, D2H
}

TEST(GeneratedHost, GraphDriverRebindsFreshBuffersPerCall) {
  // Distinct host buffers per request against one captured graph: each
  // call's results land in that call's buffer.
  const size_t N = 8 * 256;
  sim::GpuDevice Dev;
  Dev.setWorkers(2);
  sim::Stream S(Dev);
  sim::GraphExec G;
  rt::HostBuffer<double> A(N, 2.0), B(N, 5.0);
  descend::gen::run(S, G, A);
  descend::gen::run(S, G, B);
  EXPECT_EQ(A[0], 6.0);
  EXPECT_EQ(B[0], 15.0);
}

TEST(GeneratedHost, GraphDriverRejectsWrongSizedRebind) {
  // The capture pins byte sizes; a later call with a differently sized
  // buffer must fail the bind eagerly (same contract as rt:: copies).
  const size_t N = 8 * 256;
  sim::GpuDevice Dev;
  Dev.setWorkers(2);
  sim::Stream S(Dev);
  sim::GraphExec G;
  rt::HostBuffer<double> Right(N, 1.0);
  descend::gen::run(S, G, Right);
  rt::HostBuffer<double> Wrong(N / 2, 1.0);
  EXPECT_THROW(descend::gen::run(S, G, Wrong), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// Stream overloads: join the stream, then run the synchronous driver on
// its device.
//===----------------------------------------------------------------------===//

bool sameBits(const rt::HostBuffer<double> &A, const rt::HostBuffer<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

TEST(GeneratedHostStream, AllOverloadsBitIdenticalToSync) {
  const size_t N = 8 * 256;
  sim::GpuDevice DevSync, DevStream, DevGraph;
  DevStream.setWorkers(4);
  DevGraph.setWorkers(4);
  sim::Stream S(DevStream), GS(DevGraph);
  sim::GraphExec GQ, GR, GA, GF; // one per driver
  for (int Round = 0; Round != 3; ++Round) {
    // quickstart
    rt::HostBuffer<double> Q[3] = {{N, 0.0}, {N, 0.0}, {N, 0.0}};
    for (auto &B : Q)
      for (size_t I = 0; I != N; ++I)
        B[I] = static_cast<double>((I * 7 + Round) % 501) * 0.125;
    descend::gen::run(DevSync, Q[0]);
    descend::gen::run(S, Q[1]);
    descend::gen::run(GS, GQ, Q[2]);
    EXPECT_TRUE(sameBits(Q[0], Q[1])) << "stream, round " << Round;
    EXPECT_TRUE(sameBits(Q[0], Q[2])) << "graph, round " << Round;

    // reduction_small, including its host finish loop
    rt::HostBuffer<double> D[3] = {{N, 0.0}, {N, 0.0}, {N, 0.0}};
    rt::HostBuffer<double> P[3] = {{8, 0.0}, {8, 0.0}, {8, 0.0}};
    rt::HostBuffer<double> T[3] = {{1, 0.0}, {1, 0.0}, {1, 0.0}};
    for (auto &B : D)
      for (size_t I = 0; I != N; ++I)
        B[I] = static_cast<double>((I + Round * 13) % 1000) * 0.001;
    descend::gen::run_small(DevSync, D[0], P[0], T[0]);
    descend::gen::run_small(S, D[1], P[1], T[1]);
    descend::gen::run_small(GS, GR, D[2], P[2], T[2]);
    for (int K : {1, 2}) {
      EXPECT_TRUE(sameBits(P[0], P[K])) << "overload " << K;
      EXPECT_TRUE(sameBits(T[0], T[K])) << "overload " << K;
    }

    // host_call_args: run_args calls fill_args with scalar arguments, and
    // fill_args is itself a driver with all three overloads.
    rt::HostBuffer<double> Lit[3] = {{16, 0.0}, {16, 0.0}, {16, 0.0}};
    rt::HostBuffer<double> Sum[3] = {{16, 0.0}, {16, 0.0}, {16, 0.0}};
    descend::gen::run_args(DevSync, Lit[0], Sum[0]);
    descend::gen::run_args(S, Lit[1], Sum[1]);
    descend::gen::run_args(GS, GA, Lit[2], Sum[2]);
    rt::HostBuffer<double> F[3] = {{16, 0.0}, {16, 0.0}, {16, 0.0}};
    const double V = 0.5 + Round;
    descend::gen::fill_args(DevSync, F[0], V);
    descend::gen::fill_args(S, F[1], V);
    descend::gen::fill_args(GS, GF, F[2], V);
    for (int K : {1, 2}) {
      EXPECT_TRUE(sameBits(Lit[0], Lit[K])) << "overload " << K;
      EXPECT_TRUE(sameBits(Sum[0], Sum[K])) << "overload " << K;
      EXPECT_TRUE(sameBits(F[0], F[K])) << "overload " << K;
    }
    EXPECT_EQ(Lit[0][15], 3.0);
    EXPECT_EQ(F[0][0], V);
  }
  // Only the capturable drivers record a graph; the others forward.
  EXPECT_TRUE(GQ.instantiated());
  EXPECT_TRUE(GR.instantiated());
  EXPECT_FALSE(GA.instantiated());
  EXPECT_FALSE(GF.instantiated());
}

TEST(GeneratedHostStream, OrderedAfterKernelAlreadyEnqueued) {
  // A slow kernel and its copy-back are enqueued first; the driver must
  // read the copied-back data, not the stale host buffer.
  const size_t N = 8 * 256;
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  rt::HostBuffer<double> Init(N, 0.0), Vec(N, -1.0);
  for (size_t I = 0; I != N; ++I)
    Init[I] = static_cast<double>(I % 97);
  auto DVec = rt::allocCopy(Dev, Init);
  sim::Stream S(Dev); // destroyed (joined) before the buffers
  S.enqueue([=, &Dev] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    descend::gen::scale_vec(Dev, DVec);
  });
  rt::copyToHostAsync(S, Vec, DVec);
  descend::gen::run(S, Vec);

  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Vec[I], Init[I] * 3.0 * 3.0) << "element " << I;
}

TEST(GeneratedHostStream, PoisonedStreamThrowsOriginalErrorBeforeWork) {
  // Trap the next launch (keeping whatever plan the environment armed),
  // and restore the plan afterwards.
  struct PlanGuard {
    sim::FaultPlan Saved = sim::FaultInjector::global().plan();
    ~PlanGuard() { sim::FaultInjector::global().setPlanForTest(Saved); }
  } Guard;
  sim::FaultPlan Trap = Guard.Saved;
  Trap.TrapAtLaunch = 1;

  const size_t N = 8 * 256;
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  sim::Stream S(Dev);
  auto DVec = Dev.alloc<double>(N);
  sim::FaultInjector::global().setPlanForTest(Trap);
  S.enqueue([=, &Dev] { descend::gen::scale_vec(Dev, DVec); });
  S.synchronize();
  sim::FaultInjector::global().setPlanForTest(Guard.Saved);
  ASSERT_EQ(S.error(), sim::ErrorCode::KernelTrap);
  // The device heals; the stream stays poisoned.
  Dev.reset();
  ASSERT_FALSE(Dev.poisoned());

  rt::HostBuffer<double> Vec(N, 2.0);
  try {
    descend::gen::run(S, Vec);
    FAIL() << "expected the stream's sticky error";
  } catch (const rt::Error &E) {
    EXPECT_EQ(E.code(), sim::ErrorCode::KernelTrap);
    EXPECT_NE(std::string(E.what()).find("stream poisoned"),
              std::string::npos)
        << E.what();
  }
  // No work ran: the host buffer is untouched and the device healthy.
  EXPECT_EQ(Vec[0], 2.0);
  EXPECT_EQ(Vec[N - 1], 2.0);
  EXPECT_FALSE(Dev.poisoned());
}

TEST(GeneratedHostStream, CapturingStreamIsRejected) {
  // The driver would run eagerly instead of being recorded: refuse.
  const size_t N = 8 * 256;
  sim::GpuDevice Dev;
  Dev.setWorkers(2);
  sim::Stream S(Dev);
  rt::HostBuffer<double> Vec(N, 2.0);
  S.beginCapture();
  EXPECT_THROW(descend::gen::run(S, Vec), std::logic_error);
  sim::Graph G = S.endCapture();
  EXPECT_EQ(G.opCount(), 0u);
  EXPECT_EQ(Vec[0], 2.0);
  // The stream still works once the capture is over.
  descend::gen::run(S, Vec);
  EXPECT_EQ(Vec[0], 6.0);
}

TEST(GeneratedHostStream, TwoHostThreadsShareOneDevice) {
  // Each host thread drives its own stream of one 4-worker device.
  const size_t N = 8 * 256;
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  auto Fill = [N](rt::HostBuffer<double> &B, int Round) {
    for (size_t I = 0; I != N; ++I)
      B[I] = static_cast<double>((I * 3 + Round) % 1000) * 0.01;
  };
  const int Rounds = 20;
  bool QuickOk = true, ReduceOk = true;
  std::thread Quick([&] {
    sim::Stream S(Dev);
    sim::GpuDevice Ref;
    for (int R = 0; R != Rounds; ++R) {
      rt::HostBuffer<double> A(N, 0.0), B(N, 0.0);
      Fill(A, R);
      Fill(B, R);
      descend::gen::run(S, A);
      descend::gen::run(Ref, B);
      QuickOk &= sameBits(A, B);
    }
  });
  std::thread Reduce([&] {
    sim::Stream S(Dev);
    sim::GpuDevice Ref;
    for (int R = 0; R != Rounds; ++R) {
      rt::HostBuffer<double> D(N, 0.0), P(8, 0.0), T(1, 0.0);
      rt::HostBuffer<double> RD(N, 0.0), RP(8, 0.0), RT(1, 0.0);
      Fill(D, R);
      Fill(RD, R);
      descend::gen::run_small(S, D, P, T);
      descend::gen::run_small(Ref, RD, RP, RT);
      ReduceOk &= sameBits(P, RP) && sameBits(T, RT);
    }
  });
  Quick.join();
  Reduce.join();
  EXPECT_TRUE(QuickOk);
  EXPECT_TRUE(ReduceOk);
}

} // namespace

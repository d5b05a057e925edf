//===- tests/codegen_test.cpp - CUDA/sim backend tests --------------------===//

#include "codegen/Backend.h"

#include "codegen/PhaseIR.h"
#include "driver/Pipeline.h"
#include "kir/KIR.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace descend;

namespace {

struct Gen {
  std::string Cuda, Sim, Error;
  bool Ok = false;
};

Gen generate(const std::string &Src,
             std::map<std::string, long long> Defines = {}) {
  Gen G;
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.Defines = std::move(Defines);
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  if (!S.run(Src).Ok) {
    G.Error = S.renderDiagnostics();
    return G;
  }
  const codegen::BackendRegistry &R = codegen::BackendRegistry::instance();
  codegen::GenResult Cuda =
      R.lookup("cuda")->emit(*S.module(), codegen::BackendOptions());
  if (!Cuda.Ok) {
    G.Error = Cuda.Error;
    return G;
  }
  G.Cuda = std::move(Cuda.Code);
  codegen::GenResult Sim =
      R.lookup("sim")->emit(*S.module(), codegen::BackendOptions());
  if (!Sim.Ok) {
    G.Error = Sim.Error;
    return G;
  }
  G.Sim = std::move(Sim.Code);
  G.Ok = true;
  return G;
}

const char *ScaleVec = R"(
fn scale_vec(vec: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<4>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)";

TEST(CudaGen, ScaleVecKernel) {
  Gen G = generate(ScaleVec);
  ASSERT_TRUE(G.Ok) << G.Error;
  // The kernel signature and the fully simplified selection index.
  EXPECT_NE(G.Cuda.find("__global__ void scale_vec(double *vec)"),
            std::string::npos)
      << G.Cuda;
  // The fully simplified selection index is computed once (index CSE)
  // and reused by the load and the store.
  EXPECT_NE(G.Cuda.find("const long long _i0 = blockIdx.x * 256 + "
                        "threadIdx.x;"),
            std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("vec[_i0] = (vec[_i0] * 3.0);"), std::string::npos)
      << G.Cuda;
  // No view machinery survives into the generated code.
  EXPECT_EQ(G.Cuda.find("group"), std::string::npos);
}

TEST(CudaGen, SharedRefBecomesConstPointer) {
  Gen G = generate(R"(
fn copy(src: & gpu.global [f64; 256], dst: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      dst.group::<256>[[block]][[thread]] =
        src.group::<256>[[block]][[thread]]
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("const double *src, double *dst"),
            std::string::npos)
      << G.Cuda;
}

TEST(CudaGen, TransposeMatchesListing1Indexing) {
  Gen G = generate(R"(
view group_by_row<row_size: nat, num_rows: nat> =
  group::<row_size/num_rows>.transpose.map(transpose)
view group_by_tile<th: nat, tw: nat> =
  group::<th>.map(map(group::<tw>)).map(transpose)
fn transpose<n: nat>(input: & gpu.global [[f64; n]; n],
                     output: &uniq gpu.global [[f64; n]; n])
-[grid: gpu.grid<XY<n/32, n/32>, XY<32, 8>>]-> () {
  sched(Y, X) block in grid {
    let tmp = alloc::<gpu.shared, [[f64; 32]; 32]>();
    sched(Y, X) thread in block {
      for i in [0..4] {
        tmp.group_by_row::<32, 4>[[thread]][i] =
          input.group_by_tile::<32, 32>.transpose[[block]]
            .group_by_row::<32, 4>[[thread]][i]
      };
      sync;
      for i in [0..4] {
        output.group_by_tile::<32, 32>[[block]]
          .group_by_row::<32, 4>[[thread]][i] =
          tmp.transpose.group_by_row::<32, 4>[[thread]][i]
      }
    }
  }
}
)",
                   {{"n", 2048}});
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("__shared__ double tmp[1024];"), std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("__syncthreads();"), std::string::npos);
  // The store into tmp is the fixed Listing 1 index (ty + 8i) * 32 + tx,
  // in canonical polynomial order (coordinates sort before the loop
  // variable since lowering spells them _tx/_ty).
  EXPECT_NE(G.Cuda.find("tmp[threadIdx.x + threadIdx.y * 32 + i * 256]"),
            std::string::npos)
      << G.Cuda;
  // The input read matches (32 bx + ty + 8i) * 2048 + 32 by + tx.
  EXPECT_NE(G.Cuda.find("input[blockIdx.x * 65536 + blockIdx.y * 32 + "
                        "threadIdx.x + threadIdx.y * 2048 + i * 16384]"),
            std::string::npos)
      << G.Cuda;
}

TEST(CudaGen, SplitBecomesIfElse) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    split(X) block at 32 {
      lo => { sched(X) t in lo { arr.split::<32>.fst[[t]] = 0.0 } },
      hi => { sched(X) t in hi { arr.split::<32>.snd[[t]] = 1.0 } }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("if (threadIdx.x < 32) {"), std::string::npos)
      << G.Cuda;
  // snd-arm coordinates are rebased: local t = threadIdx.x - 32, and the
  // split view adds the 32 back: the two cancel.
  EXPECT_NE(G.Cuda.find("arr[threadIdx.x] = 1.0;"), std::string::npos)
      << G.Cuda;
}

TEST(CudaGen, HostFunctionUsesCudaApi) {
  Gen G = generate(R"(
fn scale_vec(vec: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<4>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([1.0; 1024]);
  let d = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<X<4>, X<256>>>>(&uniq d);
  copy_mem_to_host(&uniq h, &d)
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("std::vector<double> h(1024, 1"), std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("cudaMalloc(&d, sizeof(double) * (1024));"),
            std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("cudaMemcpyHostToDevice"), std::string::npos);
  EXPECT_NE(G.Cuda.find("scale_vec<<<dim3(4, 1, 1), dim3(256, 1, 1)>>>(d);"),
            std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("cudaMemcpy(h.data(), d"), std::string::npos);
  EXPECT_NE(G.Cuda.find("cudaDeviceSynchronize();"), std::string::npos);
  // hostgen releases every device allocation before returning.
  EXPECT_NE(G.Cuda.find("cudaFree(d);"), std::string::npos) << G.Cuda;
}

TEST(SimGen, PhasesSplitAtSync) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      tmp[[thread]] = arr.group::<256>[[block]][[thread]];
      sync;
      arr.group::<256>[[block]][[thread]] = tmp.rev[[thread]]
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  // Two phases (two lambdas) and a reversed shared read in the second.
  size_t First = G.Sim.find("[&](BlockCtx &_b, ThreadCtx &_t)");
  ASSERT_NE(First, std::string::npos);
  size_t Second =
      G.Sim.find("[&](BlockCtx &_b, ThreadCtx &_t)", First + 1);
  EXPECT_NE(Second, std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("255 - _tx"), std::string::npos) << G.Sim;
  // No __syncthreads in the sim backend.
  EXPECT_EQ(G.Sim.find("__syncthreads"), std::string::npos);
}

TEST(SimGen, LocalsSpillAcrossPhases) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      let acc = 1.5;
      sync;
      arr.group::<256>[[block]][[thread]] = acc
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  // Spill before the phase boundary, reload after.
  EXPECT_NE(G.Sim.find("_b.shared<double>(_locals_base + 0)[_lin] = acc_0;"),
            std::string::npos)
      << G.Sim;
  EXPECT_NE(G.Sim.find(
                "double acc_0 = _b.shared<double>(_locals_base + 0)[_lin];"),
            std::string::npos)
      << G.Sim;
}

TEST(SimGen, RequiresConcreteDimensions) {
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k<n: nat>(arr: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<1>, X<n>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<n>[[block]][[thread]] = 0.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reached, Stage::Typecheck);
  EXPECT_TRUE(R.Artifact.empty());
  EXPECT_NE(S.renderDiagnostics().find("--define"), std::string::npos)
      << S.renderDiagnostics();
}

/// Occurrences of \p Needle in \p Hay.
size_t countOf(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + 1))
    ++N;
  return N;
}

/// Counts the phase lambdas of a generated sim artifact.
size_t phaseLambdaCount(const std::string &Sim) {
  return countOf(Sim, "[&](BlockCtx");
}

TEST(SimGen, SyncLoopsBecomePhaseLoops) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      for s in [0..3] {
        tmp[[thread]] = arr.group::<256>[[block]][[thread]];
        sync
      }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  // The loop survives as host-side structure: one phase lambda inside a
  // loopBegin/loopEnd pair, not three unrolled copies.
  EXPECT_EQ(phaseLambdaCount(G.Sim), 1u) << G.Sim;
  EXPECT_NE(G.Sim.find("_prog.loopBegin(0"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("return 3; }"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("_prog.loopEnd();"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("launchProgram"), std::string::npos) << G.Sim;
}

TEST(SimGen, LoopFreeKernelsKeepVariadicLaunch) {
  // Straight-line kernels stay on the direct launchPhases path (no type
  // erasure in the per-thread calls).
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      tmp[[thread]] = arr.group::<256>[[block]][[thread]];
      sync;
      arr.group::<256>[[block]][[thread]] = tmp.rev[[thread]]
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Sim.find("launchPhases"), std::string::npos) << G.Sim;
  EXPECT_EQ(G.Sim.find("PhaseProgram"), std::string::npos) << G.Sim;
}

TEST(SimGen, CoordinatesAreUnsignedOnlyWhereIndicesFit32Bits) {
  // `_bx * 256 + _tx` peaks at nb * 256 - 1: with nb = 2^24 that is
  // 2^32 - 1 and unsigned coordinates compute it exactly; one block more
  // and it would wrap, so the body keeps long long coordinates.
  const char *Src = R"(
fn scale_vec<nb: nat>(vec: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)";
  Gen Fits = generate(Src, {{"nb", 1ll << 24}});
  ASSERT_TRUE(Fits.Ok) << Fits.Error;
  EXPECT_NE(Fits.Sim.find("const unsigned _tx = _t.X"), std::string::npos)
      << Fits.Sim;
  Gen Wraps = generate(Src, {{"nb", (1ll << 24) + 1}});
  ASSERT_TRUE(Wraps.Ok) << Wraps.Error;
  EXPECT_NE(Wraps.Sim.find("const long long _tx = _t.X"), std::string::npos)
      << Wraps.Sim;
  EXPECT_EQ(Wraps.Sim.find("const unsigned"), std::string::npos) << Wraps.Sim;
}

TEST(SimGen, CoordinateGuardsNarrowUnsignedRanges) {
  // A split's high half reads `_tx - 1`, which is non-negative only
  // because the guard `_tx < 1` failed there: the check narrows the
  // coordinate per branch, so every phase keeps unsigned coordinates.
  Gen G = generate(R"(
fn shift(input: & gpu.global [f64; 256], out: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    split(X) block at 1 {
      low => {
        sched(X) t in low {
          out.split::<1>.fst[[t]] = input.split::<1>.fst[[t]]
        }
      },
      high => {
        sched(X) t in high {
          out.split::<1>.snd[[t]] = input.split::<255>.fst[[t]]
        }
      }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Sim.find("_tx - 1"), std::string::npos) << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "const long long _tx"), 0u) << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "const unsigned _tx"), phaseLambdaCount(G.Sim))
      << G.Sim;
}

TEST(SimGen, IterationDependentBoundsAreLegal) {
  // The inner bound depends on the outer loop variable: impossible to
  // unroll, lowered as nested PhaseLoops with the bound read from the
  // block's loop-variable slots at runtime.
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      for s in [0..4] {
        for u in [0..s+1] {
          tmp[[thread]] = arr.group::<256>[[block]][[thread]];
          sync
        }
      }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Sim.find("_prog.loopBegin(1"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("const long long s = _b.loopVar(0); (void)s; "
                       "return 1 + s;"),
            std::string::npos)
      << G.Sim;
}

TEST(SimGen, SplitLoopsKeepPreciseStaticBoundsDiagnostic) {
  // Split positions (and part shapes) change per iteration, so loops
  // containing split are genuinely static: symbolic bounds stay an error,
  // now with a diagnostic naming the reason.
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k<m: nat>(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    for s in [0..m] {
      split(X) block at 128 {
        lo => { sched(X) t in lo { arr.split::<128>.fst[[t]] = 0.0 } },
        hi => { sched(X) t in hi { arr.split::<128>.snd[[t]] = 1.0 } }
      }
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  std::string Rendered = S.renderDiagnostics();
  EXPECT_NE(Rendered.find("loops containing split need static bounds"),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("[0..m]"), std::string::npos) << Rendered;
}

TEST(SimGen, UninstantiatedLoopBoundIsDiagnosed) {
  // A free size variable in a sync-loop bound cannot be emitted (nothing
  // declares it in the generated code): it must be a clean diagnostic
  // pointing at --define, not silently uncompilable output.
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k<m: nat>(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      for s in [0..m] {
        tmp[[thread]] = arr.group::<256>[[block]][[thread]];
        sync
      }
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  std::string Rendered = S.renderDiagnostics();
  EXPECT_NE(Rendered.find("uninstantiated size variable `m`"),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("--define"), std::string::npos) << Rendered;
}

//===----------------------------------------------------------------------===//
// The Figure 8 matmul through the phase-program IR
//===----------------------------------------------------------------------===//

std::string readKernelFile(const std::string &Name) {
  std::ifstream In(std::string(DESCEND_KERNEL_DIR "/") + Name);
  EXPECT_TRUE(In.good()) << "missing kernel " << Name;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compiles kernels/matmul.descend at tile count \p Nt and returns the
/// sim artifact.
std::string matmulSim(long long Nt) {
  Gen G = generate(readKernelFile("matmul.descend"), {{"nt", Nt}});
  EXPECT_TRUE(G.Ok) << G.Error;
  return G.Sim;
}

TEST(SimGen, MatmulPhaseCountIndependentOfNt) {
  std::string Small = matmulSim(4);
  std::string Large = matmulSim(32);
  // Constant number of phase lambdas (init, tile load, mac, write back)
  // regardless of the tile count; only the loop bound differs.
  EXPECT_EQ(phaseLambdaCount(Small), 4u) << Small;
  EXPECT_EQ(phaseLambdaCount(Large), 4u) << Large;
  EXPECT_NE(Small.find("return 4; }"), std::string::npos) << Small;
  EXPECT_NE(Large.find("return 32; }"), std::string::npos) << Large;
}

TEST(SimGen, ReduceGuardsBecomeThreadSplits) {
  // Every `split(X) block at k { active => ..., idle => {} }` of the
  // reduction lowers to an `if (_tx < k)` phase with an empty else; the
  // sim backend prints each as a sim::split over [0, k) with an idle
  // else side, still one phase lambda per phase. CUDA keeps the guard.
  Gen G = generate(readKernelFile("reduce.descend"), {{"nb", 8}});
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(countOf(G.Sim, "descend::sim::split(descend::sim::ThreadX, "),
            9u)
      << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "}, descend::sim::idle)"), 9u) << G.Sim;
  for (const char *At : {"128,", "64,", "32,", "16,", "8,", "4,", "2,"})
    EXPECT_NE(G.Sim.find(std::string("ThreadX, ") + At), std::string::npos)
        << At;
  EXPECT_EQ(countOf(G.Sim, "ThreadX, 1,"), 2u) << G.Sim;
  EXPECT_EQ(G.Sim.find("if (_tx"), std::string::npos) << G.Sim;
  EXPECT_EQ(phaseLambdaCount(G.Sim), 10u) << G.Sim;
  EXPECT_NE(G.Cuda.find("if (threadIdx.x < 128) {"), std::string::npos)
      << G.Cuda;
}

TEST(SimGen, OtherGuardsStayGuarded) {
  // scan_blocks: the eight stride steps are two-sided splits (`if
  // constexpr` picks the side); its last phase stores and then guards,
  // so it is not a sole If and keeps `if (_tx < 1)`. add_sums guards a
  // block coordinate, which no thread range can express.
  Gen G = generate(readKernelFile("scan.descend"), {{"nb", 8}});
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(countOf(G.Sim, "descend::sim::split("), 8u) << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "descend::sim::idle"), 0u) << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "if constexpr (_then) {"), 8u) << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "if (_tx < 1) {"), 1u) << G.Sim;
  EXPECT_EQ(countOf(G.Sim, "if (_bx < 1) {"), 1u) << G.Sim;
  EXPECT_EQ(phaseLambdaCount(G.Sim), 11u) << G.Sim;

  // A bound reading a thread coordinate cannot come from Descend source
  // (split positions are nats over block-level names), so it is checked
  // on the IR the backend consults.
  kir::Stmt Guard = kir::Stmt::ifLt(Nat::var("_tx"), Nat::var("_ty"));
  Guard.Then.push_back(kir::Stmt::letIndex("i", Nat::lit(0)));
  std::vector<kir::Stmt> Body;
  Body.push_back(std::move(Guard));
  kir::ThreadSplit Split;
  EXPECT_FALSE(kir::threadSplit(Body, Split));
}

TEST(PhaseIR, DumpPrintsLoopBounds) {
  CompilerInvocation Inv;
  Inv.BufferName = "matmul.descend";
  Inv.Defines["nt"] = 4;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  ASSERT_TRUE(S.run(readKernelFile("matmul.descend")).Ok)
      << S.renderDiagnostics();
  std::string Dump, Error;
  ASSERT_TRUE(codegen::dumpPhasePrograms(*S.module(), Dump, Error)) << Error;
  EXPECT_NE(Dump.find("straight phases: 4"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("max loop depth: 1"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("loop t in [0..4) slot 0"), std::string::npos) << Dump;
}

TEST(CudaGen, MatmulMatchesGolden) {
  // tests/goldens/matmul.cu pins the emitted CUDA matmul byte for byte:
  // it was captured before the KIR refactor and updated intentionally
  // with the index-CSE/naming changes, so any emission drift is a
  // deliberate, reviewed golden update.
  std::ifstream In(DESCEND_GOLDEN_DIR "/matmul.cu");
  ASSERT_TRUE(In.good()) << "missing golden matmul.cu";
  std::stringstream SS;
  SS << In.rdbuf();
  Gen G = generate(readKernelFile("matmul.descend"), {{"nt", 4}});
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(G.Cuda, SS.str());
}

TEST(CudaGen, MatmulTileLoopKeepsSyncthreads) {
  Gen G = generate(readKernelFile("matmul.descend"), {{"nt", 4}});
  ASSERT_TRUE(G.Ok) << G.Error;
  // The tile loop survives as a real for with the barriers inside, the
  // way a CUDA programmer writes it — no unrolled copies.
  size_t LoopPos = G.Cuda.find("for (long long t = 0; t < 4; ++t) {");
  ASSERT_NE(LoopPos, std::string::npos) << G.Cuda;
  size_t SyncPos = G.Cuda.find("__syncthreads();", LoopPos);
  size_t ClosePos = G.Cuda.find("\n  }", LoopPos);
  ASSERT_NE(SyncPos, std::string::npos) << G.Cuda;
  ASSERT_NE(ClosePos, std::string::npos) << G.Cuda;
  EXPECT_LT(SyncPos, ClosePos) << "__syncthreads() must sit inside the "
                                  "tile loop:\n"
                               << G.Cuda;
}

} // namespace

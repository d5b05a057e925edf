//===- tests/vm_test.cpp - VM backend vs generated simulator code -----------===//
//
// The acceptance gate for the vm backend: interpreting the compiled
// bytecode must be *bit-identical* to running the C++ the sim backend
// generated at build time — for every kernel in kernels/*.descend at the
// test footprints and for the host-bearing programs/*.descend drivers.
// Same inputs, same launch, memcmp over the raw output bytes: the two
// execution paths (text -> C++ -> compiler -> binary vs text -> bytecode
// -> interpreter) may not disagree in a single bit.
//
// Also covers the CompileService LRU cache semantics (hit/miss/eviction,
// and the key discipline: same source at a different -D binding is a
// distinct entry).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "vm/Interp.h"

#include "gen_host_call_args.h"      // fill_args + run_args
#include "gen_matmul_small.h"         // matmul                   (nt=4)
#include "gen_quickstart_host.h"      // scale_vec + run          (nb=8)
#include "gen_reduce_small.h"         // reduce                   (nb=8)
#include "gen_reduction_host_small.h" // reduce_small + run_small (nb=8)
#include "gen_scan_small.h"           // scan_blocks + add_sums   (nb=8)
#include "gen_transpose_small.h"      // transpose                (n=128)

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace descend;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compiles \p Path through the front end and vm::compile; fails the test
/// (and returns null) on any diagnostic.
std::shared_ptr<const vm::CompiledProgram>
compileVm(const std::string &Path,
          std::map<std::string, long long> Defines) {
  CompilerInvocation Inv;
  Inv.BufferName = Path;
  Inv.Defines = std::move(Defines);
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  CompileResult R = S.run(readFile(Path));
  EXPECT_TRUE(R.Ok) << S.renderDiagnostics();
  if (!R.Ok)
    return nullptr;
  vm::CompileVmResult C = vm::compile(*S.module());
  EXPECT_TRUE(C.Ok) << C.Error;
  return C.Ok ? C.Program : nullptr;
}

/// Deterministic input data shared by both execution paths.
double fillVal(size_t I) {
  return static_cast<double>((I * 37) % 101) * 0.5 - 3.0;
}

double *devData(vm::DevBuf &B) {
  return reinterpret_cast<double *>(B.Data);
}

//===----------------------------------------------------------------------===//
// Kernel bit-equality: interpreter vs build-time generated sim code
//===----------------------------------------------------------------------===//

TEST(VmKernel, TransposeBitIdenticalToGeneratedSim) {
  const int N = 128;
  auto P = compileVm(DESCEND_KERNEL_DIR "/transpose.descend", {{"n", N}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("transpose");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto In = DG.alloc<double>(N * N);
  auto Out = DG.alloc<double>(N * N);
  sim::GpuDevice DV;
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, N * N);
  for (int I = 0; I != N * N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::transpose(DG, In, Out);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VIn, VOut});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, N * N * sizeof(double)));
  // Sanity against a closed form, not just against the twin.
  EXPECT_EQ(devData(VOut)[3 * N + 5], fillVal(5 * N + 3));
}

TEST(VmKernel, ReduceBitIdenticalToGeneratedSim) {
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("reduce");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto In = DG.alloc<double>(N);
  auto Out = DG.alloc<double>(NB);
  sim::GpuDevice DV;
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::reduce(DG, In, Out);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VIn, VOut});
  ASSERT_TRUE(St.Ok) << St.Error;

  // The tree reduction sums in a fixed association order; bit-equality
  // holds exactly because the interpreter replays the same order.
  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, NB * sizeof(double)));
}

TEST(VmKernel, ScanBothKernelsBitIdenticalToGeneratedSim) {
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/scan.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *KScan = P->findKernel("scan_blocks");
  const vm::VmKernel *KAdd = P->findKernel("add_sums");
  ASSERT_NE(KScan, nullptr);
  ASSERT_NE(KAdd, nullptr);

  sim::GpuDevice DG;
  auto In = DG.alloc<double>(N);
  auto Out = DG.alloc<double>(N);
  auto Sums = DG.alloc<double>(NB);
  auto Offs = DG.alloc<double>(NB);
  sim::GpuDevice DV;
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VSums = vm::allocDev(DV, ScalarKind::F64, NB);
  vm::DevBuf VOffs = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::scan_blocks(DG, In, Out, Sums);
  ASSERT_TRUE(vm::launchKernel(DV, *KScan, {VIn, VOut, VSums}).Ok);
  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, N * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Sums.data(), VSums.Data, NB * sizeof(double)));

  // The paper's two-kernel structure: the host scans the block totals
  // (inclusive), the second kernel adds the offsets. Same host math on
  // both paths.
  double Acc = 0.0, VAcc = 0.0;
  for (int B = 0; B != NB; ++B) {
    Acc += Sums.data()[B];
    Offs.data()[B] = Acc;
    VAcc += devData(VSums)[B];
    devData(VOffs)[B] = VAcc;
  }
  descend::gen::add_sums(DG, Out, Offs);
  ASSERT_TRUE(vm::launchKernel(DV, *KAdd, {VOut, VOffs}).Ok);
  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, N * sizeof(double)));
}

/// Straight nodes of \p K split on `_tx`, counting the idle-else ones
/// into \p Idle.
unsigned splitNodes(const std::vector<vm::VmNode> &Nodes, unsigned &Idle) {
  unsigned N = 0;
  for (const vm::VmNode &Nd : Nodes) {
    if (Nd.K == vm::VmNode::Loop) {
      N += splitNodes(Nd.Children, Idle);
      continue;
    }
    if (Nd.SplitDim == 0) {
      ++N;
      Idle += Nd.Else.Instrs.empty();
    }
  }
  return N;
}

TEST(VmKernel, SplitReduceAndScanMatchGeneratedBitsAndCounters) {
  // The vm runs the reduction's nine guarded phases and the scan's eight
  // stride steps as thread splits, like the generated headers: same
  // output bits, same counters phase by phase, same race log, with every
  // observer on.
  const int NB = 8, N = NB * 256;
  auto PR = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  auto PS = compileVm(DESCEND_KERNEL_DIR "/scan.descend", {{"nb", NB}});
  ASSERT_TRUE(PR && PS);
  const vm::VmKernel *KRed = PR->findKernel("reduce");
  const vm::VmKernel *KScan = PS->findKernel("scan_blocks");
  const vm::VmKernel *KAdd = PS->findKernel("add_sums");
  ASSERT_TRUE(KRed && KScan && KAdd);
  unsigned Idle = 0;
  EXPECT_EQ(splitNodes(KRed->Nodes, Idle), 9u);
  EXPECT_EQ(Idle, 9u);
  Idle = 0;
  EXPECT_EQ(splitNodes(KScan->Nodes, Idle), 8u);
  EXPECT_EQ(Idle, 0u);
  EXPECT_EQ(splitNodes(KAdd->Nodes, Idle), 0u);

  sim::GpuDevice DG, DV;
  for (sim::GpuDevice *D : {&DG, &DV}) {
    D->setCounters(true);
    D->setRaceDetection(true);
    D->setBoundsChecking(true);
  }
  auto Compare = [&](const char *Kernel) {
    SCOPED_TRACE(Kernel);
    EXPECT_EQ(DG.lastLaunchStats(), DV.lastLaunchStats());
    EXPECT_EQ(DG.accessLogSize(), DV.accessLogSize());
    EXPECT_TRUE(DG.findRaces().empty());
    EXPECT_TRUE(DV.findRaces().empty());
    EXPECT_TRUE(DV.boundsViolations().empty());
    DG.clearLogs();
    DV.clearLogs();
  };

  auto In = DG.alloc<double>(N);
  auto RedOut = DG.alloc<double>(NB);
  auto ScanOut = DG.alloc<double>(N);
  auto Sums = DG.alloc<double>(NB);
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VRedOut = vm::allocDev(DV, ScalarKind::F64, NB);
  vm::DevBuf VScanOut = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VSums = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::reduce(DG, In, RedOut);
  ASSERT_TRUE(vm::launchKernel(DV, *KRed, {VIn, VRedOut}).Ok);
  Compare("reduce");
  EXPECT_EQ(0, std::memcmp(RedOut.data(), VRedOut.Data, NB * sizeof(double)));

  descend::gen::scan_blocks(DG, In, ScanOut, Sums);
  ASSERT_TRUE(vm::launchKernel(DV, *KScan, {VIn, VScanOut, VSums}).Ok);
  Compare("scan_blocks");
  EXPECT_EQ(0, std::memcmp(ScanOut.data(), VScanOut.Data, N * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Sums.data(), VSums.Data, NB * sizeof(double)));

  descend::gen::add_sums(DG, ScanOut, Sums);
  ASSERT_TRUE(vm::launchKernel(DV, *KAdd, {VScanOut, VSums}).Ok);
  Compare("add_sums");
  EXPECT_EQ(0, std::memcmp(ScanOut.data(), VScanOut.Data, N * sizeof(double)));
}

TEST(VmKernel, MatmulBitIdenticalToGeneratedSim) {
  const int NT = 4, N = NT * 16;
  auto P = compileVm(DESCEND_KERNEL_DIR "/matmul.descend", {{"nt", NT}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("matmul");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto A = DG.alloc<double>(N * N);
  auto B = DG.alloc<double>(N * N);
  auto C = DG.alloc<double>(N * N);
  sim::GpuDevice DV;
  vm::DevBuf VA = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VB = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VC = vm::allocDev(DV, ScalarKind::F64, N * N);
  for (int I = 0; I != N * N; ++I) {
    A.data()[I] = devData(VA)[I] = fillVal(I);
    B.data()[I] = devData(VB)[I] = fillVal(I + 17);
  }

  descend::gen::matmul(DG, A, B, C);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VA, VB, VC});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(C.data(), VC.Data, N * N * sizeof(double)));
}

TEST(VmKernel, ScaleVecBitIdenticalToGeneratedSim) {
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/scale_vec.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("scale_vec");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto Vec = DG.alloc<double>(N);
  sim::GpuDevice DV;
  vm::DevBuf VVec = vm::allocDev(DV, ScalarKind::F64, N);
  for (int I = 0; I != N; ++I)
    Vec.data()[I] = devData(VVec)[I] = fillVal(I);

  descend::gen::scale_vec(DG, Vec);
  ASSERT_TRUE(vm::launchKernel(DV, *K, {VVec}).Ok);
  EXPECT_EQ(0, std::memcmp(Vec.data(), VVec.Data, N * sizeof(double)));
}

TEST(VmKernel, HonorsRaceDetectorSequentialMode) {
  // The interpreter logs shared/global accesses through the same
  // BlockCtx/GpuDevice hooks as generated code, so a race-free kernel
  // must stay race-free under detection (which forces sequential
  // single-worker execution).
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("reduce");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DV;
  DV.setRaceDetection(true);
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    devData(VIn)[I] = fillVal(I);

  ASSERT_TRUE(vm::launchKernel(DV, *K, {VIn, VOut}).Ok);
  auto Races = DV.findRaces();
  EXPECT_TRUE(Races.empty())
      << Races.size() << " races; first: " << Races[0].str();
}

TEST(VmKernel, ReportsOutOfRangeLaunchArguments) {
  const int NB = 8;
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("reduce");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DV;
  vm::DevBuf Small = vm::allocDev(DV, ScalarKind::F64, 16); // wrong size
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, NB);
  vm::RunStatus St = vm::launchKernel(DV, *K, {Small, VOut});
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("input"), std::string::npos) << St.Error;
}

//===----------------------------------------------------------------------===//
// Negative group: corrupted bytecode must trap, never hit UB. Runs under
// ASan/UBSan in CI — any unchecked register/const/jump index would fire
// there.
//===----------------------------------------------------------------------===//

namespace {
/// One-straight-node kernel around \p Body, no parameters.
vm::VmKernel corruptKernel(std::vector<vm::Instr> Body, unsigned NumRegs) {
  vm::VmKernel K;
  K.Name = "corrupt";
  K.Grid = sim::Dim3{1};
  K.Block = sim::Dim3{1};
  K.StraightPhases = 1;
  vm::VmNode N;
  N.K = vm::VmNode::Straight;
  N.Body.Instrs = std::move(Body);
  N.Body.NumRegs = NumRegs;
  K.Nodes.push_back(std::move(N));
  return K;
}

vm::Instr instr(vm::Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
                int32_t Imm = 0) {
  vm::Instr I;
  I.K = O;
  I.A = A;
  I.B = B;
  I.C = C;
  I.Imm = Imm;
  return I;
}
} // namespace

TEST(VmValidate, RejectsOutOfRangeRegisterIndices) {
  // r5 with a 1-register file — the dispatch loop would index past the
  // register vector.
  auto K = corruptKernel({instr(vm::Op::Move, /*A=*/5, /*B=*/0)},
                         /*NumRegs=*/1);
  vm::RunStatus V = vm::validateKernel(K);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("register"), std::string::npos) << V.Error;

  // launchKernel refuses it too (same check, before anything runs).
  sim::GpuDevice DV;
  vm::RunStatus St = vm::launchKernel(DV, K, {});
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("invalid bytecode"), std::string::npos)
      << St.Error;
  EXPECT_FALSE(DV.poisoned()) << "rejected bytecode must not poison";
}

TEST(VmValidate, RejectsBitFlippedOpcode) {
  auto K = corruptKernel({instr(static_cast<vm::Op>(0xEF))}, 1);
  vm::RunStatus V = vm::validateKernel(K);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("opcode"), std::string::npos) << V.Error;
}

TEST(VmValidate, RejectsMalformedThreadSplits) {
  // A split on a fourth thread dimension, and a split position program
  // with an out-of-range register: both rejected before anything runs.
  auto BadDim = corruptKernel({instr(vm::Op::Ret)}, 1);
  BadDim.Nodes[0].SplitDim = 3;
  vm::RunStatus V1 = vm::validateKernel(BadDim);
  EXPECT_FALSE(V1.Ok);
  EXPECT_NE(V1.Error.find("splits dimension 3"), std::string::npos)
      << V1.Error;

  auto BadAt = corruptKernel({instr(vm::Op::Ret)}, 1);
  BadAt.Nodes[0].SplitDim = 0;
  BadAt.Nodes[0].At.Instrs = {instr(vm::Op::RetVal, /*A=*/4)};
  BadAt.Nodes[0].At.NumRegs = 1;
  vm::RunStatus V2 = vm::validateKernel(BadAt);
  EXPECT_FALSE(V2.Ok);
  EXPECT_NE(V2.Error.find("split position"), std::string::npos) << V2.Error;
}

TEST(VmValidate, RejectsTruncatedArtifactShapes) {
  // A constant pool shorter than the Const index refers to — what a
  // truncated artifact looks like after deserialization.
  auto Trunc = corruptKernel({instr(vm::Op::Const, 0, 0, 0, /*Imm=*/3)}, 1);
  vm::RunStatus V1 = vm::validateKernel(Trunc);
  EXPECT_FALSE(V1.Ok);
  EXPECT_NE(V1.Error.find("constant index"), std::string::npos) << V1.Error;

  // Jump past the instruction vector (backwards, via a negative Imm).
  auto BadJmp = corruptKernel({instr(vm::Op::Jmp, 0, 0, 0, /*Imm=*/-7)}, 1);
  vm::RunStatus V2 = vm::validateKernel(BadJmp);
  EXPECT_FALSE(V2.Ok);
  EXPECT_NE(V2.Error.find("jump target"), std::string::npos) << V2.Error;

  // A global access against a parameter the kernel does not have.
  auto BadBuf = corruptKernel(
      {instr(vm::Op::LoadGlobal, 0, 0,
             static_cast<uint16_t>(ScalarKind::F64), /*Imm=*/2)},
      1);
  vm::RunStatus V3 = vm::validateKernel(BadBuf);
  EXPECT_FALSE(V3.Ok);
  EXPECT_NE(V3.Error.find("buffer index"), std::string::npos) << V3.Error;

  // Wide ops implicitly use r[A+1]: A = NumRegs-1 is out of range.
  auto BadWide = corruptKernel(
      {instr(vm::Op::LoadShared2, /*A=*/1, 0,
             static_cast<uint16_t>(ScalarKind::F64), /*Imm=*/0)},
      /*NumRegs=*/2);
  vm::RunStatus V4 = vm::validateKernel(BadWide);
  EXPECT_FALSE(V4.Ok);
  EXPECT_NE(V4.Error.find("register"), std::string::npos) << V4.Error;

  // And the compiled kernels in this suite all pass validation.
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", 8}});
  ASSERT_TRUE(P);
  for (const vm::VmKernel &K : P->Kernels)
    EXPECT_TRUE(vm::validateKernel(K).Ok);
}

//===----------------------------------------------------------------------===//
// Host drivers: interpreted `main` vs generated driver, bit for bit
//===----------------------------------------------------------------------===//

TEST(VmHost, QuickstartDriverBitIdenticalToGenerated) {
  const size_t N = 8 * 256;
  auto P = compileVm(DESCEND_PROGRAM_DIR "/quickstart_host.descend",
                     {{"nb", 8}});
  ASSERT_TRUE(P);
  const vm::HostFnIR *Main = P->findHostFn("main");
  ASSERT_NE(Main, nullptr);

  // Generated path.
  sim::GpuDevice DG;
  rt::HostBuffer<double> Gen(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Gen[I] = fillVal(I);
  descend::gen::run(DG, Gen);

  // Interpreted path: same fill, same driver logic out of the bytecode.
  sim::GpuDevice DV;
  auto Arr = vm::makeHostArray(ScalarKind::F64, N, 0.0);
  double *AD = reinterpret_cast<double *>(Arr->Bytes.data());
  for (size_t I = 0; I != N; ++I)
    AD[I] = fillVal(I);
  vm::RunStatus St =
      vm::runHostFn(DV, *P, *Main, {vm::HostVal::array(Arr)});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Gen.data(), Arr->Bytes.data(),
                           N * sizeof(double)));
  EXPECT_EQ(AD[100], fillVal(100) * 3.0);
}

TEST(VmHost, ReductionDriverBitIdenticalToGenerated) {
  const unsigned NB = 8;
  const size_t N = static_cast<size_t>(NB) * 256;
  auto P = compileVm(DESCEND_PROGRAM_DIR "/reduction_host.descend",
                     {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::HostFnIR *Main = P->findHostFn("main");
  ASSERT_NE(Main, nullptr);

  // Generated path (the _small instantiation is the same nb=8 footprint).
  sim::GpuDevice DG;
  rt::HostBuffer<double> Data(N, 0.0), Partials(NB, 0.0), Total(1, 0.0);
  for (size_t I = 0; I != N; ++I)
    Data[I] = fillVal(I);
  descend::gen::run_small(DG, Data, Partials, Total);

  // Interpreted path.
  sim::GpuDevice DV;
  auto AData = vm::makeHostArray(ScalarKind::F64, N, 0.0);
  auto APart = vm::makeHostArray(ScalarKind::F64, NB, 0.0);
  auto ATotal = vm::makeHostArray(ScalarKind::F64, 1, 0.0);
  double *AD = reinterpret_cast<double *>(AData->Bytes.data());
  for (size_t I = 0; I != N; ++I)
    AD[I] = fillVal(I);
  vm::RunStatus St = vm::runHostFn(DV, *P, *Main,
                                   {vm::HostVal::array(AData),
                                    vm::HostVal::array(APart),
                                    vm::HostVal::array(ATotal)});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Partials.data(), APart->Bytes.data(),
                           NB * sizeof(double)));
  EXPECT_EQ(0,
            std::memcmp(Total.data(), ATotal->Bytes.data(), sizeof(double)));

  // Sanity: the sequential CPU finish really summed the partials.
  double Expected = 0.0;
  for (size_t I = 0; I != N; ++I)
    Expected += fillVal(I);
  double Got;
  std::memcpy(&Got, ATotal->Bytes.data(), sizeof(double));
  EXPECT_NEAR(Got, Expected, 1e-9);
}

TEST(VmHost, ScalarCallArgumentsBitIdenticalToGenerated) {
  // Host calls pass a literal (`3.0`) and an arithmetic expression
  // (`2.0 + 1.0`) by value; the vm evaluates them like the C++ call.
  const size_t N = 16;
  auto P = compileVm(DESCEND_PROGRAM_DIR "/host_call_args.descend", {});
  ASSERT_TRUE(P);
  const vm::HostFnIR *Main = P->findHostFn("main");
  ASSERT_NE(Main, nullptr);

  sim::GpuDevice DG;
  rt::HostBuffer<double> Lit(N, 0.0), Sum(N, 0.0);
  descend::gen::run_args(DG, Lit, Sum);

  sim::GpuDevice DV;
  auto ALit = vm::makeHostArray(ScalarKind::F64, N, 0.0);
  auto ASum = vm::makeHostArray(ScalarKind::F64, N, 0.0);
  vm::RunStatus St = vm::runHostFn(
      DV, *P, *Main, {vm::HostVal::array(ALit), vm::HostVal::array(ASum)});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Lit.data(), ALit->Bytes.data(),
                           N * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Sum.data(), ASum->Bytes.data(),
                           N * sizeof(double)));
  EXPECT_EQ(Lit[N - 1], 3.0);
  EXPECT_EQ(Sum[0], 3.0);
}

TEST(VmHost, ExecuteMainDigestsHostArrays) {
  // Session::executeMain is the `descendc --run` entry point: default
  // fill 1.0, RESULT digest per host-array parameter.
  Session S;
  ExecuteResult E = S.executeMain(
      readFile(DESCEND_PROGRAM_DIR "/quickstart_host.descend"), {});
  // Without -D nb=... the launch geometry is uninstantiated: a
  // diagnostic, not a crash.
  EXPECT_FALSE(E.Ok);

  CompilerInvocation Inv;
  Inv.Defines["nb"] = 8;
  Session S2(Inv);
  ExecuteResult E2 = S2.executeMain(
      readFile(DESCEND_PROGRAM_DIR "/quickstart_host.descend"), {2.0});
  ASSERT_TRUE(E2.Ok) << E2.Error << "\n" << S2.renderDiagnostics();
  // 2048 elements of 2.0 scaled by 3.0.
  EXPECT_NE(E2.Output.find("RESULT host_vec n=2048"), std::string::npos)
      << E2.Output;
  EXPECT_NE(E2.Output.find("sum=12288"), std::string::npos) << E2.Output;
}

//===----------------------------------------------------------------------===//
// CompileService cache semantics
//===----------------------------------------------------------------------===//

TEST(CompileServiceCache, HitMissEviction) {
  std::string Src =
      readFile(DESCEND_KERNEL_DIR "/scale_vec.descend");
  service::CompileService Svc(/*Capacity=*/2);

  service::CompileRequest Req;
  Req.Source = Src;
  Req.Defines["nb"] = 8;
  service::CompileReply R1 = Svc.compile(Req);
  ASSERT_TRUE(R1.Ok) << R1.Diagnostics;
  EXPECT_FALSE(R1.CacheHit);
  ASSERT_TRUE(R1.Program);
  EXPECT_NE(R1.Program->findKernel("scale_vec"), nullptr);

  service::CompileReply R2 = Svc.compile(Req);
  ASSERT_TRUE(R2.Ok);
  EXPECT_TRUE(R2.CacheHit);

  // Two more distinct sources evict the oldest entry (capacity 2).
  service::CompileRequest ReqB = Req;
  ReqB.Source = "// variant B\n" + Src;
  service::CompileRequest ReqC = Req;
  ReqC.Source = "// variant C\n" + Src;
  ASSERT_TRUE(Svc.compile(ReqB).Ok);
  ASSERT_TRUE(Svc.compile(ReqC).Ok); // evicts the original

  service::CompileReply R3 = Svc.compile(Req);
  ASSERT_TRUE(R3.Ok);
  EXPECT_FALSE(R3.CacheHit) << "evicted entry must recompile";

  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 4u);
  EXPECT_GE(St.Evictions, 2u);
  EXPECT_EQ(St.Entries, 2u);
  EXPECT_EQ(St.Failures, 0u);
}

TEST(CompileServiceCache, SameSourceDifferentDefinesAreDistinctEntries) {
  std::string Src =
      readFile(DESCEND_KERNEL_DIR "/scale_vec.descend");
  service::CompileService Svc;

  service::CompileRequest R8;
  R8.Source = Src;
  R8.Defines["nb"] = 8;
  service::CompileRequest R16 = R8;
  R16.Defines["nb"] = 16;

  EXPECT_FALSE(Svc.compile(R8).CacheHit);
  EXPECT_FALSE(Svc.compile(R16).CacheHit) << "-D nb=16 must not hit nb=8";
  EXPECT_TRUE(Svc.compile(R8).CacheHit);
  EXPECT_TRUE(Svc.compile(R16).CacheHit);

  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Entries, 2u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 2u);

  // And the two artifacts really are different specializations: the
  // launch grids differ.
  service::CompileReply A = Svc.compile(R8), B = Svc.compile(R16);
  ASSERT_TRUE(A.Program && B.Program);
  EXPECT_NE(A.Program->findKernel("scale_vec")->Grid.X,
            B.Program->findKernel("scale_vec")->Grid.X);
}

TEST(CompileServiceCache, ClearDropsEntriesKeepsStats) {
  std::string Src =
      readFile(DESCEND_KERNEL_DIR "/scale_vec.descend");
  service::CompileService Svc;
  service::CompileRequest Req;
  Req.Source = Src;
  Req.Defines["nb"] = 8;
  ASSERT_TRUE(Svc.compile(Req).Ok);
  EXPECT_TRUE(Svc.compile(Req).CacheHit);
  Svc.clear();
  EXPECT_EQ(Svc.stats().Entries, 0u);
  EXPECT_FALSE(Svc.compile(Req).CacheHit);
  EXPECT_EQ(Svc.stats().Hits, 1u);
}

} // namespace

//===- tests/kir_test.cpp - Typed kernel IR unit tests --------------------===//
//
// Builder/printer round-trips over hand-built KIR, the kir::verify()
// structural checker rejecting malformed IR, and unit tests for the pass
// pipeline (index CSE, redundant-barrier elimination, dead spill-pair
// elision, pow-of-2 shift emission) plus the opt-in schedule passes
// (shared-memory padding, load/store vectorization — kir/Schedule.h).
//
//===----------------------------------------------------------------------===//

#include "kir/KIR.h"
#include "kir/Passes.h"
#include "kir/Schedule.h"

#include <gtest/gtest.h>

using namespace descend;
using namespace descend::kir;

namespace {

MemRef globalBuf(const std::string &Name,
                 ScalarKind Elem = ScalarKind::F64) {
  MemRef R;
  R.Space = MemSpace::Global;
  R.Name = Name;
  R.Elem = Elem;
  return R;
}

MemRef sharedBuf(const std::string &Name, size_t ByteBase = 0,
                 ScalarKind Elem = ScalarKind::F64) {
  MemRef R;
  R.Space = MemSpace::Shared;
  R.Name = Name;
  R.Elem = Elem;
  R.ByteBase = ByteBase;
  return R;
}

Nat tid() { return Nat::var("_tx"); }

VerifyOptions kernelCtx() {
  VerifyOptions Opts;
  Opts.DefinedVars = {"_bx", "_by", "_bz", "_tx", "_ty", "_tz", "_lin"};
  Opts.Buffers = {{"arr", MemSpace::Global}, {"tmp", MemSpace::Shared}};
  Opts.CheckBuffers = true;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Builders and printers
//===----------------------------------------------------------------------===//

TEST(KirPrint, CudaSpellingOfLoadsAndStores) {
  std::vector<Stmt> S;
  S.push_back(Stmt::store(
      globalBuf("arr"), Nat::var("_bx") * Nat::lit(256) + tid(),
      Expr::binary(BinOp::Mul, Expr::load(globalBuf("arr"), tid()),
                   Expr::floatLit(3.0, ScalarKind::F64))));
  std::string Out, Err;
  ASSERT_TRUE(printStmts(S, CudaStyle(), 1, Out, Err)) << Err;
  EXPECT_EQ(Out, "  arr[blockIdx.x * 256 + threadIdx.x] = "
                 "(arr[threadIdx.x] * 3.0);\n");
}

TEST(KirPrint, SimSpellingOfLoadsAndStores) {
  std::vector<Stmt> S;
  S.push_back(Stmt::store(sharedBuf("tmp"), tid(),
                          Expr::load(globalBuf("arr"), tid())));
  std::string Out, Err;
  ASSERT_TRUE(printStmts(S, SimStyle(), 3, Out, Err)) << Err;
  EXPECT_EQ(Out,
            "      _b.sharedStore<double>(0, _tx, arr.load(_b, _tx));\n");
}

TEST(KirPrint, ArenaSpillSpelling) {
  MemRef Slot;
  Slot.Space = MemSpace::Arena;
  Slot.Name = "acc_0";
  Slot.Elem = ScalarKind::F64;
  Slot.ByteBase = 0;
  std::vector<Stmt> S;
  S.push_back(Stmt::store(Slot, Nat::var("_lin"), Expr::varRef("acc_0"),
                          /*SpillReload=*/true));
  S.push_back(Stmt::let("acc_0", ScalarKind::F64,
                        Expr::load(Slot, Nat::var("_lin")),
                        /*SpillReload=*/true));
  std::string Out, Err;
  ASSERT_TRUE(printStmts(S, SimStyle(), 1, Out, Err)) << Err;
  EXPECT_EQ(Out,
            "  _b.shared<double>(_locals_base + 0)[_lin] = acc_0;\n"
            "  double acc_0 = _b.shared<double>(_locals_base + 0)[_lin];\n");
  // Arena slots do not exist on real hardware: the CUDA printer refuses.
  std::string CudaOut, CudaErr;
  EXPECT_FALSE(printStmts(S, CudaStyle(), 1, CudaOut, CudaErr));
  EXPECT_NE(CudaErr.find("arena"), std::string::npos) << CudaErr;
}

TEST(KirPrint, ControlFlowAndBarriers) {
  std::vector<Stmt> S;
  Stmt If = Stmt::ifLt(tid(), Nat::lit(32));
  If.Then.push_back(Stmt::store(globalBuf("arr"), tid(),
                                Expr::floatLit(0.0, ScalarKind::F64)));
  S.push_back(std::move(If));
  Stmt For = Stmt::forLoop("t", Nat::lit(0), Nat::lit(4));
  For.Body.push_back(Stmt::barrier());
  S.push_back(std::move(For));
  std::string Out, Err;
  ASSERT_TRUE(printStmts(S, CudaStyle(), 1, Out, Err)) << Err;
  EXPECT_NE(Out.find("  if (threadIdx.x < 32) {\n"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("  for (long long t = 0; t < 4; ++t) {\n"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("    __syncthreads();\n"), std::string::npos) << Out;
}

TEST(KirPrint, PowOfTwoEmitsAsShift) {
  // 2^s strides print as shifts instead of forcing loop unrolling.
  Nat N = Nat::lit(256) / Nat::pow(Nat::lit(2), Nat::var("s") + Nat::lit(1));
  std::string Err;
  EXPECT_EQ(natToCpp(N, SimStyle(), &Err), "256 / (1ll << (1 + s))");
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(natToCpp(Nat::pow(Nat::lit(2), Nat::var("s")), SimStyle()),
            "(1ll << s)");
  EXPECT_FALSE(containsNonShiftablePow(N));
  // Non-2 bases stay unprintable.
  Nat Bad = Nat::pow(Nat::lit(3), Nat::var("s"));
  EXPECT_TRUE(containsNonShiftablePow(Bad));
  std::string BadErr;
  natToCpp(Bad, SimStyle(), &BadErr);
  EXPECT_NE(BadErr.find("non-2 base"), std::string::npos) << BadErr;
}

TEST(KirDump, RoundTripMentionsEveryStmt) {
  std::vector<Stmt> S;
  S.push_back(Stmt::letIndex("_i0", Nat::var("_bx") * Nat::lit(16) + tid()));
  S.push_back(Stmt::let("x_0", ScalarKind::F64,
                        Expr::load(globalBuf("arr"), Nat::var("_i0"))));
  S.push_back(Stmt::assign("x_0", Expr::unary(UnOp::Neg,
                                              Expr::varRef("x_0"))));
  S.push_back(Stmt::store(sharedBuf("tmp"), Nat::var("_i0"),
                          Expr::varRef("x_0")));
  std::string D = dump(S);
  EXPECT_NE(D.find("idx _i0 = _bx * 16 + _tx"), std::string::npos) << D;
  EXPECT_NE(D.find("let double x_0 = ld global arr[_i0]"),
            std::string::npos)
      << D;
  EXPECT_NE(D.find("x_0 = -x_0"), std::string::npos) << D;
  EXPECT_NE(D.find("st shared tmp[_i0] = x_0"), std::string::npos) << D;
}

//===----------------------------------------------------------------------===//
// verify()
//===----------------------------------------------------------------------===//

TEST(KirVerify, AcceptsWellFormedKernelBody) {
  std::vector<Stmt> S;
  S.push_back(Stmt::let("x_0", ScalarKind::F64,
                        Expr::load(globalBuf("arr"), tid())));
  S.push_back(Stmt::store(sharedBuf("tmp"), tid(), Expr::varRef("x_0")));
  std::string Err;
  EXPECT_TRUE(verify(S, kernelCtx(), Err)) << Err;
}

TEST(KirVerify, RejectsStoreToIndexVariable) {
  // A "buffer" that is actually a Nat/index variable is not memory.
  std::vector<Stmt> S;
  S.push_back(Stmt::letIndex("i", tid() * Nat::lit(2)));
  S.push_back(Stmt::store(globalBuf("i"), Nat::lit(0),
                          Expr::floatLit(1.0, ScalarKind::F64)));
  std::string Err;
  EXPECT_FALSE(verify(S, kernelCtx(), Err));
  EXPECT_NE(Err.find("non-memory name `i`"), std::string::npos) << Err;
}

TEST(KirVerify, RejectsBarrierInDivergentBranch) {
  VerifyOptions Opts = kernelCtx();
  Opts.AllowBarriers = true;
  std::vector<Stmt> S;
  Stmt If = Stmt::ifLt(tid(), Nat::lit(32));
  If.Then.push_back(Stmt::barrier());
  S.push_back(std::move(If));
  std::string Err;
  EXPECT_FALSE(verify(S, Opts, Err));
  EXPECT_NE(Err.find("thread-divergent"), std::string::npos) << Err;
}

TEST(KirVerify, RejectsBarrierInPhaseBody) {
  // Sim phase bodies carry no barriers: the phase boundary is the barrier.
  std::vector<Stmt> S;
  S.push_back(Stmt::barrier());
  std::string Err;
  EXPECT_FALSE(verify(S, kernelCtx(), Err));
  EXPECT_NE(Err.find("does not admit barriers"), std::string::npos) << Err;
}

TEST(KirVerify, RejectsUndefinedVariablesAndBuffers) {
  std::vector<Stmt> S;
  S.push_back(Stmt::assign("nope", Expr::floatLit(1.0, ScalarKind::F64)));
  std::string Err;
  EXPECT_FALSE(verify(S, kernelCtx(), Err));
  EXPECT_NE(Err.find("undefined variable `nope`"), std::string::npos) << Err;

  std::vector<Stmt> S2;
  S2.push_back(Stmt::store(globalBuf("ghost"), tid(),
                           Expr::floatLit(0.0, ScalarKind::F64)));
  EXPECT_FALSE(verify(S2, kernelCtx(), Err));
  EXPECT_NE(Err.find("unknown buffer `ghost`"), std::string::npos) << Err;

  std::vector<Stmt> S3;
  S3.push_back(Stmt::store(globalBuf("arr"), Nat::var("q"),
                           Expr::floatLit(0.0, ScalarKind::F64)));
  EXPECT_FALSE(verify(S3, kernelCtx(), Err));
  EXPECT_NE(Err.find("undefined variable `q`"), std::string::npos) << Err;
}

TEST(KirVerify, RejectsSpaceMismatchAndRedefinition) {
  std::vector<Stmt> S;
  S.push_back(Stmt::store(sharedBuf("arr"), tid(),
                          Expr::floatLit(0.0, ScalarKind::F64)));
  std::string Err;
  EXPECT_FALSE(verify(S, kernelCtx(), Err));
  EXPECT_NE(Err.find("accessed as shared"), std::string::npos) << Err;

  std::vector<Stmt> S2;
  S2.push_back(Stmt::let("x_0", ScalarKind::F64,
                         Expr::floatLit(0.0, ScalarKind::F64)));
  S2.push_back(Stmt::let("x_0", ScalarKind::F64,
                         Expr::floatLit(1.0, ScalarKind::F64)));
  EXPECT_FALSE(verify(S2, kernelCtx(), Err));
  EXPECT_NE(Err.find("redefinition"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

TEST(KirPasses, CseHoistsRepeatedIndexes) {
  std::vector<Stmt> S;
  Nat Idx = Nat::var("_bx") * Nat::lit(256) + tid();
  S.push_back(Stmt::store(
      globalBuf("arr"), Idx,
      Expr::binary(BinOp::Mul, Expr::load(globalBuf("arr"), Idx),
                   Expr::floatLit(3.0, ScalarKind::F64))));
  EXPECT_EQ(cseIndexes(S), 1u);
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0].K, StmtKind::LetIndex);
  EXPECT_EQ(S[0].Name, "_i0");
  EXPECT_TRUE(Nat::proveEq(S[1].Index, Nat::var("_i0")));
  std::string Out, Err;
  ASSERT_TRUE(printStmts(S, CudaStyle(), 1, Out, Err)) << Err;
  EXPECT_EQ(Out,
            "  const long long _i0 = blockIdx.x * 256 + threadIdx.x;\n"
            "  arr[_i0] = (arr[_i0] * 3.0);\n");
}

TEST(KirPasses, CseSkipsTrivialAndSingleUseIndexes) {
  std::vector<Stmt> S;
  S.push_back(Stmt::store(globalBuf("arr"), tid(),
                          Expr::load(globalBuf("arr"), tid())));
  S.push_back(Stmt::store(globalBuf("arr"), Nat::var("_bx") * Nat::lit(2),
                          Expr::floatLit(0.0, ScalarKind::F64)));
  // `_tx` is a lone variable, and the nontrivial index occurs once.
  EXPECT_EQ(cseIndexes(S), 0u);
  EXPECT_EQ(S.size(), 2u);
}

TEST(KirPasses, CseRespectsLoopRegions) {
  // The repeated index mentions the loop variable: it must be hoisted
  // inside the loop body, not above the loop.
  std::vector<Stmt> S;
  Stmt For = Stmt::forLoop("k", Nat::lit(0), Nat::lit(16));
  Nat Idx = Nat::var("k") * Nat::lit(16) + tid();
  For.Body.push_back(Stmt::store(
      globalBuf("arr"), Idx, Expr::load(globalBuf("arr"), Idx)));
  S.push_back(std::move(For));
  EXPECT_EQ(cseIndexes(S), 1u);
  ASSERT_EQ(S.size(), 1u);
  ASSERT_EQ(S[0].Body.size(), 2u);
  EXPECT_EQ(S[0].Body[0].K, StmtKind::LetIndex);
}

TEST(KirPasses, CseStopsAtShadowingLoops) {
  // An inner for that rebinds `s` makes the textually identical index
  // mean a different value: the hoisted outer `_i0` must not leak in.
  std::vector<Stmt> S;
  Nat Idx = Nat::var("s") * Nat::lit(2) + Nat::lit(1);
  S.push_back(Stmt::store(globalBuf("arr"), Idx,
                          Expr::load(globalBuf("arr"), Idx)));
  Stmt Inner = Stmt::forLoop("s", Nat::lit(0), Nat::lit(2));
  Inner.Body.push_back(Stmt::store(globalBuf("arr"), Idx,
                                   Expr::load(globalBuf("arr"), Idx)));
  S.push_back(std::move(Inner));
  // Outer region hoists its pair; the shadowed inner region hoists its
  // own pair under a distinct name.
  EXPECT_EQ(cseIndexes(S), 2u);
  ASSERT_EQ(S.size(), 3u);
  ASSERT_EQ(S[0].K, StmtKind::LetIndex);
  const Stmt &InnerFor = S[2];
  ASSERT_EQ(InnerFor.K, StmtKind::For);
  ASSERT_EQ(InnerFor.Body.size(), 2u);
  EXPECT_EQ(InnerFor.Body[0].K, StmtKind::LetIndex);
  EXPECT_NE(InnerFor.Body[0].Name, S[0].Name);
  EXPECT_TRUE(Nat::proveEq(InnerFor.Body[1].Index,
                           Nat::var(InnerFor.Body[0].Name)));
}

TEST(KirPrint, SimStyleRefusesBarriers) {
  std::vector<Stmt> S;
  S.push_back(Stmt::barrier());
  std::string Out, Err;
  EXPECT_FALSE(printStmts(S, SimStyle(), 1, Out, Err));
  EXPECT_NE(Err.find("barrier"), std::string::npos) << Err;
}

TEST(KirPasses, BarrierElimDropsAdjacentAndTrailing) {
  std::vector<Stmt> S;
  S.push_back(Stmt::store(sharedBuf("tmp"), tid(),
                          Expr::floatLit(1.0, ScalarKind::F64)));
  S.push_back(Stmt::barrier());
  S.push_back(Stmt::barrier()); // nothing since the previous barrier
  S.push_back(Stmt::store(sharedBuf("tmp"), tid(),
                          Expr::floatLit(2.0, ScalarKind::F64)));
  S.push_back(Stmt::barrier()); // trailing at kernel end
  EXPECT_EQ(elideRedundantBarriers(S, /*IsKernelTopLevel=*/true), 2u);
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[1].K, StmtKind::Barrier);
}

TEST(KirPasses, BarrierElimKeepsLoopCarriedBarriers) {
  // The matmul shape: barriers inside a loop body guard the tile reuse
  // across iterations; with shared accesses in between both must stay,
  // and a loop-trailing barrier is NOT a kernel-trailing one.
  std::vector<Stmt> S;
  Stmt For = Stmt::forLoop("t", Nat::lit(0), Nat::lit(4));
  For.Body.push_back(Stmt::store(sharedBuf("tmp"), tid(),
                                 Expr::load(globalBuf("arr"), tid())));
  For.Body.push_back(Stmt::barrier());
  For.Body.push_back(Stmt::let(
      "x_0", ScalarKind::F64, Expr::load(sharedBuf("tmp"), tid())));
  For.Body.push_back(Stmt::barrier());
  S.push_back(std::move(For));
  EXPECT_EQ(elideRedundantBarriers(S, /*IsKernelTopLevel=*/true), 0u);
  EXPECT_EQ(S[0].Body.size(), 4u);
}

TEST(KirPasses, DeadSpillPairsAreElided) {
  MemRef Slot;
  Slot.Space = MemSpace::Arena;
  Slot.Name = "acc_0";
  Slot.Elem = ScalarKind::F64;
  std::vector<Stmt> Phase;
  Phase.push_back(Stmt::let("acc_0", ScalarKind::F64,
                            Expr::load(Slot, Nat::var("_lin")),
                            /*SpillReload=*/true));
  Phase.push_back(Stmt::store(sharedBuf("tmp"), tid(),
                              Expr::floatLit(0.0, ScalarKind::F64)));
  Phase.push_back(Stmt::store(Slot, Nat::var("_lin"),
                              Expr::varRef("acc_0"),
                              /*SpillReload=*/true));
  // The phase never touches acc_0 outside the pair: both go.
  EXPECT_EQ(elideDeadSpillPairs(Phase), 2u);
  ASSERT_EQ(Phase.size(), 1u);
  EXPECT_EQ(Phase[0].K, StmtKind::Store);

  // A phase that really uses the local keeps the pair.
  std::vector<Stmt> Live;
  Live.push_back(Stmt::let("acc_0", ScalarKind::F64,
                           Expr::load(Slot, Nat::var("_lin")),
                           /*SpillReload=*/true));
  Live.push_back(Stmt::assign(
      "acc_0", Expr::binary(BinOp::Add, Expr::varRef("acc_0"),
                            Expr::load(sharedBuf("tmp"), tid()))));
  Live.push_back(Stmt::store(Slot, Nat::var("_lin"),
                             Expr::varRef("acc_0"),
                             /*SpillReload=*/true));
  EXPECT_EQ(elideDeadSpillPairs(Live), 0u);
  EXPECT_EQ(Live.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Schedule passes (kir/Schedule.h)
//===----------------------------------------------------------------------===//

TEST(KirSchedule, PaddingRewritesRowMajorIndexes) {
  // A 16x16 f64 tile accessed as `_ty*16 + _tx`: padding by 1 must turn
  // the index into `_ty*17 + _tx` and grow the allocation by one element
  // per row.
  std::vector<Stmt> S;
  Nat Idx = Nat::var("_ty") * Nat::lit(16) + tid();
  S.push_back(Stmt::store(sharedBuf("tmp"), Idx,
                          Expr::load(globalBuf("arr"), tid())));
  S.push_back(Stmt::let("x_0", ScalarKind::F64,
                        Expr::load(sharedBuf("tmp"), Idx)));

  std::vector<ScheduleSharedBuffer> Bufs = {
      {"tmp", ScalarKind::F64, 256, 0, 16}};
  size_t SharedBytes = 2048;
  VarBounds Bounds = {{"_tx", 16}, {"_ty", 16}};
  ScheduleStats Stats;
  std::vector<BodyRef> Bodies = {{&S, {}}};
  EXPECT_EQ(padSharedBuffers(Bodies, Bufs, SharedBytes, 1, Bounds, &Stats),
            1u);
  EXPECT_EQ(Stats.PaddedBuffers, 1u);
  EXPECT_EQ(Stats.RewrittenAccesses, 2u);
  EXPECT_EQ(Bufs[0].Elems, 272u); // 16 rows of 16+1
  EXPECT_EQ(SharedBytes, 272u * 8u);
  Nat Want = Nat::var("_ty") * Nat::lit(17) + tid();
  EXPECT_TRUE(Nat::proveEq(S[0].Index, Want)) << S[0].Index.str();
  EXPECT_TRUE(Nat::proveEq(S[1].Value->Index, Want))
      << S[1].Value->Index.str();
  // The rewritten body still verifies.
  std::string Err;
  EXPECT_TRUE(verify(S, kernelCtx(), Err)) << Err;
}

TEST(KirSchedule, PaddingSkipsUndecomposableAccesses) {
  // `_lin` ranges over [0, 256): it does not provably decompose as
  // q*16 + r with r < 16, so the buffer must stay untouched.
  std::vector<Stmt> S;
  S.push_back(Stmt::store(sharedBuf("tmp"), Nat::var("_lin"),
                          Expr::floatLit(0.0, ScalarKind::F64)));
  std::vector<ScheduleSharedBuffer> Bufs = {
      {"tmp", ScalarKind::F64, 256, 0, 16}};
  size_t SharedBytes = 2048;
  VarBounds Bounds = {{"_lin", 256}};
  std::vector<BodyRef> Bodies = {{&S, {}}};
  EXPECT_EQ(padSharedBuffers(Bodies, Bufs, SharedBytes, 1, Bounds, nullptr),
            0u);
  EXPECT_EQ(Bufs[0].Elems, 256u);
  EXPECT_EQ(SharedBytes, 2048u);
  EXPECT_TRUE(Nat::proveEq(S[0].Index, Nat::var("_lin")));
}

TEST(KirSchedule, PaddingUsesForLoopBoundsAndRelaysByteBases) {
  // The remainder variable is a `for` loop counter, not an entry bound,
  // and a second shared buffer behind the padded one must have its
  // ByteBase pushed back (and every access re-pointed at it).
  std::vector<Stmt> S;
  Stmt For = Stmt::forLoop("k", Nat::lit(0), Nat::lit(16));
  For.Body.push_back(Stmt::store(sharedBuf("tmp"),
                                 Nat::var("_ty") * Nat::lit(16) +
                                     Nat::var("k"),
                                 Expr::floatLit(1.0, ScalarKind::F64)));
  For.Body.push_back(Stmt::store(sharedBuf("aux", 2048), tid(),
                                 Expr::floatLit(2.0, ScalarKind::F64)));
  S.push_back(std::move(For));

  std::vector<ScheduleSharedBuffer> Bufs = {
      {"tmp", ScalarKind::F64, 256, 0, 16},
      {"aux", ScalarKind::F64, 16, 2048, 0}}; // no row structure: skipped
  size_t SharedBytes = 2048 + 128;
  VarBounds Bounds = {{"_tx", 16}, {"_ty", 16}};
  std::vector<BodyRef> Bodies = {{&S, {}}};
  EXPECT_EQ(padSharedBuffers(Bodies, Bufs, SharedBytes, 1, Bounds, nullptr),
            1u);
  EXPECT_EQ(Bufs[0].Elems, 272u);
  EXPECT_EQ(Bufs[1].Elems, 16u);
  EXPECT_EQ(Bufs[1].ByteBase, 272u * 8u); // already 8-byte aligned
  EXPECT_EQ(SharedBytes, 272u * 8u + 128u);
  EXPECT_EQ(S[0].Body[1].Ref.ByteBase, 272u * 8u);
}

TEST(KirSchedule, VectorizeFusesContiguousAlignedPairs) {
  // Thread _tx owns the even-based adjacent pair (2*_tx, 2*_tx + 1):
  // both the store pair and the load-let pair fuse to Width = 2.
  Nat Even = tid() * Nat::lit(2);
  Nat Odd = tid() * Nat::lit(2) + Nat::lit(1);
  std::vector<Stmt> S;
  S.push_back(Stmt::let("x_0", ScalarKind::F64,
                        Expr::load(globalBuf("arr"), Even)));
  S.push_back(Stmt::let("x_1", ScalarKind::F64,
                        Expr::load(globalBuf("arr"), Odd)));
  S.push_back(Stmt::store(globalBuf("arr"), Even, Expr::varRef("x_0")));
  S.push_back(Stmt::store(globalBuf("arr"), Odd, Expr::varRef("x_1")));

  ScheduleStats Stats;
  std::vector<BodyRef> Bodies = {{&S, {}}};
  EXPECT_EQ(vectorizeAccesses(Bodies, {}, &Stats), 2u);
  EXPECT_EQ(Stats.FusedLoadPairs, 1u);
  EXPECT_EQ(Stats.FusedStorePairs, 1u);
  EXPECT_EQ(Stats.RejectedPairs, 0u);
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0].K, StmtKind::Let);
  EXPECT_EQ(S[0].Width, 2u);
  EXPECT_EQ(S[0].Name2, "x_1");
  EXPECT_EQ(S[1].K, StmtKind::Store);
  EXPECT_EQ(S[1].Width, 2u);
  ASSERT_TRUE(S[1].Value2);
  EXPECT_EQ(S[1].Value2->Name, "x_1");
  // The fused body still verifies, and the sim printer spells the wide
  // accesses as the runtime's *2 entry points.
  std::string Err;
  EXPECT_TRUE(verify(S, kernelCtx(), Err)) << Err;
  std::string Out;
  ASSERT_TRUE(printStmts(S, SimStyle(), 1, Out, Err)) << Err;
  EXPECT_NE(Out.find("arr.load2(_b, _tx * 2, x_0, x_1);"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("arr.store2(_b, _tx * 2, x_0, x_1);"),
            std::string::npos)
      << Out;
}

TEST(KirSchedule, VectorizeRejectsIllegalPairs) {
  Nat Even = tid() * Nat::lit(2);
  // Not contiguous: stride-2 partners.
  std::vector<Stmt> Gap;
  Gap.push_back(Stmt::store(globalBuf("arr"), Even,
                            Expr::floatLit(0.0, ScalarKind::F64)));
  Gap.push_back(Stmt::store(globalBuf("arr"), Even + Nat::lit(2),
                            Expr::floatLit(1.0, ScalarKind::F64)));
  ScheduleStats Stats;
  std::vector<BodyRef> GapBodies = {{&Gap, {}}};
  EXPECT_EQ(vectorizeAccesses(GapBodies, {}, &Stats), 0u);
  EXPECT_EQ(Gap.size(), 2u);
  EXPECT_EQ(Stats.RejectedPairs, 1u);

  // Contiguous but the first index is odd: the wide access would be
  // misaligned.
  std::vector<Stmt> Odd;
  Odd.push_back(Stmt::store(globalBuf("arr"), Even + Nat::lit(1),
                            Expr::floatLit(0.0, ScalarKind::F64)));
  Odd.push_back(Stmt::store(globalBuf("arr"), Even + Nat::lit(2),
                            Expr::floatLit(1.0, ScalarKind::F64)));
  std::vector<BodyRef> OddBodies = {{&Odd, {}}};
  EXPECT_EQ(vectorizeAccesses(OddBodies, {}, nullptr), 0u);
  EXPECT_EQ(Odd.size(), 2u);

  // The second store's value reads the first store's cell: fusing would
  // reorder that read before the write.
  std::vector<Stmt> Hazard;
  Hazard.push_back(Stmt::store(globalBuf("arr"), Even,
                               Expr::floatLit(0.0, ScalarKind::F64)));
  Hazard.push_back(Stmt::store(globalBuf("arr"), Even + Nat::lit(1),
                               Expr::load(globalBuf("arr"), Even)));
  std::vector<BodyRef> HazardBodies = {{&Hazard, {}}};
  EXPECT_EQ(vectorizeAccesses(HazardBodies, {}, nullptr), 0u);
  EXPECT_EQ(Hazard.size(), 2u);

  // Different element types never fuse, even at contiguous indices.
  std::vector<Stmt> Mixed;
  Mixed.push_back(Stmt::store(globalBuf("arr", ScalarKind::I64), Even,
                              Expr::intLit(0, ScalarKind::I64)));
  Mixed.push_back(Stmt::store(globalBuf("arr", ScalarKind::I64),
                              Even + Nat::lit(1),
                              Expr::intLit(1, ScalarKind::I64)));
  std::vector<BodyRef> MixedBodies = {{&Mixed, {}}};
  EXPECT_EQ(vectorizeAccesses(MixedBodies, {}, nullptr), 0u);
  EXPECT_EQ(Mixed.size(), 2u);
}

TEST(KirVerify, WideAccessRules) {
  Nat Even = tid() * Nat::lit(2);
  std::string Err;

  // Wide store without a second value.
  std::vector<Stmt> S;
  S.push_back(Stmt::store(globalBuf("arr"), Even,
                          Expr::floatLit(0.0, ScalarKind::F64)));
  S[0].Width = 2;
  EXPECT_FALSE(verify(S, kernelCtx(), Err));
  EXPECT_NE(Err.find("wide store without a second value"),
            std::string::npos)
      << Err;

  // Wide let whose initializer is not a load.
  std::vector<Stmt> S2;
  S2.push_back(Stmt::let("x_0", ScalarKind::F64,
                         Expr::floatLit(0.0, ScalarKind::F64)));
  S2[0].Width = 2;
  EXPECT_FALSE(verify(S2, kernelCtx(), Err));
  EXPECT_NE(Err.find("initializer is not a load"), std::string::npos)
      << Err;

  // Wide let without a second target name.
  std::vector<Stmt> S2b;
  S2b.push_back(Stmt::let("x_0", ScalarKind::F64,
                          Expr::load(globalBuf("arr"), Even)));
  S2b[0].Width = 2;
  EXPECT_FALSE(verify(S2b, kernelCtx(), Err));
  EXPECT_NE(Err.find("without a second target"), std::string::npos) << Err;

  // Wide access to the per-thread arena.
  MemRef Slot;
  Slot.Space = MemSpace::Arena;
  Slot.Name = "acc_0";
  Slot.Elem = ScalarKind::F64;
  std::vector<Stmt> S3;
  S3.push_back(Stmt::store(Slot, Nat::var("_lin"),
                           Expr::floatLit(0.0, ScalarKind::F64)));
  S3[0].Width = 2;
  S3[0].Value2 = Expr::floatLit(1.0, ScalarKind::F64);
  EXPECT_FALSE(verify(S3, kernelCtx(), Err));
  EXPECT_NE(Err.find("wide store to the per-thread arena"),
            std::string::npos)
      << Err;

  // Any width other than 1 or 2.
  std::vector<Stmt> S4;
  S4.push_back(Stmt::store(globalBuf("arr"), Even,
                           Expr::floatLit(0.0, ScalarKind::F64)));
  S4[0].Width = 4;
  EXPECT_FALSE(verify(S4, kernelCtx(), Err));
  EXPECT_NE(Err.find("unsupported width"), std::string::npos) << Err;
}

TEST(KirExpr, CloneIsDeep) {
  ExprPtr E = Expr::binary(BinOp::Add, Expr::varRef("a"),
                           Expr::load(globalBuf("arr"), tid()));
  ExprPtr C = E->clone();
  E->Lhs->Name = "b";
  EXPECT_EQ(C->Lhs->Name, "a");
  EXPECT_EQ(C->Rhs->Ref.Name, "arr");
}

//===----------------------------------------------------------------------===//
// Thread splits
//===----------------------------------------------------------------------===//

/// A phase body: \p Prefix LetIndex statements, then `if (L < R)` with a
/// store in its then branch.
std::vector<Stmt> guardedBody(Nat L, Nat R,
                              std::vector<std::pair<std::string, Nat>> Prefix =
                                  {}) {
  std::vector<Stmt> S;
  for (auto &[Name, Value] : Prefix)
    S.push_back(Stmt::letIndex(Name, Value));
  Stmt If = Stmt::ifLt(std::move(L), std::move(R));
  If.Then.push_back(
      Stmt::store(sharedBuf("tmp"), tid(), Expr::floatLit(1.0)));
  S.push_back(std::move(If));
  return S;
}

TEST(KirThreadSplit, MatchesThreadCoordinateGuards) {
  ThreadSplit Split;
  std::vector<Stmt> Lit = guardedBody(tid(), Nat::lit(128));
  ASSERT_TRUE(threadSplit(Lit, Split));
  EXPECT_EQ(Split.Dim, 0u);
  EXPECT_EQ(Split.Prefix, 0u);
  EXPECT_EQ(Split.Guard, &Lit.back());

  // A bound over block coordinates and loop variables, behind pure
  // LetIndex statements, on the y and z coordinates.
  std::vector<Stmt> Y = guardedBody(
      Nat::var("_ty"), Nat::var("_bx") * Nat::lit(2) + Nat::var("s"),
      {{"_i0", tid() * Nat::lit(2)}, {"_i1", Nat::var("_lin")}});
  ASSERT_TRUE(threadSplit(Y, Split));
  EXPECT_EQ(Split.Dim, 1u);
  EXPECT_EQ(Split.Prefix, 2u);
  EXPECT_EQ(Split.Guard, &Y.back());
  std::vector<Stmt> Z = guardedBody(Nat::var("_tz") + Nat::lit(0),
                                    Nat::lit(1));
  ASSERT_TRUE(threadSplit(Z, Split));
  EXPECT_EQ(Split.Dim, 2u);
}

TEST(KirThreadSplit, KeepsEveryOtherShapeGuarded) {
  ThreadSplit Split;
  // Bounds that vary per thread: a thread coordinate, `_lin`, or a
  // per-thread LetIndex of the prefix.
  EXPECT_FALSE(threadSplit(guardedBody(tid(), Nat::var("_ty")), Split));
  EXPECT_FALSE(
      threadSplit(guardedBody(tid(), Nat::var("_lin") + Nat::lit(1)), Split));
  EXPECT_FALSE(threadSplit(
      guardedBody(tid(), Nat::var("_i0"), {{"_i0", Nat::lit(4)}}), Split));
  // Guards on something other than exactly a thread coordinate.
  EXPECT_FALSE(threadSplit(guardedBody(Nat::var("_bx"), Nat::lit(1)), Split));
  EXPECT_FALSE(threadSplit(guardedBody(Nat::lit(5), tid()), Split));
  EXPECT_FALSE(
      threadSplit(guardedBody(tid() + Nat::lit(1), Nat::lit(8)), Split));
  // Bodies that are not a sole If behind LetIndex statements.
  std::vector<Stmt> After = guardedBody(tid(), Nat::lit(8));
  After.push_back(Stmt::store(sharedBuf("tmp"), tid(), Expr::floatLit(2.0)));
  EXPECT_FALSE(threadSplit(After, Split));
  std::vector<Stmt> Before;
  Before.push_back(Stmt::store(sharedBuf("tmp"), tid(), Expr::floatLit(2.0)));
  for (Stmt &S : guardedBody(tid(), Nat::lit(8)))
    Before.push_back(std::move(S));
  EXPECT_FALSE(threadSplit(Before, Split));
  EXPECT_FALSE(threadSplit({}, Split));
}

} // namespace

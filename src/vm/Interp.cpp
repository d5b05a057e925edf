//===- vm/Interp.cpp - Bytecode interpreter over the simulator --------------===//

#include "vm/Interp.h"

#include "ast/Expr.h" // BinOpKind / UnOpKind (host expressions)

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

using namespace descend;
using namespace descend::vm;

namespace {

//===----------------------------------------------------------------------===//
// Typed element access on raw buffer bytes
//===----------------------------------------------------------------------===//

Value loadElem(const std::byte *Base, ScalarKind K, size_t I) {
  Value V;
  switch (K) {
  case ScalarKind::I32: {
    int32_t X;
    std::memcpy(&X, Base + I * 4, 4);
    V.I = X;
    break;
  }
  case ScalarKind::U32: {
    uint32_t X;
    std::memcpy(&X, Base + I * 4, 4);
    V.I = X;
    break;
  }
  case ScalarKind::I64:
  case ScalarKind::U64:
    std::memcpy(&V.I, Base + I * 8, 8);
    break;
  case ScalarKind::F32: {
    float X;
    std::memcpy(&X, Base + I * 4, 4);
    V.F = static_cast<double>(X);
    break;
  }
  case ScalarKind::F64:
    std::memcpy(&V.F, Base + I * 8, 8);
    break;
  case ScalarKind::Bool:
    V.I = static_cast<unsigned char>(Base[I]) ? 1 : 0;
    break;
  case ScalarKind::Unit:
    V.I = 0;
    break;
  }
  return V;
}

void storeElem(std::byte *Base, ScalarKind K, size_t I, Value V) {
  switch (K) {
  case ScalarKind::I32: {
    int32_t X = static_cast<int32_t>(V.I);
    std::memcpy(Base + I * 4, &X, 4);
    break;
  }
  case ScalarKind::U32: {
    uint32_t X = static_cast<uint32_t>(V.I);
    std::memcpy(Base + I * 4, &X, 4);
    break;
  }
  case ScalarKind::I64:
  case ScalarKind::U64:
    std::memcpy(Base + I * 8, &V.I, 8);
    break;
  case ScalarKind::F32: {
    float X = static_cast<float>(V.F);
    std::memcpy(Base + I * 4, &X, 4);
    break;
  }
  case ScalarKind::F64:
    std::memcpy(Base + I * 8, &V.F, 8);
    break;
  case ScalarKind::Bool:
    Base[I] = static_cast<std::byte>(V.I ? 1 : 0);
    break;
  case ScalarKind::Unit:
    break;
  }
}

bool isFloatKind(ScalarKind K) {
  return K == ScalarKind::F32 || K == ScalarKind::F64;
}

//===----------------------------------------------------------------------===//
// Kernel execution
//===----------------------------------------------------------------------===//

/// First kernel fault of a launch. Pool workers set the flag and stop;
/// the host thread reads the message after launchProgram returns (by
/// then every worker has synchronized, so Msg is stable).
struct TrapState {
  std::atomic<bool> Tripped{false};
  std::mutex M;
  std::string Msg;
  bool Timedout = false; ///< first fault was a step-budget expiry

  void trip(const std::string &S, bool Timeout = false) {
    std::lock_guard<std::mutex> G(M);
    if (!Tripped.load(std::memory_order_relaxed)) {
      Msg = S;
      Timedout = Timeout;
    }
    Tripped.store(true, std::memory_order_release);
  }
  bool tripped() const { return Tripped.load(std::memory_order_relaxed); }
};

struct KernelEnv {
  const VmKernel &K;
  const std::vector<DevBuf> &Bufs;
  TrapState &Trap;
  uint64_t StepBudget = 0; ///< per-thread instruction cap (0 = unlimited)
};

/// Runs one code object for the current thread. Returns false if a trap
/// tripped (the caller abandons the launch). \p RetOut receives the
/// RetVal result for bound programs.
bool execCode(const Code &C, KernelEnv &E, sim::BlockCtx &B,
              const sim::ThreadCtx &T, std::vector<Value> &R,
              long long *RetOut) {
  const Instr *Ins = C.Instrs.data();
  const size_t N = C.Instrs.size();
  size_t PC = 0;

  auto Trap = [&](const std::string &Msg) {
    E.Trap.trip("in kernel `" + E.K.Name + "`: " + Msg);
    return false;
  };

  // The watchdog step budget: each thread's run of a code object may
  // retire at most Budget instructions. An infinite Jmp loop trips here
  // instead of hanging the pool worker forever.
  const uint64_t Budget = E.StepBudget;
  uint64_t Steps = 0;

  while (PC < N) {
    if (Budget && ++Steps > Budget) [[unlikely]] {
      E.Trap.trip("in kernel `" + E.K.Name + "`: step budget of " +
                      std::to_string(Budget) +
                      " instructions exceeded (watchdog steps=" +
                      std::to_string(Budget) + "); launch cancelled",
                  /*Timeout=*/true);
      return false;
    }
    const Instr &I = Ins[PC++];
    switch (I.K) {
    case Op::Const:
      R[I.A] = C.Consts[I.Imm];
      break;
    case Op::Coord: {
      long long V = 0;
      switch (I.Imm) {
      case 0: V = B.X; break;
      case 1: V = B.Y; break;
      case 2: V = B.Z; break;
      case 3: V = T.X; break;
      case 4: V = T.Y; break;
      case 5: V = T.Z; break;
      default: V = B.CurThread; break;
      }
      R[I.A].I = V;
      break;
    }
    case Op::Slot:
      R[I.A].I = B.loopVar(static_cast<unsigned>(I.Imm));
      break;
    case Op::Move:
      R[I.A] = R[I.B];
      break;

    case Op::LoadGlobal:
    case Op::StoreGlobal: {
      const DevBuf &D = E.Bufs[I.Imm];
      const bool Write = I.K == Op::StoreGlobal;
      long long Idx = R[I.B].I;
      // The same seam as GpuDevice::Buffer<T>::load/store: count, log,
      // bounds-check. A negative index wraps to a huge size_t exactly
      // like the size_t parameter of Buffer::load would.
      if (B.Checks) [[unlikely]] {
        if (!sim::detail::observeGlobal(B, D.Id, static_cast<size_t>(Idx),
                                        D.Count, Write, 1)) {
          if (!Write)
            R[I.A] = Value{}; // Buffer::load returns T{} on OOB
          break;
        }
      }
      if (Idx < 0 || static_cast<size_t>(Idx) >= D.Count) {
        // The generated C++ would fault undefined here; trap instead.
        return Trap("global buffer `" + E.K.Params[I.Imm].Name +
                    "` index " + std::to_string(Idx) +
                    " out of range [0, " + std::to_string(D.Count) + ")");
      }
      ScalarKind EK = static_cast<ScalarKind>(I.C);
      if (Write)
        storeElem(D.Data, EK, static_cast<size_t>(Idx), R[I.A]);
      else
        R[I.A] = loadElem(D.Data, EK, static_cast<size_t>(Idx));
      break;
    }

    case Op::LoadGlobal2:
    case Op::StoreGlobal2: {
      const DevBuf &D = E.Bufs[I.Imm];
      const bool Write = I.K == Op::StoreGlobal2;
      long long Idx = R[I.B].I;
      // As Buffer<T>::load2/store2: ONE counted transaction for the fused
      // pair, both elements race-logged, bounds through Idx+1.
      if (B.Checks) [[unlikely]] {
        if (!sim::detail::observeGlobal(B, D.Id, static_cast<size_t>(Idx),
                                        D.Count, Write, 2)) {
          if (!Write)
            R[I.A] = R[I.A + 1] = Value{};
          break;
        }
      }
      if (Idx < 0 || static_cast<size_t>(Idx) + 1 >= D.Count) {
        return Trap("global buffer `" + E.K.Params[I.Imm].Name +
                    "` wide index " + std::to_string(Idx) +
                    " out of range [0, " + std::to_string(D.Count) + ")");
      }
      ScalarKind EK = static_cast<ScalarKind>(I.C);
      if (Write) {
        storeElem(D.Data, EK, static_cast<size_t>(Idx), R[I.A]);
        storeElem(D.Data, EK, static_cast<size_t>(Idx) + 1, R[I.A + 1]);
      } else {
        R[I.A] = loadElem(D.Data, EK, static_cast<size_t>(Idx));
        R[I.A + 1] = loadElem(D.Data, EK, static_cast<size_t>(Idx) + 1);
      }
      break;
    }

    case Op::LoadShared:
    case Op::StoreShared:
    case Op::LoadArena:
    case Op::StoreArena: {
      const bool Write = I.K == Op::StoreShared || I.K == Op::StoreArena;
      const bool Arena = I.K == Op::LoadArena || I.K == Op::StoreArena;
      ScalarKind EK = static_cast<ScalarKind>(I.C);
      const size_t ES = scalarSize(EK);
      long long Idx = R[I.B].I;
      size_t Base = static_cast<size_t>(I.Imm) + (Arena ? E.K.LocalsBase : 0);
      size_t Off = Base + static_cast<size_t>(Idx) * ES;
      // sharedLoad/sharedStore observe the byte offset; arena (spill)
      // slots are per-thread-private and stay unobserved, like
      // BlockCtx::shared.
      if (!Arena && B.Checks) [[unlikely]]
        sim::detail::observeShared(B, Off, ES, Write, 1);
      if (Idx < 0 || Off + ES > B.SharedBytes || Off < Base)
        return Trap(std::string(Arena ? "arena" : "shared") +
                    " access at byte " + std::to_string(Off) +
                    " outside the block arena of " +
                    std::to_string(B.SharedBytes) + " bytes");
      if (Write)
        storeElem(B.SharedArena + Off, EK, 0, R[I.A]);
      else
        R[I.A] = loadElem(B.SharedArena + Off, EK, 0);
      break;
    }

    case Op::LoadShared2:
    case Op::StoreShared2: {
      const bool Write = I.K == Op::StoreShared2;
      ScalarKind EK = static_cast<ScalarKind>(I.C);
      const size_t ES = scalarSize(EK);
      long long Idx = R[I.B].I;
      size_t Base = static_cast<size_t>(I.Imm);
      size_t Off = Base + static_cast<size_t>(Idx) * ES;
      // As sharedLoad2/sharedStore2: ONE counted transaction at the
      // first element's byte offset, both elements race-logged.
      if (B.Checks) [[unlikely]]
        sim::detail::observeShared(B, Off, ES, Write, 2);
      if (Idx < 0 || Off + 2 * ES > B.SharedBytes || Off < Base)
        return Trap("shared wide access at byte " + std::to_string(Off) +
                    " outside the block arena of " +
                    std::to_string(B.SharedBytes) + " bytes");
      if (Write) {
        storeElem(B.SharedArena + Off, EK, 0, R[I.A]);
        storeElem(B.SharedArena + Off + ES, EK, 0, R[I.A + 1]);
      } else {
        R[I.A] = loadElem(B.SharedArena + Off, EK, 0);
        R[I.A + 1] = loadElem(B.SharedArena + Off + ES, EK, 0);
      }
      break;
    }

#define INT_BIN(OPNAME, EXPR)                                                  \
  case Op::OPNAME: {                                                           \
    long long L = R[I.B].I, Rr = R[I.C].I;                                     \
    (void)L;                                                                   \
    (void)Rr;                                                                  \
    R[I.A].I = (EXPR);                                                         \
    break;                                                                     \
  }
      INT_BIN(AddI, L + Rr)
      INT_BIN(SubI, L - Rr)
      INT_BIN(MulI, L * Rr)
    case Op::DivI: {
      if (R[I.C].I == 0)
        return Trap("integer division by zero");
      R[I.A].I = R[I.B].I / R[I.C].I;
      break;
    }
    case Op::ModI: {
      if (R[I.C].I == 0)
        return Trap("integer modulo by zero");
      R[I.A].I = R[I.B].I % R[I.C].I;
      break;
    }
    case Op::PowI: {
      long long Bv = R[I.B].I, Ev = R[I.C].I;
      if (Ev < 0)
        return Trap("negative exponent in nat power");
      long long Acc = 1;
      for (long long K2 = 0; K2 != Ev; ++K2)
        Acc *= Bv;
      R[I.A].I = Acc;
      break;
    }

#define F64_BIN(OPNAME, OP)                                                    \
  case Op::OPNAME:                                                             \
    R[I.A].F = R[I.B].F OP R[I.C].F;                                           \
    break;
      F64_BIN(AddF, +)
      F64_BIN(SubF, -)
      F64_BIN(MulF, *)
      F64_BIN(DivF, /)

#define F32_BIN(OPNAME, OP)                                                    \
  case Op::OPNAME:                                                             \
    R[I.A].F = static_cast<double>(static_cast<float>(R[I.B].F)                \
                                       OP static_cast<float>(R[I.C].F));       \
    break;
      F32_BIN(AddF32, +)
      F32_BIN(SubF32, -)
      F32_BIN(MulF32, *)
      F32_BIN(DivF32, /)

#define CMP_I(OPNAME, OP)                                                      \
  case Op::OPNAME:                                                             \
    R[I.A].I = R[I.B].I OP R[I.C].I ? 1 : 0;                                   \
    break;
      CMP_I(LtI, <)
      CMP_I(LeI, <=)
      CMP_I(GtI, >)
      CMP_I(GeI, >=)
      CMP_I(EqI, ==)
      CMP_I(NeI, !=)

#define CMP_F(OPNAME, OP)                                                      \
  case Op::OPNAME:                                                             \
    R[I.A].I = R[I.B].F OP R[I.C].F ? 1 : 0;                                   \
    break;
      CMP_F(LtF, <)
      CMP_F(LeF, <=)
      CMP_F(GtF, >)
      CMP_F(GeF, >=)
      CMP_F(EqF, ==)
      CMP_F(NeF, !=)

    case Op::AndI:
      R[I.A].I = (R[I.B].I != 0 && R[I.C].I != 0) ? 1 : 0;
      break;
    case Op::OrI:
      R[I.A].I = (R[I.B].I != 0 || R[I.C].I != 0) ? 1 : 0;
      break;
    case Op::NotI:
      R[I.A].I = R[I.B].I == 0 ? 1 : 0;
      break;
    case Op::NegI:
      R[I.A].I = -R[I.B].I;
      break;
    case Op::NegF:
      R[I.A].F = -R[I.B].F;
      break;
    case Op::NegF32:
      R[I.A].F = static_cast<double>(-static_cast<float>(R[I.B].F));
      break;
    case Op::I2F:
      R[I.A].F = static_cast<double>(R[I.B].I);
      break;
    case Op::F2I:
      R[I.A].I = static_cast<long long>(R[I.B].F);
      break;
    case Op::F2F32:
      R[I.A].F = static_cast<double>(static_cast<float>(R[I.B].F));
      break;

    case Op::Jmp:
      PC = static_cast<size_t>(I.Imm);
      break;
    case Op::Jz:
      if (R[I.A].I == 0)
        PC = static_cast<size_t>(I.Imm);
      break;
    case Op::Ret:
      return true;
    case Op::RetVal:
      if (RetOut)
        *RetOut = R[I.A].I;
      return true;
    default:
      // Unreachable after validateKernel, but bytecode that dodged
      // validation (or a latent compiler bug) must trap, not fall into
      // undefined behavior.
      return Trap("invalid opcode " +
                  std::to_string(static_cast<unsigned>(I.K)) + " at pc " +
                  std::to_string(PC - 1) + " (corrupted bytecode?)");
    }
  }
  return true; // fell off the end: treated like Ret
}

#undef INT_BIN
#undef F64_BIN
#undef F32_BIN
#undef CMP_I
#undef CMP_F

//===----------------------------------------------------------------------===//
// Bytecode validation
//===----------------------------------------------------------------------===//

constexpr unsigned NumOps = static_cast<unsigned>(Op::RetVal) + 1;

/// Checks every instruction of \p C against its register file, constant
/// pool, jump range and the kernel's parameter schema. Returns the first
/// problem as text, empty when clean.
std::string validateCode(const Code &C, const VmKernel &K,
                         const char *What) {
  const size_t N = C.Instrs.size();
  for (size_t PC = 0; PC != N; ++PC) {
    const Instr &I = C.Instrs[PC];
    const unsigned OpV = static_cast<unsigned>(I.K);
    auto Bad = [&](const std::string &Why) {
      return std::string(What) + " of kernel `" + K.Name + "`, pc " +
             std::to_string(PC) + " (" +
             (OpV < NumOps ? opName(I.K) : "invalid") + "): " + Why;
    };
    if (OpV >= NumOps)
      return Bad("opcode " + std::to_string(OpV) + " out of range");

    // Register operands. Wide ops implicitly touch r[A+1].
    const bool Wide = I.K == Op::LoadGlobal2 || I.K == Op::StoreGlobal2 ||
                      I.K == Op::LoadShared2 || I.K == Op::StoreShared2;
    auto RegOk = [&](uint16_t Rg, bool WidePair = false) {
      return static_cast<unsigned>(Rg) + (WidePair ? 1u : 0u) < C.NumRegs;
    };
    auto ElemKindOk = [&] {
      return I.C <= static_cast<uint16_t>(ScalarKind::Unit);
    };
    auto JumpOk = [&] {
      // pc == Instrs.size() is a valid landing spot: the loop exits.
      return I.Imm >= 0 && static_cast<size_t>(I.Imm) <= N;
    };

    switch (I.K) {
    case Op::Const:
      if (!RegOk(I.A))
        return Bad("register r" + std::to_string(I.A) + " out of range (" +
                   std::to_string(C.NumRegs) + " registers)");
      if (I.Imm < 0 || static_cast<size_t>(I.Imm) >= C.Consts.size())
        return Bad("constant index " + std::to_string(I.Imm) +
                   " out of range (pool holds " +
                   std::to_string(C.Consts.size()) + ")");
      break;
    case Op::Coord:
      if (!RegOk(I.A))
        return Bad("register out of range");
      break;
    case Op::Slot:
      if (!RegOk(I.A))
        return Bad("register out of range");
      if (I.Imm < 0 ||
          static_cast<unsigned>(I.Imm) >= sim::BlockCtx::MaxLoopSlots)
        return Bad("loop slot " + std::to_string(I.Imm) +
                   " out of range (max " +
                   std::to_string(sim::BlockCtx::MaxLoopSlots) + ")");
      break;
    case Op::Move:
      if (!RegOk(I.A) || !RegOk(I.B))
        return Bad("register out of range");
      break;
    case Op::LoadGlobal:
    case Op::StoreGlobal:
    case Op::LoadGlobal2:
    case Op::StoreGlobal2:
      if (!RegOk(I.A, Wide) || !RegOk(I.B))
        return Bad("register out of range");
      if (I.Imm < 0 || static_cast<size_t>(I.Imm) >= K.Params.size())
        return Bad("buffer index " + std::to_string(I.Imm) +
                   " out of range (kernel has " +
                   std::to_string(K.Params.size()) + " parameters)");
      if (!ElemKindOk())
        return Bad("invalid element kind " + std::to_string(I.C));
      break;
    case Op::LoadShared:
    case Op::StoreShared:
    case Op::LoadArena:
    case Op::StoreArena:
    case Op::LoadShared2:
    case Op::StoreShared2:
      if (!RegOk(I.A, Wide) || !RegOk(I.B))
        return Bad("register out of range");
      if (I.Imm < 0)
        return Bad("negative shared-memory base offset " +
                   std::to_string(I.Imm));
      if (!ElemKindOk())
        return Bad("invalid element kind " + std::to_string(I.C));
      break;
    case Op::AddI:
    case Op::SubI:
    case Op::MulI:
    case Op::DivI:
    case Op::ModI:
    case Op::PowI:
    case Op::AddF:
    case Op::SubF:
    case Op::MulF:
    case Op::DivF:
    case Op::AddF32:
    case Op::SubF32:
    case Op::MulF32:
    case Op::DivF32:
    case Op::LtI:
    case Op::LeI:
    case Op::GtI:
    case Op::GeI:
    case Op::EqI:
    case Op::NeI:
    case Op::LtF:
    case Op::LeF:
    case Op::GtF:
    case Op::GeF:
    case Op::EqF:
    case Op::NeF:
    case Op::AndI:
    case Op::OrI:
      if (!RegOk(I.A) || !RegOk(I.B) || !RegOk(I.C))
        return Bad("register out of range");
      break;
    case Op::NotI:
    case Op::NegI:
    case Op::NegF:
    case Op::NegF32:
    case Op::I2F:
    case Op::F2I:
    case Op::F2F32:
      if (!RegOk(I.A) || !RegOk(I.B))
        return Bad("register out of range");
      break;
    case Op::Jmp:
      if (!JumpOk())
        return Bad("jump target " + std::to_string(I.Imm) +
                   " out of range [0, " + std::to_string(N) + "]");
      break;
    case Op::Jz:
      if (!RegOk(I.A))
        return Bad("register out of range");
      if (!JumpOk())
        return Bad("jump target " + std::to_string(I.Imm) +
                   " out of range [0, " + std::to_string(N) + "]");
      break;
    case Op::Ret:
      break;
    case Op::RetVal:
      if (!RegOk(I.A))
        return Bad("register out of range");
      break;
    }
  }
  return {};
}

std::string validateNodes(const std::vector<VmNode> &Nodes,
                          const VmKernel &K) {
  for (const VmNode &Nd : Nodes) {
    if (Nd.K == VmNode::Straight) {
      if (std::string E = validateCode(Nd.Body, K, "phase body");
          !E.empty())
        return E;
      if (Nd.SplitDim < 0)
        continue;
      if (Nd.SplitDim > 2)
        return "phase of kernel `" + K.Name + "` splits dimension " +
               std::to_string(Nd.SplitDim) + " (max 2)";
      if (std::string E = validateCode(Nd.At, K, "split position");
          !E.empty())
        return E;
      if (!Nd.Else.Instrs.empty())
        if (std::string E = validateCode(Nd.Else, K, "split else side");
            !E.empty())
          return E;
      continue;
    }
    if (Nd.Slot >= sim::BlockCtx::MaxLoopSlots)
      return "loop node of kernel `" + K.Name + "` uses slot " +
             std::to_string(Nd.Slot) + " (max " +
             std::to_string(sim::BlockCtx::MaxLoopSlots) + ")";
    if (std::string E = validateCode(Nd.Lo, K, "loop lower bound");
        !E.empty())
      return E;
    if (std::string E = validateCode(Nd.Hi, K, "loop upper bound");
        !E.empty())
      return E;
    if (std::string E = validateNodes(Nd.Children, K); !E.empty())
      return E;
  }
  return {};
}

long long evalBound(const Code &C, KernelEnv &E, const sim::BlockCtx &B) {
  if (E.Trap.tripped())
    return 0; // drains the remaining phase structure quickly
  std::vector<Value> R(C.NumRegs);
  long long Out = 0;
  sim::ThreadCtx T;
  execCode(C, E, const_cast<sim::BlockCtx &>(B), T, R, &Out);
  return E.Trap.tripped() ? 0 : Out;
}

void buildProgram(sim::PhaseProgram &Prog, const std::vector<VmNode> &Nodes,
                  KernelEnv &Env, sim::Dim3 Block) {
  for (const VmNode &N : Nodes) {
    if (N.K == VmNode::Straight) {
      // NOTE: the node's std::function is shared across parallel block
      // executions — all per-invocation state (the register file, the
      // thread loop) must live inside the call, never in the capture.
      Prog.straightBlock([&Env, &N, Block](sim::BlockCtx &B) {
        if (Env.Trap.tripped())
          return;
        std::vector<Value> R(
            std::max({N.Body.NumRegs, N.Else.NumRegs, N.At.NumRegs}));
        if (N.SplitDim < 0) {
          auto Thread = [&](sim::BlockCtx &B, const sim::ThreadCtx &T) {
            return execCode(N.Body, Env, B, T, R, nullptr);
          };
          sim::detail::runPhaseThreads(B, Block, Thread);
          return;
        }
        auto Side = [&](sim::BlockCtx &B, const sim::ThreadCtx &T,
                        auto Then) {
          return execCode(Then ? N.Body : N.Else, Env, B, T, R, nullptr);
        };
        long long At = 0;
        if (!execCode(N.At, Env, B, sim::ThreadCtx{}, R, &At))
          return;
        if (N.Else.Instrs.empty())
          sim::detail::runSplitThreads<true>(B, Block, N.SplitDim, At, Side);
        else
          sim::detail::runSplitThreads<false>(B, Block, N.SplitDim, At, Side);
      });
      continue;
    }
    Prog.loopBegin(
        N.Slot,
        [&Env, &C = N.Lo](const sim::BlockCtx &B) {
          return evalBound(C, Env, B);
        },
        [&Env, &C = N.Hi](const sim::BlockCtx &B) {
          return evalBound(C, Env, B);
        });
    buildProgram(Prog, N.Children, Env, Block);
    Prog.loopEnd();
  }
}

//===----------------------------------------------------------------------===//
// Host execution
//===----------------------------------------------------------------------===//

/// Internal host-side failure; converted to a RunStatus at the public
/// entry point, never propagated past it.
struct HostError {
  std::string Msg;
};

[[noreturn]] void hostFail(std::string Msg) { throw HostError{std::move(Msg)}; }

struct HostEnv {
  sim::GpuDevice &Dev;
  const CompiledProgram &P;
};

long long asI(Value V, ScalarKind K) {
  return isFloatKind(K) ? static_cast<long long>(V.F) : V.I;
}
double asF(Value V, ScalarKind K) {
  return isFloatKind(K) ? V.F : static_cast<double>(V.I);
}

/// Re-classifies \p V (of kind \p From) as kind \p To with C++ cast
/// semantics; final storage narrowing (i32, f32 payloads) happens in
/// storeElem.
Value convertValue(Value V, ScalarKind From, ScalarKind To) {
  Value Out;
  if (isFloatKind(To)) {
    Out.F = asF(V, From);
    if (To == ScalarKind::F32)
      Out.F = static_cast<double>(static_cast<float>(Out.F));
  } else {
    Out.I = asI(V, From);
  }
  return Out;
}

Value evalHost(const HostExpr &E, const std::vector<HostVal> &Frame) {
  switch (E.K) {
  case HostExpr::Lit: {
    Value V;
    if (isFloatKind(E.Ty))
      V.F = E.Ty == ScalarKind::F32
                ? static_cast<double>(static_cast<float>(E.F))
                : E.F;
    else
      V.I = E.I;
    return V;
  }
  case HostExpr::Slot: {
    const HostVal &S = Frame[E.SlotIdx];
    if (S.K != HostVal::Scalar)
      hostFail("host expression reads a non-scalar frame slot");
    return S.V;
  }
  case HostExpr::Index: {
    const HostVal &S = Frame[E.SlotIdx];
    if (S.K != HostVal::Array || !S.Arr)
      hostFail("host expression indexes a non-array frame slot");
    Value IV = evalHost(*E.L, Frame);
    long long I = asI(IV, E.L->Ty);
    if (I < 0 || static_cast<size_t>(I) >= S.Arr->Count)
      hostFail("host array index " + std::to_string(I) +
               " out of range [0, " + std::to_string(S.Arr->Count) + ")");
    return loadElem(S.Arr->Bytes.data(), S.Arr->Elem,
                    static_cast<size_t>(I));
  }
  case HostExpr::Binary: {
    Value L = evalHost(*E.L, Frame);
    Value R = evalHost(*E.R, Frame);
    ScalarKind LK = E.L->Ty, RK = E.R->Ty;
    auto BO = static_cast<BinOpKind>(E.BO);
    Value Out;
    switch (BO) {
    case BinOpKind::And:
      Out.I = (asI(L, LK) != 0 && asI(R, RK) != 0) ? 1 : 0;
      return Out;
    case BinOpKind::Or:
      Out.I = (asI(L, LK) != 0 || asI(R, RK) != 0) ? 1 : 0;
      return Out;
    default:
      break;
    }
    bool FloatOp = isFloatKind(LK) || isFloatKind(RK);
    bool Cmp = BO == BinOpKind::Eq || BO == BinOpKind::Ne ||
               BO == BinOpKind::Lt || BO == BinOpKind::Le ||
               BO == BinOpKind::Gt || BO == BinOpKind::Ge;
    if (Cmp) {
      bool B2;
      if (FloatOp) {
        double A = asF(L, LK), C = asF(R, RK);
        B2 = BO == BinOpKind::Eq   ? A == C
             : BO == BinOpKind::Ne ? A != C
             : BO == BinOpKind::Lt ? A < C
             : BO == BinOpKind::Le ? A <= C
             : BO == BinOpKind::Gt ? A > C
                                   : A >= C;
      } else {
        long long A = asI(L, LK), C = asI(R, RK);
        B2 = BO == BinOpKind::Eq   ? A == C
             : BO == BinOpKind::Ne ? A != C
             : BO == BinOpKind::Lt ? A < C
             : BO == BinOpKind::Le ? A <= C
             : BO == BinOpKind::Gt ? A > C
                                   : A >= C;
      }
      Out.I = B2 ? 1 : 0;
      return Out;
    }
    if (FloatOp) {
      bool Narrow = E.Ty == ScalarKind::F32;
      double A = asF(L, LK), C = asF(R, RK);
      if (Narrow) {
        float Af = static_cast<float>(A), Cf = static_cast<float>(C);
        float X = BO == BinOpKind::Add   ? Af + Cf
                  : BO == BinOpKind::Sub ? Af - Cf
                  : BO == BinOpKind::Mul ? Af * Cf
                  : BO == BinOpKind::Div
                      ? Af / Cf
                      : (hostFail("float modulo in host code"), 0.0f);
        Out.F = static_cast<double>(X);
      } else {
        Out.F = BO == BinOpKind::Add   ? A + C
                : BO == BinOpKind::Sub ? A - C
                : BO == BinOpKind::Mul ? A * C
                : BO == BinOpKind::Div
                    ? A / C
                    : (hostFail("float modulo in host code"), 0.0);
      }
      return Out;
    }
    long long A = asI(L, LK), C = asI(R, RK);
    if ((BO == BinOpKind::Div || BO == BinOpKind::Mod) && C == 0)
      hostFail("integer division by zero in host code");
    Out.I = BO == BinOpKind::Add   ? A + C
            : BO == BinOpKind::Sub ? A - C
            : BO == BinOpKind::Mul ? A * C
            : BO == BinOpKind::Div ? A / C
                                   : A % C;
    return Out;
  }
  case HostExpr::Unary: {
    Value S = evalHost(*E.L, Frame);
    Value Out;
    if (static_cast<UnOpKind>(E.UO) == UnOpKind::Not) {
      Out.I = asI(S, E.L->Ty) == 0 ? 1 : 0;
      return Out;
    }
    if (isFloatKind(E.L->Ty)) {
      Out.F = -asF(S, E.L->Ty);
      if (E.L->Ty == ScalarKind::F32)
        Out.F = static_cast<double>(-static_cast<float>(S.F));
    } else {
      Out.I = -asI(S, E.L->Ty);
    }
    return Out;
  }
  }
  hostFail("unhandled host expression kind");
}

void execHostFn(HostEnv &E, const HostFnIR &Fn, std::vector<HostVal> Args,
                unsigned Depth);

void execHostStmts(HostEnv &E, const std::vector<HostStmt> &Stmts,
                   std::vector<HostVal> &Frame, unsigned Depth) {
  for (const HostStmt &S : Stmts) {
    switch (S.K) {
    case HostStmt::AllocHost: {
      auto Arr = std::make_shared<HostArray>();
      Arr->Elem = S.Elem;
      Arr->Count = S.Count;
      Arr->Bytes.resize(S.Count * scalarSize(S.Elem));
      Value Fill = S.Fill ? convertValue(evalHost(*S.Fill, Frame),
                                         S.Fill->Ty, S.Elem)
                          : Value{};
      for (size_t I = 0; I != S.Count; ++I)
        storeElem(Arr->Bytes.data(), S.Elem, I, Fill);
      Frame[S.Dst] = HostVal::array(std::move(Arr));
      break;
    }
    case HostStmt::AllocCopy: {
      const HostVal &Src = Frame[S.Src];
      if (Src.K != HostVal::Array || !Src.Arr)
        hostFail("alloc_copy source is not a host array");
      DevBuf D = allocDev(E.Dev, Src.Arr->Elem, Src.Arr->Count,
                          /*Zero=*/false);
      std::memcpy(D.Data, Src.Arr->Bytes.data(), Src.Arr->Bytes.size());
      Frame[S.Dst] = HostVal::dev(D);
      break;
    }
    case HostStmt::CopyToHost: {
      const HostVal &Dst = Frame[S.Dst];
      const HostVal &Src = Frame[S.Src];
      if (Dst.K != HostVal::Array || !Dst.Arr || Src.K != HostVal::Dev)
        hostFail("copy_mem_to_host: arguments have the wrong kinds");
      if (Dst.Arr->Count != Src.DevB.Count ||
          Dst.Arr->Elem != Src.DevB.Elem)
        hostFail("copy_mem_to_host: size mismatch"); // same text as rt::
      std::memcpy(Dst.Arr->Bytes.data(), Src.DevB.Data,
                  Dst.Arr->Bytes.size());
      break;
    }
    case HostStmt::CopyToGpu: {
      const HostVal &Dst = Frame[S.Dst];
      const HostVal &Src = Frame[S.Src];
      if (Dst.K != HostVal::Dev || Src.K != HostVal::Array || !Src.Arr)
        hostFail("copy_to_gpu: arguments have the wrong kinds");
      if (Dst.DevB.Count != Src.Arr->Count ||
          Dst.DevB.Elem != Src.Arr->Elem)
        hostFail("copy_to_gpu: size mismatch"); // same text as rt::
      std::memcpy(Dst.DevB.Data, Src.Arr->Bytes.data(),
                  Src.Arr->Bytes.size());
      break;
    }
    case HostStmt::Launch: {
      const VmKernel &K = E.P.Kernels[S.KernelIdx];
      std::vector<DevBuf> Bufs;
      for (unsigned Slot : S.ArgSlots) {
        if (Frame[Slot].K != HostVal::Dev)
          hostFail("launch argument is not a device buffer");
        Bufs.push_back(Frame[Slot].DevB);
      }
      RunStatus St = launchKernel(E.Dev, K, Bufs);
      if (!St.Ok)
        hostFail(St.Error);
      break;
    }
    case HostStmt::LetScalar:
    case HostStmt::Assign: {
      if (S.K == HostStmt::Assign && S.Idx) {
        HostVal &Dst = Frame[S.Dst];
        if (Dst.K != HostVal::Array || !Dst.Arr)
          hostFail("indexed assignment into a non-array slot");
        long long I = asI(evalHost(*S.Idx, Frame), S.Idx->Ty);
        if (I < 0 || static_cast<size_t>(I) >= Dst.Arr->Count)
          hostFail("host array index " + std::to_string(I) +
                   " out of range [0, " + std::to_string(Dst.Arr->Count) +
                   ")");
        Value V =
            convertValue(evalHost(*S.Fill, Frame), S.Fill->Ty, Dst.Arr->Elem);
        storeElem(Dst.Arr->Bytes.data(), Dst.Arr->Elem,
                  static_cast<size_t>(I), V);
        break;
      }
      Value V = convertValue(evalHost(*S.Fill, Frame), S.Fill->Ty, S.Elem);
      Frame[S.Dst] = HostVal::scalar(S.Elem, V);
      break;
    }
    case HostStmt::Block:
      execHostStmts(E, S.Body, Frame, Depth);
      break;
    case HostStmt::ForNat: {
      // Same trip semantics as the generated `for (V = Lo; V != Hi; ++V)`.
      for (long long V = S.Lo; V != S.Hi; ++V) {
        Value IV;
        IV.I = V;
        Frame[S.Dst] = HostVal::scalar(ScalarKind::I64, IV);
        execHostStmts(E, S.Body, Frame, Depth);
      }
      break;
    }
    case HostStmt::Call: {
      // Buffers pass by reference; scalars convert to the parameter's
      // kind, as at a C++ call boundary.
      const HostFnIR &Callee = E.P.HostFns[S.CalleeIdx];
      std::vector<HostVal> Args;
      for (size_t I = 0; I != S.Args.size(); ++I) {
        const HostExpr &A = S.Args[I];
        if (A.K == HostExpr::Slot && Frame[A.SlotIdx].K != HostVal::Scalar) {
          Args.push_back(Frame[A.SlotIdx]);
          continue;
        }
        ScalarKind To = I < Callee.Params.size() ? Callee.Params[I].Elem : A.Ty;
        Args.push_back(HostVal::scalar(
            To, convertValue(evalHost(A, Frame), A.Ty, To)));
      }
      execHostFn(E, Callee, std::move(Args), Depth + 1);
      break;
    }
    }
  }
}

void execHostFn(HostEnv &E, const HostFnIR &Fn, std::vector<HostVal> Args,
                unsigned Depth) {
  if (Depth > 64)
    hostFail("host call depth exceeds 64 (runaway recursion?)");
  if (Args.size() != Fn.Params.size())
    hostFail("host `" + Fn.Name + "` expects " +
             std::to_string(Fn.Params.size()) + " arguments, got " +
             std::to_string(Args.size()));
  for (size_t I = 0; I != Args.size(); ++I) {
    const HostFnIR::Param &P = Fn.Params[I];
    const HostVal &A = Args[I];
    switch (P.K) {
    case HostFnIR::Param::HostArr:
      if (A.K != HostVal::Array || !A.Arr || A.Arr->Elem != P.Elem ||
          A.Arr->Count != P.Count)
        hostFail("argument " + std::to_string(I) + " of host `" + Fn.Name +
                 "` must be a host array of " + std::to_string(P.Count) +
                 " x " + scalarKindName(P.Elem));
      break;
    case HostFnIR::Param::DevArr:
      if (A.K != HostVal::Dev || A.DevB.Elem != P.Elem ||
          A.DevB.Count != P.Count)
        hostFail("argument " + std::to_string(I) + " of host `" + Fn.Name +
                 "` must be a device buffer of " + std::to_string(P.Count) +
                 " x " + scalarKindName(P.Elem));
      break;
    case HostFnIR::Param::Scalar:
      if (A.K != HostVal::Scalar)
        hostFail("argument " + std::to_string(I) + " of host `" + Fn.Name +
                 "` must be a scalar");
      break;
    }
  }
  std::vector<HostVal> Frame(Fn.NumSlots);
  for (size_t I = 0; I != Args.size(); ++I)
    Frame[I] = std::move(Args[I]);
  execHostStmts(E, Fn.Body, Frame, Depth);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

DevBuf vm::allocDev(sim::GpuDevice &Dev, ScalarKind Elem, size_t Count,
                   bool Zero) {
  DevBuf D;
  D.Elem = Elem;
  D.Count = Count;
  D.Data = Dev.allocRaw(Count * scalarSize(Elem), D.Id, Zero);
  return D;
}

std::shared_ptr<HostArray> vm::makeHostArray(ScalarKind Elem, size_t Count,
                                             double Fill) {
  auto Arr = std::make_shared<HostArray>();
  Arr->Elem = Elem;
  Arr->Count = Count;
  Arr->Bytes.resize(Count * scalarSize(Elem));
  Value V;
  if (isFloatKind(Elem))
    V.F = Elem == ScalarKind::F32
              ? static_cast<double>(static_cast<float>(Fill))
              : Fill;
  else
    V.I = static_cast<long long>(Fill);
  for (size_t I = 0; I != Count; ++I)
    storeElem(Arr->Bytes.data(), Elem, I, V);
  return Arr;
}

RunStatus vm::validateKernel(const VmKernel &K) {
  if (std::string E = validateNodes(K.Nodes, K); !E.empty())
    return {false, "invalid bytecode: " + E};
  return {};
}

RunStatus vm::launchKernel(sim::GpuDevice &Dev, const VmKernel &K,
                           const std::vector<DevBuf> &Args) {
  // CUDA sticky-error semantics: a poisoned device rejects every launch
  // with the original error until GpuDevice::reset().
  if (Dev.poisoned()) {
    std::string Msg;
    sim::ErrorCode Code = Dev.getLastError(&Msg);
    return {false, "kernel `" + K.Name + "` not launched: device in error "
                   "state (" +
                       sim::errorCodeName(Code) + "): " + Msg};
  }
  if (Args.size() != K.Params.size())
    return {false, "kernel `" + K.Name + "` expects " +
                       std::to_string(K.Params.size()) + " buffers, got " +
                       std::to_string(Args.size())};
  for (size_t I = 0; I != Args.size(); ++I)
    if (Args[I].Elem != K.Params[I].Elem ||
        Args[I].Count != K.Params[I].Count)
      return {false, "kernel `" + K.Name + "` argument `" +
                         K.Params[I].Name + "` must be " +
                         std::to_string(K.Params[I].Count) + " x " +
                         scalarKindName(K.Params[I].Elem)};

  if (RunStatus V = validateKernel(K); !V.Ok)
    return V;

  TrapState Trap;
  KernelEnv Env{K, Args, Trap, Dev.watchdog().StepBudget};
  const uint64_t Seq0 = Dev.errorSeq();
  sim::PhaseProgram Prog;
  buildProgram(Prog, K.Nodes, Env, K.Block);
  // Synchronous, like every generated sim launch; phase numbering and
  // loopVar slots are maintained by launchProgram itself.
  sim::launchProgram(Dev, K.Grid, K.Block, K.ArenaBytes, Prog);
  if (Dev.countersEnabled()) {
    // Unlike generated C++ launches, the interpreter knows the kernel's
    // name and whether it faulted: tag the launch it just recorded.
    Dev.labelLastLaunch(K.Name);
    if (Trap.tripped())
      Dev.noteLaunchTraps(1);
  }
  if (Trap.tripped()) {
    // Workers have synchronized by now, so Msg/Timedout are stable. The
    // trap becomes the device's sticky error, like a CUDA kernel fault.
    Dev.setDeviceError(Trap.Timedout ? sim::ErrorCode::KernelTimeout
                                     : sim::ErrorCode::KernelTrap,
                       Trap.Msg);
    return {false, Trap.Msg};
  }
  if (Dev.errorSeq() != Seq0) {
    // The launch machinery itself failed under us (injected launch trap,
    // wall-clock watchdog): report the device's error, not success.
    std::string Msg;
    sim::ErrorCode Code = Dev.getLastError(&Msg);
    return {false, std::string(sim::errorCodeName(Code)) + ": " + Msg};
  }
  return {};
}

RunStatus vm::runHostFn(sim::GpuDevice &Dev, const CompiledProgram &P,
                        const HostFnIR &Fn, std::vector<HostVal> Args) {
  try {
    HostEnv E{Dev, P};
    execHostFn(E, Fn, std::move(Args), 0);
    return {};
  } catch (const HostError &H) {
    return {false, "in host `" + Fn.Name + "`: " + H.Msg};
  } catch (const std::exception &Ex) {
    return {false, std::string("internal error in host execution: ") +
                       Ex.what()};
  } catch (...) {
    return {false, "internal error in host execution"};
  }
}

//===- codegen/SimBackend.cpp - Simulator backend ----------------------------===//
//
// The `sim` backend: the shared lowering, but kernels are emitted as
// phase-structured C++ against sim/Sim.h, with sync compiled into a phase
// boundary. The lowering result is a phase-program IR (codegen/PhaseIR.h):
// loop-free kernels are emitted as a variadic launchPhases call (direct,
// inlinable phase calls); kernels with sync-containing loops are emitted
// as a constant number of phase lambdas plus host-side loop structure
// (sim::PhaseProgram / launchProgram), so the generated code size is
// independent of the loop trip count. This is the backend the Figure 8
// reproduction compiles and measures.
//
//===----------------------------------------------------------------------===//

#include "codegen/Backend.h"
#include "codegen/Lowerer.h"
#include "codegen/PhaseIR.h"
#include "hostgen/HostGen.h"
#include "kir/KIR.h"

#include "sim/Sim.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>

using namespace descend;
using namespace descend::codegen;

namespace {

/// One enclosing PhaseLoop binding visible to a phase body or bound.
struct LoopBinding {
  std::string Var;
  unsigned Slot;
};

/// Emits `const long long <var> = _b.loopVar(<slot>);` declarations for
/// the enclosing loop variables. Inner bindings shadow outer ones of the
/// same name, so only the innermost occurrence of each name is declared.
void emitLoopVarDecls(std::ostringstream &OS,
                      const std::vector<LoopBinding> &Enclosing,
                      const char *Indent) {
  for (size_t I = 0; I != Enclosing.size(); ++I) {
    bool ShadowedLater = false;
    for (size_t J = I + 1; J != Enclosing.size(); ++J)
      ShadowedLater |= Enclosing[J].Var == Enclosing[I].Var;
    if (ShadowedLater)
      continue;
    OS << Indent << "const long long " << Enclosing[I].Var << " = _b.loopVar("
       << Enclosing[I].Slot << "); (void)" << Enclosing[I].Var << ";\n";
  }
}

/// Renders a PhaseLoop bound as a host-side lambda over the BlockCtx.
std::string boundLambda(const Nat &N,
                        const std::vector<LoopBinding> &Enclosing) {
  std::ostringstream OS;
  OS << "[](const BlockCtx &_b) -> long long { (void)_b; ";
  std::ostringstream Decls;
  emitLoopVarDecls(Decls, Enclosing, "");
  // Fold the newline-separated declarations onto one line.
  std::string D = Decls.str();
  for (char &C : D)
    if (C == '\n')
      C = ' ';
  OS << D << "return " << kir::natToCpp(N, kir::SimStyle()) << "; }";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Coordinate local types
//
// A phase body reads the block/thread coordinates through locals. They
// are `unsigned` — the type of the simulator's Dim3/ThreadCtx fields, and
// what handwritten kernels index with, so GCC can split a thread loop at
// a `_tx < c` guard the same way for both — whenever that provably
// computes what `long long` locals would. It does when every
// unsigned-typed intermediate of every printed index, guard and loop
// bound stays in [0, 2^32): then no unsigned operation wraps, and every
// conversion to a wider type sees the exact value. Otherwise the body
// keeps `long long` locals.
//
// The check follows how C++ parses the printed text, not the Nat tree:
// natToCpp leaves a same-precedence right operand of + and *
// unparenthesized, so `a + (b + c)` prints as, and evaluates like,
// `(a + b) + c`.
//===----------------------------------------------------------------------===//

/// Inclusive value range of each coordinate local (`_bx` .. `_tz`).
using CoordRanges = std::map<std::string, std::pair<long long, long long>>;

class UnsignedCoordCheck {
public:
  explicit UnsignedCoordCheck(CoordRanges Ranges) : Ranges(std::move(Ranges)) {}

  /// True when \p Body may declare its coordinates `unsigned`.
  bool run(const std::vector<kir::Stmt> &Body) {
    stmts(Body);
    return Ok;
  }

private:
  /// The C++ type a printed subexpression has: an int literal, an
  /// unsigned expression (coordinates, possibly with int literals), or a
  /// 64-bit one (loop variables, hoisted indices, shifts, big literals).
  enum class Ty { Int, U32, Wide };
  struct Val {
    Ty T = Ty::Wide;
    __int128 Lo = 0, Hi = 0; // exact value range; meaningful unless Wide
  };
  static constexpr __int128 U32Max = 0xffffffffll;

  static bool isBinary(NatKind K) {
    return K == NatKind::Add || K == NatKind::Sub || K == NatKind::Mul ||
           K == NatKind::Div || K == NatKind::Mod;
  }
  static unsigned prec(NatKind K) {
    return K == NatKind::Add || K == NatKind::Sub ? 1 : 2;
  }

  /// Appends the operands of \p N's same-precedence chain in the order
  /// C++ folds them, each with the operator joining it to the left.
  static void flatten(const Nat &N, NatKind Lead,
                      std::vector<std::pair<NatKind, Nat>> &Seq) {
    const unsigned P = prec(N.kind());
    if (isBinary(N.lhs().kind()) && prec(N.lhs().kind()) == P)
      flatten(N.lhs(), Lead, Seq);
    else
      Seq.push_back({Lead, N.lhs()});
    const bool RhsInline =
        (N.kind() == NatKind::Add || N.kind() == NatKind::Mul) &&
        isBinary(N.rhs().kind()) && prec(N.rhs().kind()) == P;
    if (RhsInline)
      flatten(N.rhs(), N.kind(), Seq);
    else
      Seq.push_back({N.kind(), N.rhs()});
  }

  void need(bool Cond) { Ok = Ok && Cond; }
  static bool inU32(const Val &V) { return V.Lo >= 0 && V.Hi <= U32Max; }

  Val combine(const Val &A, NatKind Op, const Val &B) {
    Val R;
    if (A.T == Ty::Wide || B.T == Ty::Wide)
      return R; // 64-bit arithmetic: the long long semantics
    R.T = A.T == Ty::U32 || B.T == Ty::U32 ? Ty::U32 : Ty::Int;
    switch (Op) {
    case NatKind::Add:
      R.Lo = A.Lo + B.Lo;
      R.Hi = A.Hi + B.Hi;
      break;
    case NatKind::Sub:
      R.Lo = A.Lo - B.Hi;
      R.Hi = A.Hi - B.Lo;
      break;
    case NatKind::Mul: {
      const __int128 P[] = {A.Lo * B.Lo, A.Lo * B.Hi, A.Hi * B.Lo,
                            A.Hi * B.Hi};
      R.Lo = *std::min_element(std::begin(P), std::end(P));
      R.Hi = *std::max_element(std::begin(P), std::end(P));
      break;
    }
    default: // Div, Mod: only ranges of non-negative by positive
      if (A.Lo < 0 || B.Lo < 1) {
        R.Lo = -1; // unknown: fails any unsigned use below
        R.Hi = U32Max + 1;
        break;
      }
      R.Lo = Op == NatKind::Div ? A.Lo / B.Hi : 0;
      R.Hi = Op == NatKind::Div ? A.Hi / B.Lo : std::min(A.Hi, B.Hi - 1);
      break;
    }
    if (R.T == Ty::U32)
      need(inU32(R));
    return R;
  }

  /// \p N as printed: an atom, or a chain folded left to right.
  Val nat(const Nat &N) {
    switch (N.kind()) {
    case NatKind::Lit: {
      Val V;
      const long long L = N.litValue();
      V.T = L >= INT32_MIN && L <= INT32_MAX ? Ty::Int : Ty::Wide;
      V.Lo = V.Hi = L;
      return V;
    }
    case NatKind::Var: {
      auto It = Ranges.find(N.varName());
      if (It == Ranges.end())
        return Val{}; // loop variable or hoisted index: long long
      return Val{Ty::U32, It->second.first, It->second.second};
    }
    case NatKind::Pow:
      nat(N.rhs()); // the shift amount is checked on its own
      return Val{};
    default: {
      std::vector<std::pair<NatKind, Nat>> Seq;
      flatten(N, N.kind(), Seq);
      Val Acc = nat(Seq.front().second);
      for (size_t I = 1; I != Seq.size(); ++I)
        Acc = combine(Acc, Seq[I].first, nat(Seq[I].second));
      return Acc;
    }
    }
  }
  Val printed(const Nat &N) { return nat(N.simplified()); }

  void expr(const kir::Expr &E, bool Operand) {
    switch (E.K) {
    case kir::ExprKind::NatVal:
      // An unsigned value is exact on its own, but as an operand of a
      // scalar operator (`i - _tx`, `-_tx`) it would make that unsigned.
      need(printed(E.N).T != Ty::U32 || !Operand);
      return;
    case kir::ExprKind::Load:
      printed(E.Index);
      return;
    case kir::ExprKind::Binary:
      if (E.Lhs)
        expr(*E.Lhs, true);
      if (E.Rhs)
        expr(*E.Rhs, true);
      return;
    case kir::ExprKind::Unary:
      if (E.Sub)
        expr(*E.Sub, true);
      return;
    default:
      return;
    }
  }

  /// A wide access also reads element Index + 1.
  void index(const Nat &N, unsigned Width) {
    const Val V = printed(N);
    if (V.T == Ty::U32)
      need(V.Hi + (Width - 1) <= U32Max);
  }

  void stmts(const std::vector<kir::Stmt> &Body) {
    for (const kir::Stmt &S : Body)
      stmt(S);
  }

  void stmt(const kir::Stmt &S) {
    switch (S.K) {
    case kir::StmtKind::Let:
    case kir::StmtKind::Assign:
      if (S.Value) {
        if (S.Width == 2 && S.Value->K == kir::ExprKind::Load)
          index(S.Value->Index, 2);
        else
          expr(*S.Value, false);
      }
      return;
    case kir::StmtKind::LetIndex:
      printed(S.Index);
      return;
    case kir::StmtKind::Store:
      index(S.Index, S.Width);
      if (S.Value)
        expr(*S.Value, false);
      if (S.Value2)
        expr(*S.Value2, false);
      return;
    case kir::StmtKind::If: {
      const Val L = printed(S.CondL), R = printed(S.CondR);
      if (L.T == Ty::U32 || R.T == Ty::U32)
        need(L.T == Ty::Wide || R.T == Ty::Wide || (inU32(L) && inU32(R)));
      // Narrow a `coord < c` / `c < coord` guard's coordinate per branch.
      const Nat CL = S.CondL.simplified(), CR = S.CondR.simplified();
      std::string Coord;
      long long C = 0;
      bool CoordLeft = false;
      if (CL.kind() == NatKind::Var && CR.isLit() &&
          Ranges.count(CL.varName())) {
        Coord = CL.varName();
        C = CR.litValue();
        CoordLeft = true;
      } else if (CR.kind() == NatKind::Var && CL.isLit() &&
                 Ranges.count(CR.varName())) {
        Coord = CR.varName();
        C = CL.litValue();
      }
      branch(S.Then, Coord, CoordLeft, C, /*Taken=*/true);
      branch(S.Else, Coord, CoordLeft, C, /*Taken=*/false);
      return;
    }
    case kir::StmtKind::For:
      printed(S.Lo);
      printed(S.Hi);
      stmts(S.Body);
      return;
    case kir::StmtKind::Barrier:
      return;
    }
  }

  /// Checks one branch of a guard with \p Coord narrowed: `Coord < C`
  /// (CoordLeft) or `C < Coord` holds iff \p Taken. A branch no thread
  /// can reach is skipped.
  void branch(const std::vector<kir::Stmt> &Body, const std::string &Coord,
              bool CoordLeft, long long C, bool Taken) {
    if (Coord.empty()) {
      stmts(Body);
      return;
    }
    const std::pair<long long, long long> Saved = Ranges[Coord];
    auto &[Lo, Hi] = Ranges[Coord];
    if (CoordLeft == Taken) // Coord < C holds, or C < Coord fails
      Hi = std::min(Hi, CoordLeft ? C - 1 : C);
    else // C < Coord holds, or Coord < C fails
      Lo = std::max(Lo, CoordLeft ? C : C + 1);
    if (Lo <= Hi)
      stmts(Body);
    Ranges[Coord] = Saved;
  }

  CoordRanges Ranges;
  bool Ok = true;
};

class SimBackend final : public Backend {
public:
  const char *name() const override { return "sim"; }
  const char *description() const override {
    return "phase-structured simulator C++ header (sim/Sim.h substrate)";
  }
  GenResult emit(const Module &M, const BackendOptions &Opts) const override;
};

/// Prints \p Stmts at \p Indent levels into \p OS, keeping the first
/// printing error in \p Err.
void emitStmts(std::ostringstream &OS, const std::vector<kir::Stmt> &Stmts,
               unsigned Indent, std::string &Err) {
  std::string Text;
  std::string PrintErr;
  if (!kir::printStmts(Stmts, kir::SimStyle(), Indent, Text, PrintErr) &&
      Err.empty())
    Err = PrintErr;
  OS << Text;
}

/// Emits one phase — a typed kernel-IR statement vector printed with the
/// simulator spelling — as a launchPhases argument / straight() operand.
/// The coordinate locals are `unsigned` where UnsignedCoordCheck proves
/// that exact for the kernel's \p Coords ranges (empty: extents unknown).
///
/// A body kir::threadSplit matches — a guard on one thread coordinate —
/// becomes a sim::split phase: the guard's bound is the split position,
/// the branches are the two sides of one body lambda (told apart with
/// `if constexpr`), and an empty else side is idle, so the simulator runs
/// only the threads the guard admits. Otherwise the phase is one
/// per-thread lambda.
void emitPhase(std::ostringstream &OS, const std::vector<kir::Stmt> &Body,
               const std::vector<LoopBinding> &Enclosing,
               const CoordRanges &Coords, std::string &Err) {
  const char *CoordTy =
      !Coords.empty() && UnsignedCoordCheck(Coords).run(Body) ? "unsigned"
                                                              : "long long";
  // Descend split positions are instantiated nats, so a matched guard's
  // bound is a literal; any other bound keeps the guard.
  kir::ThreadSplit Split;
  const bool IsSplit = kir::threadSplit(Body, Split) &&
                       Split.Guard->CondR.simplified().isLit();
  const bool ElseIdle = IsSplit && Split.Guard->Else.empty();
  if (IsSplit) {
    static const char *const Dims[] = {"ThreadX", "ThreadY", "ThreadZ"};
    OS << "descend::sim::split(descend::sim::" << Dims[Split.Dim] << ", "
       << kir::natToCpp(Split.Guard->CondR, kir::SimStyle()) << ",\n"
       << "    [&](BlockCtx &_b, ThreadCtx &_t, auto"
       << (ElseIdle ? "" : " _then") << ") {\n";
  } else {
    OS << "[&](BlockCtx &_b, ThreadCtx &_t) {\n";
  }
  OS << "      const " << CoordTy << " _bx = _b.X, _by = _b.Y, _bz = _b.Z;\n";
  OS << "      const " << CoordTy << " _tx = _t.X, _ty = _t.Y, _tz = _t.Z;\n";
  OS << "      const size_t _lin = _b.CurThread;\n";
  OS << "      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; "
        "(void)_tz; (void)_lin;\n";
  emitLoopVarDecls(OS, Enclosing, "      ");
  if (!IsSplit) {
    emitStmts(OS, Body, /*Indent=*/3, Err);
    OS << "    }";
    return;
  }
  std::vector<kir::Stmt> Prefix; // LetIndex statements: name and value
  for (size_t I = 0; I != Split.Prefix; ++I)
    Prefix.push_back(kir::Stmt::letIndex(Body[I].Name, Body[I].Index));
  emitStmts(OS, Prefix, /*Indent=*/3, Err);
  if (ElseIdle) {
    emitStmts(OS, Split.Guard->Then, /*Indent=*/3, Err);
    OS << "    }, descend::sim::idle)";
    return;
  }
  OS << "      if constexpr (_then) {\n";
  emitStmts(OS, Split.Guard->Then, /*Indent=*/4, Err);
  OS << "      } else {\n";
  emitStmts(OS, Split.Guard->Else, /*Indent=*/4, Err);
  OS << "      }\n    })";
}

/// Emits the nodes of a phase program as PhaseProgram builder calls.
void emitProgramNodes(std::ostringstream &OS,
                      const std::vector<PhaseNode> &Nodes,
                      std::vector<LoopBinding> &Enclosing,
                      const CoordRanges &Coords, std::string &Err) {
  for (const PhaseNode &N : Nodes) {
    if (N.K == PhaseNode::Straight) {
      OS << "  _prog.straight(";
      emitPhase(OS, N.Body, Enclosing, Coords, Err);
      OS << ");\n";
      continue;
    }
    OS << "  // loop " << N.Var << " in [" << N.Lo.simplified().str() << ".."
       << N.Hi.simplified().str() << ")\n";
    OS << "  _prog.loopBegin(" << N.Slot << ",\n      "
       << boundLambda(N.Lo, Enclosing) << ",\n      "
       << boundLambda(N.Hi, Enclosing) << ");\n";
    Enclosing.push_back(LoopBinding{N.Var, N.Slot});
    emitProgramNodes(OS, N.Children, Enclosing, Coords, Err);
    Enclosing.pop_back();
    OS << "  _prog.loopEnd();\n";
  }
}

GenResult SimBackend::emit(const Module &M, const BackendOptions &Opts) const {
  const std::string &FnSuffix = Opts.FnSuffix;
  GenResult R;
  std::ostringstream OS;
  OS << "// Generated by descendc --emit=sim. Do not edit.\n";
  OS << "#pragma once\n\n#include \"sim/Sim.h\"\n";
  // Host-bearing programs additionally drive the host runtime API.
  if (hostgen::hasHostFns(M))
    OS << "#include \"runtime/HostRuntime.h\"\n";
  OS << "\n#include <cstdint>\n\n";
  OS << "namespace descend::gen {\n";

  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isGpuFn())
      continue;
    Lowerer L(M, LowerTarget::Sim, Opts.Passes);
    if (!L.runKernel(Fn)) {
      R.Error = "while lowering `" + Fn.Name + "`: " + L.Error;
      return R;
    }
    if (L.Program.maxLoopDepth() > sim::BlockCtx::MaxLoopSlots) {
      R.Error = "while lowering `" + Fn.Name + "`: phase loops nest deeper "
                "than the simulator's " +
                std::to_string(sim::BlockCtx::MaxLoopSlots) + " slots";
      return R;
    }

    auto GridOf = [](const Dim &D) {
      auto Get = [&](Axis A) -> unsigned {
        if (!D.hasAxis(A))
          return 1;
        auto V = D.extent(A).evaluate({});
        return V ? static_cast<unsigned>(*V) : 1;
      };
      return strfmt("descend::sim::Dim3{%u, %u, %u}", Get(Axis::X),
                    Get(Axis::Y), Get(Axis::Z));
    };

    // Coordinate ranges for the phase bodies' local types; empty when an
    // extent does not evaluate.
    CoordRanges Coords;
    for (auto [D, Prefix] : {std::pair{&Fn.Exec.GridDim, "_b"},
                             std::pair{&Fn.Exec.BlockDim, "_t"}})
      for (auto [A, Suffix] :
           {std::pair{Axis::X, "x"}, std::pair{Axis::Y, "y"},
            std::pair{Axis::Z, "z"}}) {
        std::optional<long long> E = 1;
        if (D->hasAxis(A))
          E = D->extent(A).evaluate({});
        if (E && *E >= 1)
          Coords[std::string(Prefix) + Suffix] = {0, *E - 1};
      }
    if (Coords.size() != 6)
      Coords.clear();

    unsigned Threads = 1;
    if (auto T = Fn.Exec.BlockDim.total().evaluate({}))
      Threads = *T;
    size_t SharedTotal = (L.SharedBytes + 7) & ~size_t(7);
    size_t ArenaBytes = SharedTotal + L.LocalBytesPerThread * Threads;

    OS << "\n/// " << Fn.signature() << "\n";
    OS << "inline void " << Fn.Name << FnSuffix
       << "(descend::sim::GpuDevice &_dev";
    for (const FnParam &P : Fn.Params) {
      std::vector<Nat> Dims;
      ScalarKind Elem = ScalarKind::F64;
      const auto *Ref = cast<RefType>(P.Ty.get());
      arrayNest(Ref->Pointee, Dims, Elem);
      OS << ",\n    descend::sim::GpuDevice::Buffer<" << cppScalarType(Elem)
         << "> " << P.Name;
    }
    OS << ") {\n";
    OS << "  using descend::sim::BlockCtx;\n";
    OS << "  using descend::sim::ThreadCtx;\n";
    OS << "  constexpr size_t _locals_base = " << SharedTotal << ";\n";
    OS << "  (void)_locals_base;\n";

    std::string PrintErr;
    if (L.Program.maxLoopDepth() == 0) {
      // Straight-line program: variadic launchPhases, direct phase calls.
      OS << "  descend::sim::launchPhases(_dev, " << GridOf(Fn.Exec.GridDim)
         << ", " << GridOf(Fn.Exec.BlockDim) << ", " << ArenaBytes;
      std::vector<LoopBinding> None;
      for (const PhaseNode &N : L.Program.Nodes) {
        OS << ",\n    ";
        emitPhase(OS, N.Body, None, Coords, PrintErr);
      }
      OS << ");\n}\n";
      if (!PrintErr.empty()) {
        R.Error = "while printing `" + Fn.Name + "`: " + PrintErr;
        return R;
      }
      continue;
    }

    // Loop-carrying program: a constant number of phase lambdas plus
    // host-side loop structure, executed by launchProgram.
    OS << "  descend::sim::PhaseProgram _prog;\n";
    std::vector<LoopBinding> Enclosing;
    emitProgramNodes(OS, L.Program.Nodes, Enclosing, Coords, PrintErr);
    if (!PrintErr.empty()) {
      R.Error = "while printing `" + Fn.Name + "`: " + PrintErr;
      return R;
    }
    OS << "  descend::sim::launchProgram(_dev, " << GridOf(Fn.Exec.GridDim)
       << ", " << GridOf(Fn.Exec.BlockDim) << ", " << ArenaBytes
       << ", _prog);\n}\n";
  }

  // Host functions (Sections 3.4/3.5): emitted below the kernels they
  // launch, so the generated driver resolves the kernel calls directly in
  // this header. `main` is emitted as `run` — the entry point the tests
  // and examples drive. Each driver comes in three overloads: the
  // synchronous one over a GpuDevice (the default, bit-identical
  // semantics), the asynchronous one over a sim::Stream, whose transfers
  // and launches enqueue in order and join only where host memory is read
  // (and before returning), and the graph-mode one over a sim::Stream +
  // sim::GraphExec, which captures the driver's device-op prefix on the
  // first call and replays it (rebound to the call's buffers) as one
  // stream operation afterwards.
  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isCpuFn() || !Fn.Body)
      continue;
    hostir::LowerResult L = hostir::lower(M, Fn);
    if (!L.Ok) {
      R.Error = "while emitting host `" + Fn.Name + "`: " + L.Error;
      return R;
    }
    for (hostgen::HostTarget HT :
         {hostgen::HostTarget::Sim, hostgen::HostTarget::SimStream,
          hostgen::HostTarget::SimGraph}) {
      hostgen::HostGenResult H = hostgen::printHostFn(L.Fn, HT, FnSuffix);
      if (!H.Ok) {
        R.Error = "while emitting host `" + Fn.Name + "`: " + H.Error;
        return R;
      }
      OS << "\n" << H.Code;
    }
  }
  OS << "\n} // namespace descend::gen\n";
  R.Ok = true;
  R.Code = OS.str();
  return R;
}

} // namespace

namespace descend::codegen {
std::unique_ptr<Backend> createSimBackend() {
  return std::make_unique<SimBackend>();
}
} // namespace descend::codegen

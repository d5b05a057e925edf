//===- vm/Bytecode.cpp - KIR -> bytecode compilation -------------------------===//
//
// The vm backend's compiler half: lowers every GPU kernel with the shared
// Lowerer (exactly like the sim backend, so geometry, arena layout and
// phase structure agree bit for bit with the generated headers), then
// translates each phase body / loop bound from typed kernel IR into
// register bytecode, and each cpu.thread function into the host-statement
// IR. Everything a launch needs is resolved here; the interpreter never
// sees a Nat or an AST node.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "ast/Item.h"
#include "codegen/Lowerer.h"
#include "kir/KIR.h"

#include <cstring>
#include <limits>
#include <map>
#include <sstream>

using namespace descend;
using namespace descend::vm;

namespace {

/// Compile-time class of a register: which union member it holds and at
/// what precision arithmetic on it happens.
enum class VK { I64, F32, F64 };

VK vkOf(ScalarKind K) {
  switch (K) {
  case ScalarKind::F32:
    return VK::F32;
  case ScalarKind::F64:
    return VK::F64;
  default:
    return VK::I64;
  }
}

/// One enclosing PhaseLoop binding visible to the code being compiled.
struct LoopBinding {
  std::string Var;
  unsigned Slot;
};

/// Builds one Code object (a phase body or a loop bound). Registers are
/// SSA-ish: every value lands in a fresh register except named locals,
/// which keep one mutable register for their whole scope (Assign and the
/// For increment write through it).
class CodeBuilder {
public:
  CodeBuilder(const std::vector<LoopBinding> &Enclosing,
              const std::map<std::string, unsigned> &ParamIdx,
              bool AllowCoords)
      : Enclosing(Enclosing), ParamIdx(ParamIdx), AllowCoords(AllowCoords) {
    Scopes.emplace_back();
  }

  bool run(const std::vector<kir::Stmt> &Stmts, Code &Out) {
    if (!compileStmts(Stmts))
      return false;
    emit(Op::Ret, 0, 0, 0, 0);
    return finish(Out);
  }

  /// One side of a thread split: the guard's LetIndex prefix (the first
  /// \p Prefix statements of \p Body), then \p Branch.
  bool runSide(const std::vector<kir::Stmt> &Body, size_t Prefix,
               const std::vector<kir::Stmt> &Branch, Code &Out) {
    for (size_t I = 0; I != Prefix; ++I)
      if (!compileStmt(Body[I]))
        return false;
    return run(Branch, Out);
  }

  bool runBound(const Nat &N, Code &Out) {
    int R = compileNat(N);
    if (R < 0)
      return false;
    emit(Op::RetVal, static_cast<uint16_t>(R), 0, 0, 0);
    return finish(Out);
  }

  const std::string &error() const { return Err; }

private:
  struct LocalVar {
    int Reg = -1;
    VK Kind = VK::I64;
  };

  Code C;
  std::string Err;
  unsigned NextReg = 0;
  std::vector<std::map<std::string, LocalVar>> Scopes;
  const std::vector<LoopBinding> &Enclosing;
  const std::map<std::string, unsigned> &ParamIdx;
  bool AllowCoords;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  int newReg() {
    if (NextReg > std::numeric_limits<uint16_t>::max()) {
      fail("phase body needs more than 65536 registers");
      return -1;
    }
    return static_cast<int>(NextReg++);
  }

  void emit(Op K, uint16_t A, uint16_t B, uint16_t CC, int32_t Imm) {
    C.Instrs.push_back(Instr{K, A, B, CC, Imm});
  }

  bool finish(Code &Out) {
    if (!Err.empty())
      return false;
    C.NumRegs = NextReg;
    Out = std::move(C);
    return true;
  }

  int addConst(Value V) {
    C.Consts.push_back(V);
    return static_cast<int>(C.Consts.size() - 1);
  }

  int constI(long long V) {
    int R = newReg();
    if (R < 0)
      return -1;
    Value CV;
    CV.I = V;
    emit(Op::Const, static_cast<uint16_t>(R), 0, 0, addConst(CV));
    return R;
  }

  int constF(double V) {
    int R = newReg();
    if (R < 0)
      return -1;
    Value CV;
    CV.F = V;
    emit(Op::Const, static_cast<uint16_t>(R), 0, 0, addConst(CV));
    return R;
  }

  LocalVar *lookupLocal(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->find(Name); Found != It->end())
        return &Found->second;
    return nullptr;
  }

  /// Coordinate index of a lowering variable, or -1.
  static int coordIndex(const std::string &Name) {
    static const char *Coords[7] = {"_bx", "_by", "_bz", "_tx",
                                    "_ty", "_tz", "_lin"};
    for (int I = 0; I != 7; ++I)
      if (Name == Coords[I])
        return I;
    return -1;
  }

  /// Compiles a Nat to an i64 register. Variables resolve, innermost
  /// first: local registers (LetIndex / For), enclosing PhaseLoop slots,
  /// then coordinates — the same visibility the printed C++ has.
  int compileNat(const Nat &N) {
    if (N.isNull()) {
      fail("null nat expression");
      return -1;
    }
    switch (N.kind()) {
    case NatKind::Lit:
      return constI(N.litValue());
    case NatKind::Var: {
      const std::string &Name = N.varName();
      if (const LocalVar *L = lookupLocal(Name)) {
        if (L->Kind != VK::I64) {
          fail("nat variable `" + Name + "` is bound to a non-integer local");
          return -1;
        }
        return L->Reg;
      }
      for (auto It = Enclosing.rbegin(); It != Enclosing.rend(); ++It)
        if (It->Var == Name) {
          int R = newReg();
          if (R < 0)
            return -1;
          emit(Op::Slot, static_cast<uint16_t>(R), 0, 0,
               static_cast<int32_t>(It->Slot));
          return R;
        }
      if (int CI = coordIndex(Name); CI >= 0) {
        if (!AllowCoords) {
          fail("coordinate `" + Name + "` used in a host-side loop bound");
          return -1;
        }
        int R = newReg();
        if (R < 0)
          return -1;
        emit(Op::Coord, static_cast<uint16_t>(R), 0, 0, CI);
        return R;
      }
      fail("unbound nat variable `" + Name + "` (pass -D to instantiate)");
      return -1;
    }
    case NatKind::Add:
    case NatKind::Sub:
    case NatKind::Mul:
    case NatKind::Div:
    case NatKind::Mod:
    case NatKind::Pow: {
      int L = compileNat(N.lhs());
      int R = compileNat(N.rhs());
      if (L < 0 || R < 0)
        return -1;
      Op O;
      switch (N.kind()) {
      case NatKind::Add:
        O = Op::AddI;
        break;
      case NatKind::Sub:
        O = Op::SubI;
        break;
      case NatKind::Mul:
        O = Op::MulI;
        break;
      case NatKind::Div:
        O = Op::DivI;
        break;
      case NatKind::Mod:
        O = Op::ModI;
        break;
      default:
        O = Op::PowI;
        break;
      }
      int D = newReg();
      if (D < 0)
        return -1;
      emit(O, static_cast<uint16_t>(D), static_cast<uint16_t>(L),
           static_cast<uint16_t>(R), 0);
      return D;
    }
    }
    fail("unhandled nat kind");
    return -1;
  }

  /// Inserts the conversion instructions turning \p R (kind \p From) into
  /// kind \p To with C++ cast semantics: int -> float narrows through
  /// `float` when the target is f32, float -> int truncates.
  int convert(int R, VK From, VK To) {
    if (R < 0 || From == To)
      return R;
    // F32 registers hold their value as an exact double, so widening to
    // F64 is a re-classification, not an instruction.
    if (From == VK::F32 && To == VK::F64)
      return R;
    int D = newReg();
    if (D < 0)
      return -1;
    if (From == VK::I64) {
      emit(Op::I2F, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0, 0);
      if (To == VK::F32) {
        int D2 = newReg();
        if (D2 < 0)
          return -1;
        emit(Op::F2F32, static_cast<uint16_t>(D2), static_cast<uint16_t>(D),
             0, 0);
        return D2;
      }
      return D;
    }
    if (To == VK::I64) {
      emit(Op::F2I, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0, 0);
      return D;
    }
    // F64 -> F32.
    emit(Op::F2F32, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0, 0);
    return D;
  }

  static VK promote(VK A, VK B) {
    if (A == VK::F64 || B == VK::F64)
      return VK::F64;
    if (A == VK::F32 || B == VK::F32)
      return VK::F32;
    return VK::I64;
  }

  struct RV {
    int Reg = -1;
    VK Kind = VK::I64;
    bool ok() const { return Reg >= 0; }
  };

  int memByteBase(const kir::MemRef &Ref) {
    if (Ref.ByteBase >
        static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
      fail("arena offset of `" + Ref.Name + "` exceeds the bytecode range");
      return -1;
    }
    return static_cast<int>(Ref.ByteBase);
  }

  RV compileLoad(const kir::MemRef &Ref, const Nat &Index) {
    int Idx = compileNat(Index);
    int D = newReg();
    if (Idx < 0 || D < 0)
      return {};
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end()) {
        fail("unknown global buffer `" + Ref.Name + "`");
        return {};
      }
      emit(Op::LoadGlobal, static_cast<uint16_t>(D),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      break;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return {};
      emit(Op::LoadShared, static_cast<uint16_t>(D),
           static_cast<uint16_t>(Idx), EK, Base);
      break;
    }
    case kir::MemSpace::Arena: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return {};
      emit(Op::LoadArena, static_cast<uint16_t>(D),
           static_cast<uint16_t>(Idx), EK, Base);
      break;
    }
    }
    return {D, vkOf(Ref.Elem)};
  }

  bool compileStore(const kir::MemRef &Ref, const Nat &Index,
                    const kir::Expr &Value) {
    int Idx = compileNat(Index);
    RV V = compileExpr(Value);
    if (Idx < 0 || !V.ok())
      return false;
    int R = convert(V.Reg, V.Kind, vkOf(Ref.Elem));
    if (R < 0)
      return false;
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end())
        return fail("unknown global buffer `" + Ref.Name + "`");
      emit(Op::StoreGlobal, static_cast<uint16_t>(R),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      return true;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return false;
      emit(Op::StoreShared, static_cast<uint16_t>(R),
           static_cast<uint16_t>(Idx), EK, Base);
      return true;
    }
    case kir::MemSpace::Arena: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return false;
      emit(Op::StoreArena, static_cast<uint16_t>(R),
           static_cast<uint16_t>(Idx), EK, Base);
      return true;
    }
    }
    return fail("unhandled memory space");
  }

  /// Wide (two-element) load: r[D], r[D+1] = buf[idx], buf[idx+1] as one
  /// issued transaction. Returns the first register (second is D+1) or -1.
  int compileLoad2(const kir::MemRef &Ref, const Nat &Index) {
    int Idx = compileNat(Index);
    int D0 = newReg();
    int D1 = newReg(); // adjacent by construction
    if (Idx < 0 || D0 < 0 || D1 < 0)
      return -1;
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end()) {
        fail("unknown global buffer `" + Ref.Name + "`");
        return -1;
      }
      emit(Op::LoadGlobal2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      return D0;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return -1;
      emit(Op::LoadShared2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, Base);
      return D0;
    }
    case kir::MemSpace::Arena:
      break;
    }
    fail("wide access to the per-thread arena");
    return -1;
  }

  bool compileStore2(const kir::MemRef &Ref, const Nat &Index,
                     const kir::Expr &V0, const kir::Expr &V1) {
    int Idx = compileNat(Index);
    RV A = compileExpr(V0);
    RV B = compileExpr(V1);
    if (Idx < 0 || !A.ok() || !B.ok())
      return false;
    int R0 = convert(A.Reg, A.Kind, vkOf(Ref.Elem));
    int R1 = convert(B.Reg, B.Kind, vkOf(Ref.Elem));
    // The wide-store operands live in adjacent registers (A, A+1).
    int D0 = newReg();
    int D1 = newReg();
    if (R0 < 0 || R1 < 0 || D0 < 0 || D1 < 0)
      return false;
    emit(Op::Move, static_cast<uint16_t>(D0), static_cast<uint16_t>(R0), 0, 0);
    emit(Op::Move, static_cast<uint16_t>(D1), static_cast<uint16_t>(R1), 0, 0);
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end())
        return fail("unknown global buffer `" + Ref.Name + "`");
      emit(Op::StoreGlobal2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      return true;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return false;
      emit(Op::StoreShared2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, Base);
      return true;
    }
    case kir::MemSpace::Arena:
      break;
    }
    return fail("wide access to the per-thread arena");
  }

  RV compileExpr(const kir::Expr &E) {
    switch (E.K) {
    case kir::ExprKind::NatVal:
      return {compileNat(E.N), VK::I64};
    case kir::ExprKind::IntLit:
      return {constI(E.IntVal), VK::I64};
    case kir::ExprKind::FloatLit: {
      VK K = vkOf(E.Scalar);
      double V = K == VK::F32 ? static_cast<double>(
                                    static_cast<float>(E.FloatVal))
                              : E.FloatVal;
      return {constF(V), K};
    }
    case kir::ExprKind::BoolLit:
      return {constI(E.BoolVal ? 1 : 0), VK::I64};
    case kir::ExprKind::UnitLit:
      return {constI(0), VK::I64};
    case kir::ExprKind::VarRef: {
      const LocalVar *L = lookupLocal(E.Name);
      if (!L) {
        fail("reference to undefined local `" + E.Name + "`");
        return {};
      }
      return {L->Reg, L->Kind};
    }
    case kir::ExprKind::Load:
      return compileLoad(E.Ref, E.Index);
    case kir::ExprKind::Binary:
      return compileBinary(E);
    case kir::ExprKind::Unary: {
      RV S = compileExpr(*E.Sub);
      if (!S.ok())
        return {};
      int D = newReg();
      if (D < 0)
        return {};
      if (E.UO == kir::UnOp::Not) {
        int R = convert(S.Reg, S.Kind, VK::I64);
        emit(Op::NotI, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0,
             0);
        return {D, VK::I64};
      }
      Op O = S.Kind == VK::I64
                 ? Op::NegI
                 : (S.Kind == VK::F32 ? Op::NegF32 : Op::NegF);
      emit(O, static_cast<uint16_t>(D), static_cast<uint16_t>(S.Reg), 0, 0);
      return {D, S.Kind};
    }
    }
    fail("unhandled expression kind");
    return {};
  }

  RV compileBinary(const kir::Expr &E) {
    RV L = compileExpr(*E.Lhs);
    RV R = compileExpr(*E.Rhs);
    if (!L.ok() || !R.ok())
      return {};

    using kir::BinOp;
    if (E.BO == BinOp::And || E.BO == BinOp::Or) {
      int LR = convert(L.Reg, L.Kind, VK::I64);
      int RR = convert(R.Reg, R.Kind, VK::I64);
      int D = newReg();
      if (LR < 0 || RR < 0 || D < 0)
        return {};
      emit(E.BO == BinOp::And ? Op::AndI : Op::OrI, static_cast<uint16_t>(D),
           static_cast<uint16_t>(LR), static_cast<uint16_t>(RR), 0);
      return {D, VK::I64};
    }

    bool IsCmp = E.BO == BinOp::Eq || E.BO == BinOp::Ne ||
                 E.BO == BinOp::Lt || E.BO == BinOp::Le ||
                 E.BO == BinOp::Gt || E.BO == BinOp::Ge;
    VK K = promote(L.Kind, R.Kind);
    // Comparisons of mixed int/float promote the int side; f32 values are
    // exact doubles, so the double comparison matches the float one.
    VK OpK = IsCmp && K == VK::F32 ? VK::F64 : K;
    int LR = convert(L.Reg, L.Kind, IsCmp ? OpK : K);
    int RR = convert(R.Reg, R.Kind, IsCmp ? OpK : K);
    int D = newReg();
    if (LR < 0 || RR < 0 || D < 0)
      return {};

    Op O;
    bool F = (IsCmp ? OpK : K) != VK::I64;
    switch (E.BO) {
    case BinOp::Add:
      O = K == VK::I64 ? Op::AddI : (K == VK::F32 ? Op::AddF32 : Op::AddF);
      break;
    case BinOp::Sub:
      O = K == VK::I64 ? Op::SubI : (K == VK::F32 ? Op::SubF32 : Op::SubF);
      break;
    case BinOp::Mul:
      O = K == VK::I64 ? Op::MulI : (K == VK::F32 ? Op::MulF32 : Op::MulF);
      break;
    case BinOp::Div:
      O = K == VK::I64 ? Op::DivI : (K == VK::F32 ? Op::DivF32 : Op::DivF);
      break;
    case BinOp::Mod:
      if (K != VK::I64) {
        fail("floating-point modulo is not supported in kernel code");
        return {};
      }
      O = Op::ModI;
      break;
    case BinOp::Eq:
      O = F ? Op::EqF : Op::EqI;
      break;
    case BinOp::Ne:
      O = F ? Op::NeF : Op::NeI;
      break;
    case BinOp::Lt:
      O = F ? Op::LtF : Op::LtI;
      break;
    case BinOp::Le:
      O = F ? Op::LeF : Op::LeI;
      break;
    case BinOp::Gt:
      O = F ? Op::GtF : Op::GtI;
      break;
    case BinOp::Ge:
      O = F ? Op::GeF : Op::GeI;
      break;
    default:
      fail("unhandled binary operator");
      return {};
    }
    emit(O, static_cast<uint16_t>(D), static_cast<uint16_t>(LR),
         static_cast<uint16_t>(RR), 0);
    return {D, IsCmp ? VK::I64 : K};
  }

  /// Binds \p Name to a fresh mutable register holding \p V.
  bool bindLocal(const std::string &Name, RV V, VK DeclKind) {
    int R = convert(V.Reg, V.Kind, DeclKind);
    int Slot = newReg();
    if (R < 0 || Slot < 0)
      return false;
    emit(Op::Move, static_cast<uint16_t>(Slot), static_cast<uint16_t>(R), 0,
         0);
    Scopes.back()[Name] = LocalVar{Slot, DeclKind};
    return true;
  }

  bool compileStmts(const std::vector<kir::Stmt> &Stmts) {
    for (const kir::Stmt &S : Stmts)
      if (!compileStmt(S))
        return false;
    return true;
  }

  bool compileStmt(const kir::Stmt &S) {
    switch (S.K) {
    case kir::StmtKind::Let: {
      if (S.Width == 2) {
        if (!S.Value || S.Value->K != kir::ExprKind::Load || S.Name2.empty())
          return fail("wide let `" + S.Name + "` that is not a two-target "
                      "load");
        int D0 = compileLoad2(S.Value->Ref, S.Value->Index);
        if (D0 < 0)
          return false;
        VK K = vkOf(S.Value->Ref.Elem);
        return bindLocal(S.Name, RV{D0, K}, vkOf(S.Elem)) &&
               bindLocal(S.Name2, RV{D0 + 1, K}, vkOf(S.Elem));
      }
      RV V = compileExpr(*S.Value);
      if (!V.ok())
        return false;
      return bindLocal(S.Name, V, vkOf(S.Elem));
    }
    case kir::StmtKind::LetIndex: {
      int R = compileNat(S.Index);
      if (R < 0)
        return false;
      return bindLocal(S.Name, RV{R, VK::I64}, VK::I64);
    }
    case kir::StmtKind::Assign: {
      LocalVar *L = lookupLocal(S.Name);
      if (!L)
        return fail("assignment to undefined local `" + S.Name + "`");
      RV V = compileExpr(*S.Value);
      if (!V.ok())
        return false;
      int R = convert(V.Reg, V.Kind, L->Kind);
      if (R < 0)
        return false;
      emit(Op::Move, static_cast<uint16_t>(L->Reg), static_cast<uint16_t>(R),
           0, 0);
      return true;
    }
    case kir::StmtKind::Store:
      if (S.Width == 2) {
        if (!S.Value || !S.Value2)
          return fail("wide store without both values");
        return compileStore2(S.Ref, S.Index, *S.Value, *S.Value2);
      }
      return compileStore(S.Ref, S.Index, *S.Value);
    case kir::StmtKind::If: {
      int L = compileNat(S.CondL);
      int R = compileNat(S.CondR);
      int Cond = newReg();
      if (L < 0 || R < 0 || Cond < 0)
        return false;
      emit(Op::LtI, static_cast<uint16_t>(Cond), static_cast<uint16_t>(L),
           static_cast<uint16_t>(R), 0);
      size_t JzAt = C.Instrs.size();
      emit(Op::Jz, static_cast<uint16_t>(Cond), 0, 0, 0);
      Scopes.emplace_back();
      bool Ok = compileStmts(S.Then);
      Scopes.pop_back();
      if (!Ok)
        return false;
      if (!S.Else.empty()) {
        size_t JmpAt = C.Instrs.size();
        emit(Op::Jmp, 0, 0, 0, 0);
        C.Instrs[JzAt].Imm = static_cast<int32_t>(C.Instrs.size());
        Scopes.emplace_back();
        Ok = compileStmts(S.Else);
        Scopes.pop_back();
        if (!Ok)
          return false;
        C.Instrs[JmpAt].Imm = static_cast<int32_t>(C.Instrs.size());
      } else {
        C.Instrs[JzAt].Imm = static_cast<int32_t>(C.Instrs.size());
      }
      return true;
    }
    case kir::StmtKind::For: {
      Scopes.emplace_back();
      int Lo = compileNat(S.Lo);
      if (Lo < 0)
        return false;
      if (!bindLocal(S.Name, RV{Lo, VK::I64}, VK::I64))
        return false;
      int Var = lookupLocal(S.Name)->Reg;
      int Hi = compileNat(S.Hi); // loop-invariant: hoisted
      int One = constI(1);
      int Cond = newReg();
      if (Hi < 0 || One < 0 || Cond < 0)
        return false;
      size_t Top = C.Instrs.size();
      emit(Op::LtI, static_cast<uint16_t>(Cond), static_cast<uint16_t>(Var),
           static_cast<uint16_t>(Hi), 0);
      size_t JzAt = C.Instrs.size();
      emit(Op::Jz, static_cast<uint16_t>(Cond), 0, 0, 0);
      bool Ok = compileStmts(S.Body);
      if (!Ok)
        return false;
      emit(Op::AddI, static_cast<uint16_t>(Var), static_cast<uint16_t>(Var),
           static_cast<uint16_t>(One), 0);
      emit(Op::Jmp, 0, 0, 0, static_cast<int32_t>(Top));
      C.Instrs[JzAt].Imm = static_cast<int32_t>(C.Instrs.size());
      Scopes.pop_back();
      return true;
    }
    case kir::StmtKind::Barrier:
      // Sim-target phase bodies never contain barriers: the phase boundary
      // is the barrier. Reaching one means the IR is malformed.
      return fail("barrier statement inside a phase body");
    }
    return fail("unhandled statement kind");
  }
};

//===----------------------------------------------------------------------===//
// Kernel compilation
//===----------------------------------------------------------------------===//

bool compileNodes(const std::vector<codegen::PhaseNode> &Nodes,
                  std::vector<LoopBinding> &Enclosing,
                  const std::map<std::string, unsigned> &ParamIdx,
                  std::vector<VmNode> &Out, unsigned &StraightPhases,
                  std::string &Err) {
  for (const codegen::PhaseNode &N : Nodes) {
    VmNode V;
    if (N.K == codegen::PhaseNode::Straight) {
      V.K = VmNode::Straight;
      kir::ThreadSplit Split;
      if (!kir::threadSplit(N.Body, Split)) {
        CodeBuilder B(Enclosing, ParamIdx, /*AllowCoords=*/true);
        if (!B.run(N.Body, V.Body)) {
          Err = B.error();
          return false;
        }
      } else {
        // Each side and the bound is its own code object; the bound reads
        // block coordinates and loop variables only (threadSplit).
        V.SplitDim = static_cast<int>(Split.Dim);
        CodeBuilder BT(Enclosing, ParamIdx, /*AllowCoords=*/true);
        CodeBuilder BE(Enclosing, ParamIdx, /*AllowCoords=*/true);
        CodeBuilder BA(Enclosing, ParamIdx, /*AllowCoords=*/true);
        if (!BT.runSide(N.Body, Split.Prefix, Split.Guard->Then, V.Body) ||
            (!Split.Guard->Else.empty() &&
             !BE.runSide(N.Body, Split.Prefix, Split.Guard->Else, V.Else)) ||
            !BA.runBound(Split.Guard->CondR, V.At)) {
          Err = BT.error() + BE.error() + BA.error(); // only one is set
          return false;
        }
      }
      ++StraightPhases;
      Out.push_back(std::move(V));
      continue;
    }
    V.K = VmNode::Loop;
    V.Slot = N.Slot;
    {
      CodeBuilder BL(Enclosing, ParamIdx, /*AllowCoords=*/false);
      if (!BL.runBound(N.Lo, V.Lo)) {
        Err = BL.error();
        return false;
      }
      CodeBuilder BH(Enclosing, ParamIdx, /*AllowCoords=*/false);
      if (!BH.runBound(N.Hi, V.Hi)) {
        Err = BH.error();
        return false;
      }
    }
    Enclosing.push_back(LoopBinding{N.Var, N.Slot});
    bool Ok = compileNodes(N.Children, Enclosing, ParamIdx, V.Children,
                           StraightPhases, Err);
    Enclosing.pop_back();
    if (!Ok)
      return false;
    Out.push_back(std::move(V));
  }
  return true;
}

bool compileKernel(const Module &M, const FnDef &Fn,
                   const kir::PassConfig &Passes, VmKernel &K,
                   std::string &Err) {
  codegen::Lowerer L(M, codegen::LowerTarget::Sim, Passes);
  if (!L.runKernel(Fn)) {
    Err = "while lowering `" + Fn.Name + "`: " + L.Error;
    return false;
  }
  if (L.Program.maxLoopDepth() > sim::BlockCtx::MaxLoopSlots) {
    Err = "while lowering `" + Fn.Name + "`: phase loops nest deeper than "
          "the simulator's " +
          std::to_string(sim::BlockCtx::MaxLoopSlots) + " slots";
    return false;
  }

  K.Name = Fn.Name;
  auto DimOf = [&](const Dim &D, sim::Dim3 &Out) -> bool {
    auto Get = [&](Axis A, unsigned &V) -> bool {
      if (!D.hasAxis(A)) {
        V = 1;
        return true;
      }
      auto E = D.extent(A).simplified().evaluate({});
      if (!E) {
        Err = "launch dimension `" + D.extent(A).str() + "` of `" + Fn.Name +
              "` is not instantiated (pass -D)";
        return false;
      }
      V = static_cast<unsigned>(*E);
      return true;
    };
    return Get(Axis::X, Out.X) && Get(Axis::Y, Out.Y) && Get(Axis::Z, Out.Z);
  };
  if (!DimOf(Fn.Exec.GridDim, K.Grid) || !DimOf(Fn.Exec.BlockDim, K.Block))
    return false;

  unsigned Threads = K.Block.total();
  K.SharedBytes = L.SharedBytes;
  K.LocalsBase = (L.SharedBytes + 7) & ~size_t(7);
  K.ArenaBytes = K.LocalsBase + L.LocalBytesPerThread * Threads;

  std::map<std::string, unsigned> ParamIdx;
  for (const FnParam &P : Fn.Params) {
    const auto *Ref = dyn_cast<RefType>(P.Ty.get());
    std::vector<Nat> Dims;
    ScalarKind Elem = ScalarKind::F64;
    if (!Ref || !codegen::arrayNest(Ref->Pointee, Dims, Elem)) {
      Err = "unsupported kernel parameter type `" + P.Ty->str() + "` of `" +
            Fn.Name + "`";
      return false;
    }
    Nat Count = Nat::lit(1);
    for (const Nat &D : Dims)
      Count = Count * D;
    auto CV = Count.simplified().evaluate({});
    if (!CV) {
      Err = "parameter `" + P.Name + "` of `" + Fn.Name + "` has size `" +
            Count.simplified().str() + "` that is not instantiated (pass -D)";
      return false;
    }
    VmKernel::Param KP;
    KP.Name = P.Name;
    KP.Elem = Elem;
    KP.Count = static_cast<size_t>(*CV);
    ParamIdx[P.Name] = static_cast<unsigned>(K.Params.size());
    K.Params.push_back(std::move(KP));
  }

  std::vector<LoopBinding> Enclosing;
  std::string NodeErr;
  if (!compileNodes(L.Program.Nodes, Enclosing, ParamIdx, K.Nodes,
                    K.StraightPhases, NodeErr)) {
    Err = "while compiling `" + Fn.Name + "`: " + NodeErr;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Host-function compilation
//===----------------------------------------------------------------------===//

/// The same promotion lattice CodeBuilder applies to kernel expressions,
/// shared with the host compiler.
VK promoteVK(VK A, VK B) {
  if (A == VK::F64 || B == VK::F64)
    return VK::F64;
  if (A == VK::F32 || B == VK::F32)
    return VK::F32;
  return VK::I64;
}

/// Compiles the hostgen-accepted host fragment (see hostgen/HostGen.cpp —
/// the generated C++ this must agree with) into HostStmt trees. Same
/// acceptance rules, same diagnostics style; sizes must be instantiated
/// because there is no later compiler to defer to.
class HostCompiler {
public:
  HostCompiler(const Module &M, const FnDef &Fn,
               const std::vector<VmKernel> &Kernels,
               const std::map<std::string, unsigned> &HostIdx)
      : M(M), Fn(Fn), Kernels(Kernels), HostIdx(HostIdx) {}

  bool run(HostFnIR &Out, std::string &Err);

private:
  struct HVar {
    HostFnIR::Param::Kind K = HostFnIR::Param::Scalar;
    bool LoopVar = false;
    ScalarKind Elem = ScalarKind::F64;
    size_t Count = 0;
    unsigned Slot = 0;
  };

  const Module &M;
  const FnDef &Fn;
  const std::vector<VmKernel> &Kernels;
  const std::map<std::string, unsigned> &HostIdx;

  HostFnIR R;
  std::string Error;
  std::vector<std::map<std::string, HVar>> Scopes;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  unsigned newSlot() { return R.NumSlots++; }

  void bind(const std::string &Name, HVar V) { Scopes.back()[Name] = V; }

  const HVar *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->find(Name); Found != It->end())
        return &Found->second;
    return nullptr;
  }

  std::optional<size_t> natSize(const Nat &N, const char *What) {
    auto V = N.simplified().evaluate({});
    if (!V || *V < 0) {
      fail(std::string(What) + " `" + N.simplified().str() +
           "` is not instantiated (pass -D)");
      return std::nullopt;
    }
    return static_cast<size_t>(*V);
  }

  static std::string argVar(const Expr &E) {
    const Expr *Inner = &E;
    if (const auto *B = dyn_cast<BorrowExpr>(Inner))
      Inner = B->Place.get();
    if (const auto *P = dyn_cast<PlaceExpr>(Inner))
      return P->rootVar();
    return "";
  }

  std::unique_ptr<HostExpr> compileExpr(const Expr &E);
  std::unique_ptr<HostExpr> compilePlaceRead(const PlaceExpr &P);
  bool compilePlaceTarget(const PlaceExpr &P, unsigned &Slot,
                          std::unique_ptr<HostExpr> &Idx, ScalarKind &Elem);

  bool compileParams();
  bool compileBlock(const BlockExpr &Blk, std::vector<HostStmt> &Out);
  bool compileStmt(const Expr &E, std::vector<HostStmt> &Out);
  bool compileLet(const LetExpr &L, std::vector<HostStmt> &Out);
  bool compileAllocCall(const CallExpr &C, const std::string &Let,
                        std::vector<HostStmt> &Out);
  bool compileCall(const CallExpr &C, std::vector<HostStmt> &Out);
  bool compileLaunch(const CallExpr &C, std::vector<HostStmt> &Out);
  bool compileForNat(const ForNatExpr &F, std::vector<HostStmt> &Out);
};

bool HostCompiler::compileParams() {
  if (Fn.RetTy && !DataType::equal(Fn.RetTy, makeUnit()))
    return fail("host functions must return (), `" + Fn.Name + "` returns `" +
                Fn.RetTy->str() + "`");
  for (const FnParam &P : Fn.Params) {
    HostFnIR::Param FP;
    FP.Name = P.Name;
    HVar V;
    if (const auto *Ref = dyn_cast<RefType>(P.Ty.get())) {
      std::vector<Nat> Dims;
      ScalarKind Elem = ScalarKind::F64;
      if (!codegen::arrayNest(Ref->Pointee, Dims, Elem))
        return fail("unsupported host parameter type `" + P.Ty->str() + "`");
      Nat Count = Nat::lit(1);
      for (const Nat &D : Dims)
        Count = Count * D;
      auto N = natSize(Count, "host parameter size");
      if (!N)
        return false;
      FP.Elem = Elem;
      FP.Count = *N;
      if (Ref->Mem.Kind == MemoryKind::CpuMem) {
        FP.K = HostFnIR::Param::HostArr;
      } else if (Ref->Mem.Kind == MemoryKind::GpuGlobal) {
        FP.K = HostFnIR::Param::DevArr;
      } else {
        return fail("unsupported host parameter memory `" + Ref->Mem.str() +
                    "`");
      }
      V.K = FP.K;
      V.Elem = Elem;
      V.Count = *N;
    } else if (const auto *S = dyn_cast<ScalarType>(P.Ty.get())) {
      FP.K = HostFnIR::Param::Scalar;
      FP.Elem = S->Scalar;
      V.K = HostFnIR::Param::Scalar;
      V.Elem = S->Scalar;
    } else {
      return fail("unsupported host parameter type `" + P.Ty->str() + "`");
    }
    V.Slot = newSlot();
    bind(P.Name, V);
    R.Params.push_back(std::move(FP));
  }
  return true;
}

std::unique_ptr<HostExpr> HostCompiler::compilePlaceRead(const PlaceExpr &P) {
  // Flatten root-to-leaf, exactly like hostgen's placeCpp.
  std::vector<const PlaceExpr *> Chain;
  for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
    Chain.push_back(Cur);
  std::reverse(Chain.begin(), Chain.end());

  const HVar *Root = nullptr;
  std::unique_ptr<HostExpr> Idx;
  for (const PlaceExpr *Step : Chain) {
    switch (Step->kind()) {
    case ExprKind::PlaceVar: {
      const auto *V = cast<PlaceVar>(Step);
      Root = lookup(V->Name);
      if (!Root) {
        fail("unknown host variable `" + V->Name + "`");
        return nullptr;
      }
      break;
    }
    case ExprKind::PlaceDeref:
      break; // buffers index directly; the deref is implicit
    case ExprKind::PlaceIndex: {
      if (Idx) {
        fail("place `" + P.str() + "` indexes more than one dimension");
        return nullptr;
      }
      Idx = compileExpr(*cast<PlaceIndex>(Step)->Index);
      if (!Idx)
        return nullptr;
      break;
    }
    default:
      fail("place `" + P.str() + "` is not addressable in host code");
      return nullptr;
    }
  }
  auto E = std::make_unique<HostExpr>();
  if (Idx) {
    if (Root->K != HostFnIR::Param::HostArr) {
      fail("place `" + P.str() + "` indexes a non-host-memory buffer");
      return nullptr;
    }
    E->K = HostExpr::Index;
    E->Ty = Root->Elem;
    E->SlotIdx = Root->Slot;
    E->L = std::move(Idx);
    return E;
  }
  if (Root->K != HostFnIR::Param::Scalar) {
    fail("place `" + P.str() + "` reads a whole buffer as a scalar");
    return nullptr;
  }
  E->K = HostExpr::Slot;
  E->Ty = Root->LoopVar ? ScalarKind::I64 : Root->Elem;
  E->SlotIdx = Root->Slot;
  return E;
}

std::unique_ptr<HostExpr> HostCompiler::compileExpr(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Literal: {
    const auto *L = cast<LiteralExpr>(&E);
    auto X = std::make_unique<HostExpr>();
    X->K = HostExpr::Lit;
    X->Ty = L->Scalar;
    switch (L->Scalar) {
    case ScalarKind::F32:
      X->LitV.F = static_cast<double>(static_cast<float>(L->FloatValue));
      break;
    case ScalarKind::F64:
      X->LitV.F = L->FloatValue;
      break;
    case ScalarKind::Bool:
      X->LitV.I = L->BoolValue ? 1 : 0;
      break;
    default:
      X->LitV.I = L->IntValue;
      break;
    }
    return X;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    auto L = compileExpr(*B->Lhs);
    auto R2 = compileExpr(*B->Rhs);
    if (!L || !R2)
      return nullptr;
    auto X = std::make_unique<HostExpr>();
    X->K = HostExpr::Binary;
    X->BO = static_cast<int>(B->Op);
    bool IsCmp = B->Op == BinOpKind::Eq || B->Op == BinOpKind::Ne ||
                 B->Op == BinOpKind::Lt || B->Op == BinOpKind::Le ||
                 B->Op == BinOpKind::Gt || B->Op == BinOpKind::Ge ||
                 B->Op == BinOpKind::And || B->Op == BinOpKind::Or;
    VK K = promoteVK(vkOf(L->Ty), vkOf(R2->Ty));
    X->Ty = IsCmp ? ScalarKind::Bool
                  : (K == VK::F64 ? ScalarKind::F64
                                  : (K == VK::F32 ? ScalarKind::F32
                                                  : ScalarKind::I64));
    X->L = std::move(L);
    X->R = std::move(R2);
    return X;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    auto S = compileExpr(*U->Sub);
    if (!S)
      return nullptr;
    auto X = std::make_unique<HostExpr>();
    X->K = HostExpr::Unary;
    X->UO = static_cast<int>(U->Op);
    X->Ty = U->Op == UnOpKind::Not ? ScalarKind::Bool : S->Ty;
    X->L = std::move(S);
    return X;
  }
  case ExprKind::PlaceVar:
  case ExprKind::PlaceDeref:
  case ExprKind::PlaceIndex:
    return compilePlaceRead(*cast<PlaceExpr>(&E));
  default:
    fail("unsupported host expression: " + exprToString(E));
    return nullptr;
  }
}

bool HostCompiler::compilePlaceTarget(const PlaceExpr &P, unsigned &Slot,
                                      std::unique_ptr<HostExpr> &Idx,
                                      ScalarKind &Elem) {
  std::vector<const PlaceExpr *> Chain;
  for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
    Chain.push_back(Cur);
  std::reverse(Chain.begin(), Chain.end());

  const HVar *Root = nullptr;
  for (const PlaceExpr *Step : Chain) {
    switch (Step->kind()) {
    case ExprKind::PlaceVar: {
      const auto *V = cast<PlaceVar>(Step);
      Root = lookup(V->Name);
      if (!Root)
        return fail("unknown host variable `" + V->Name + "`");
      break;
    }
    case ExprKind::PlaceDeref:
      break;
    case ExprKind::PlaceIndex: {
      if (Idx)
        return fail("place `" + P.str() +
                    "` indexes more than one dimension");
      Idx = compileExpr(*cast<PlaceIndex>(Step)->Index);
      if (!Idx)
        return false;
      break;
    }
    default:
      return fail("place `" + P.str() + "` is not addressable in host code");
    }
  }
  if (Idx) {
    if (Root->K != HostFnIR::Param::HostArr)
      return fail("assignment target `" + P.str() +
                  "` is not a host-memory buffer");
  } else {
    if (Root->K != HostFnIR::Param::Scalar)
      return fail("assignment target `" + P.str() + "` is not a scalar");
  }
  Slot = Root->Slot;
  Elem = Root->LoopVar && !Idx ? ScalarKind::I64 : Root->Elem;
  return true;
}

bool HostCompiler::compileLet(const LetExpr &L, std::vector<HostStmt> &Out) {
  if (const auto *C = dyn_cast<CallExpr>(L.Init.get()))
    if (C->Callee == "CpuHeap::new" || C->Callee == "GpuGlobal::alloc_copy")
      return compileAllocCall(*C, L.Name, Out);
  if (const auto *A = dyn_cast<AllocExpr>(L.Init.get())) {
    // alloc::<cpu.mem, [T; n]>() — zero-initialized host heap array.
    std::vector<Nat> Dims;
    ScalarKind Elem = ScalarKind::F64;
    if (A->Mem.Kind != MemoryKind::CpuMem ||
        !codegen::arrayNest(A->AllocTy, Dims, Elem))
      return fail("unsupported host allocation: " + exprToString(*L.Init));
    Nat Count = Nat::lit(1);
    for (const Nat &D : Dims)
      Count = Count * D;
    auto N = natSize(Count, "host array size");
    if (!N)
      return false;
    HostStmt S;
    S.K = HostStmt::AllocHost;
    S.Elem = Elem;
    S.Count = *N;
    S.Fill = std::make_unique<HostExpr>();
    S.Fill->K = HostExpr::Lit;
    S.Fill->Ty = Elem;
    if (vkOf(Elem) == VK::I64)
      S.Fill->LitV.I = 0;
    else
      S.Fill->LitV.F = 0.0;
    HVar V;
    V.K = HostFnIR::Param::HostArr;
    V.Elem = Elem;
    V.Count = *N;
    V.Slot = newSlot();
    S.Dst = V.Slot;
    bind(L.Name, V);
    Out.push_back(std::move(S));
    return true;
  }

  // Scalar let.
  auto Init = compileExpr(*L.Init);
  if (!Init)
    return false;
  ScalarKind Elem = ScalarKind::F64;
  if (const auto *S = dyn_cast_if_present<ScalarType>(
          (L.Annotation ? L.Annotation : L.Init->Ty).get()))
    Elem = S->Scalar;
  else if (const auto *Lit = dyn_cast<LiteralExpr>(L.Init.get()))
    Elem = Lit->Scalar;
  HostStmt S;
  S.K = HostStmt::LetScalar;
  S.Elem = Elem;
  S.Fill = std::move(Init);
  HVar V;
  V.K = HostFnIR::Param::Scalar;
  V.Elem = Elem;
  V.Slot = newSlot();
  S.Dst = V.Slot;
  bind(L.Name, V);
  Out.push_back(std::move(S));
  return true;
}

bool HostCompiler::compileAllocCall(const CallExpr &C, const std::string &Let,
                                    std::vector<HostStmt> &Out) {
  if (C.Callee == "CpuHeap::new") {
    const auto *Init = dyn_cast<ArrayInitExpr>(
        C.Args.empty() ? nullptr : C.Args[0].get());
    if (!Init)
      return fail("CpuHeap::new expects an array initializer `[v; n]`");
    ScalarKind Elem = ScalarKind::F64;
    if (const auto *S = dyn_cast_if_present<ScalarType>(Init->Elem->Ty.get()))
      Elem = S->Scalar;
    else if (const auto *Lit = dyn_cast<LiteralExpr>(Init->Elem.get()))
      Elem = Lit->Scalar;
    auto Fill = compileExpr(*Init->Elem);
    auto N = natSize(Init->Count, "host array size");
    if (!Fill || !N)
      return false;
    HostStmt S;
    S.K = HostStmt::AllocHost;
    S.Elem = Elem;
    S.Count = *N;
    S.Fill = std::move(Fill);
    HVar V;
    V.K = HostFnIR::Param::HostArr;
    V.Elem = Elem;
    V.Count = *N;
    V.Slot = newSlot();
    S.Dst = V.Slot;
    bind(Let, V);
    Out.push_back(std::move(S));
    return true;
  }

  // GpuGlobal::alloc_copy(&host_buf).
  std::string Src = C.Args.empty() ? "" : argVar(*C.Args[0]);
  const HVar *SrcVar = Src.empty() ? nullptr : lookup(Src);
  if (!SrcVar || SrcVar->K != HostFnIR::Param::HostArr)
    return fail("GpuGlobal::alloc_copy expects a reference to a host buffer "
                "variable");
  HostStmt S;
  S.K = HostStmt::AllocCopy;
  S.Src = SrcVar->Slot;
  S.Elem = SrcVar->Elem;
  S.Count = SrcVar->Count;
  HVar V;
  V.K = HostFnIR::Param::DevArr;
  V.Elem = SrcVar->Elem;
  V.Count = SrcVar->Count;
  V.Slot = newSlot();
  S.Dst = V.Slot;
  bind(Let, V);
  Out.push_back(std::move(S));
  return true;
}

bool HostCompiler::compileLaunch(const CallExpr &C,
                                 std::vector<HostStmt> &Out) {
  HostStmt S;
  S.K = HostStmt::Launch;
  unsigned KI = 0;
  for (; KI != Kernels.size(); ++KI)
    if (Kernels[KI].Name == C.Callee)
      break;
  if (KI == Kernels.size())
    return fail("launch of unknown kernel `" + C.Callee + "`");
  S.KernelIdx = KI;
  for (const ExprPtr &A : C.Args) {
    std::string Name = argVar(*A);
    const HVar *V = Name.empty() ? nullptr : lookup(Name);
    if (!V)
      return fail("kernel launch arguments must be buffer variable "
                  "references");
    if (V->K != HostFnIR::Param::DevArr)
      return fail("kernel launch argument `" + Name +
                  "` is not a device buffer");
    S.ArgSlots.push_back(V->Slot);
  }
  Out.push_back(std::move(S));
  return true;
}

bool HostCompiler::compileCall(const CallExpr &C, std::vector<HostStmt> &Out) {
  if (C.IsLaunch)
    return compileLaunch(C, Out);

  if (C.Callee == "copy_mem_to_host" || C.Callee == "copy_to_gpu") {
    bool ToHost = C.Callee == "copy_mem_to_host";
    if (C.Args.size() != 2)
      return fail("`" + C.Callee + "` expects two arguments");
    std::string Dst = argVar(*C.Args[0]);
    std::string Src = argVar(*C.Args[1]);
    const HVar *DstVar = Dst.empty() ? nullptr : lookup(Dst);
    const HVar *SrcVar = Src.empty() ? nullptr : lookup(Src);
    if (!DstVar || !SrcVar)
      return fail("`" + C.Callee + "` expects buffer variable references");
    auto KindOk = [&](const HVar *V, bool WantHost) {
      return V->K == (WantHost ? HostFnIR::Param::HostArr
                               : HostFnIR::Param::DevArr);
    };
    if (!KindOk(DstVar, ToHost) || !KindOk(SrcVar, !ToHost))
      return fail("`" + C.Callee + "`: arguments have the wrong memory "
                  "spaces");
    HostStmt S;
    S.K = ToHost ? HostStmt::CopyToHost : HostStmt::CopyToGpu;
    S.Dst = DstVar->Slot;
    S.Src = SrcVar->Slot;
    Out.push_back(std::move(S));
    return true;
  }

  // Plain call of another host function.
  if (const FnDef *Callee = M.findFn(C.Callee);
      Callee && Callee->isCpuFn()) {
    auto It = HostIdx.find(C.Callee);
    if (It == HostIdx.end())
      return fail("host call of `" + C.Callee + "` which has no body");
    HostStmt S;
    S.K = HostStmt::Call;
    S.CalleeIdx = It->second;
    for (const ExprPtr &A : C.Args) {
      std::string Name = argVar(*A);
      const HVar *V = Name.empty() ? nullptr : lookup(Name);
      if (!V)
        return fail("host call arguments must be variable references in the "
                    "vm backend");
      S.ArgSlots.push_back(V->Slot);
    }
    Out.push_back(std::move(S));
    return true;
  }
  return fail("unsupported host call: " + C.Callee);
}

bool HostCompiler::compileForNat(const ForNatExpr &F,
                                 std::vector<HostStmt> &Out) {
  auto Lo = F.Lo.simplified().evaluate({});
  auto Hi = F.Hi.simplified().evaluate({});
  if (!Lo || !Hi)
    return fail("for-nat bounds `[" + F.Lo.simplified().str() + ".." +
                F.Hi.simplified().str() +
                "]` are not instantiated (pass -D)");
  HostStmt S;
  S.K = HostStmt::ForNat;
  S.Lo = *Lo;
  S.Hi = *Hi;
  Scopes.emplace_back();
  HVar V;
  V.K = HostFnIR::Param::Scalar;
  V.LoopVar = true;
  V.Elem = ScalarKind::I64;
  V.Slot = newSlot();
  S.Dst = V.Slot;
  bind(F.Var, V);
  bool Ok = F.Body->kind() == ExprKind::Block
                ? compileBlock(*cast<BlockExpr>(F.Body.get()), S.Body)
                : compileStmt(*F.Body, S.Body);
  Scopes.pop_back();
  if (!Ok)
    return false;
  Out.push_back(std::move(S));
  return true;
}

bool HostCompiler::compileStmt(const Expr &E, std::vector<HostStmt> &Out) {
  switch (E.kind()) {
  case ExprKind::Let:
    return compileLet(*cast<LetExpr>(&E), Out);
  case ExprKind::Call:
    return compileCall(*cast<CallExpr>(&E), Out);
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(&E);
    HostStmt S;
    S.K = HostStmt::Assign;
    if (!compilePlaceTarget(*A->Lhs, S.Dst, S.Idx, S.Elem))
      return false;
    S.Fill = compileExpr(*A->Rhs);
    if (!S.Fill)
      return false;
    Out.push_back(std::move(S));
    return true;
  }
  case ExprKind::ForNat:
    return compileForNat(*cast<ForNatExpr>(&E), Out);
  case ExprKind::Block: {
    Scopes.emplace_back();
    bool Ok = compileBlock(*cast<BlockExpr>(&E), Out);
    Scopes.pop_back();
    return Ok;
  }
  default:
    return fail("unsupported host statement: " + exprToString(E));
  }
}

bool HostCompiler::compileBlock(const BlockExpr &Blk,
                                std::vector<HostStmt> &Out) {
  for (const ExprPtr &S : Blk.Stmts)
    if (!compileStmt(*S, Out))
      return false;
  return true;
}

bool HostCompiler::run(HostFnIR &Out, std::string &Err) {
  R.Name = Fn.Name;
  Scopes.emplace_back();
  bool Ok = compileParams();
  if (Ok && Fn.Body)
    Ok = compileBlock(*cast<BlockExpr>(Fn.Body.get()), R.Body);
  Scopes.pop_back();
  if (!Ok) {
    Err = "while compiling host `" + Fn.Name + "`: " +
          (Error.empty() ? "host compilation failed" : Error);
    return false;
  }
  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

void disasmCode(std::ostringstream &OS, const Code &C, const char *Indent) {
  for (size_t I = 0; I != C.Instrs.size(); ++I) {
    const Instr &In = C.Instrs[I];
    OS << Indent << I << ": " << opName(In.K);
    if (In.K == Op::Jmp) {
      OS << " -> " << In.Imm << "\n";
      continue;
    }
    if (In.K == Op::Ret) {
      OS << "\n";
      continue;
    }
    OS << " r" << In.A;
    switch (In.K) {
    case Op::Const:
      OS << ", const[" << In.Imm << "]";
      break;
    case Op::Coord:
    case Op::Slot:
      OS << ", " << In.Imm;
      break;
    case Op::Jz:
      OS << " -> " << In.Imm;
      break;
    case Op::Move:
    case Op::NotI:
    case Op::NegI:
    case Op::NegF:
    case Op::NegF32:
    case Op::I2F:
    case Op::F2I:
    case Op::F2F32:
      OS << ", r" << In.B;
      break;
    case Op::LoadGlobal:
    case Op::StoreGlobal:
      OS << ", r" << In.B << ", param[" << In.Imm << "]";
      break;
    case Op::LoadGlobal2:
    case Op::StoreGlobal2:
      OS << ":r" << (In.A + 1) << ", r" << In.B << ", param[" << In.Imm
         << "]";
      break;
    case Op::LoadShared:
    case Op::StoreShared:
    case Op::LoadArena:
    case Op::StoreArena:
      OS << ", r" << In.B << ", base=" << In.Imm;
      break;
    case Op::LoadShared2:
    case Op::StoreShared2:
      OS << ":r" << (In.A + 1) << ", r" << In.B << ", base=" << In.Imm;
      break;
    case Op::Ret:
    case Op::RetVal:
      break;
    default:
      OS << ", r" << In.B << ", r" << In.C;
      break;
    }
    OS << "\n";
  }
}

void disasmNodes(std::ostringstream &OS, const std::vector<VmNode> &Nodes,
                 unsigned Depth, unsigned &Phase) {
  std::string Ind(Depth * 2 + 2, ' ');
  for (const VmNode &N : Nodes) {
    if (N.K == VmNode::Straight) {
      OS << Ind << "phase #" << Phase++ << " (" << N.Body.Instrs.size()
         << " instrs, " << N.Body.NumRegs << " regs)\n";
      if (N.SplitDim < 0) {
        disasmCode(OS, N.Body, (Ind + "  ").c_str());
        continue;
      }
      static const char *const Coords[] = {"_tx", "_ty", "_tz"};
      const std::string Sub = Ind + "    ";
      OS << Ind << "  split " << Coords[N.SplitDim] << " at:\n";
      disasmCode(OS, N.At, Sub.c_str());
      OS << Ind << "  then:\n";
      disasmCode(OS, N.Body, Sub.c_str());
      const bool Idle = N.Else.Instrs.empty();
      OS << Ind << "  else:" << (Idle ? " idle" : "") << "\n";
      if (!Idle)
        disasmCode(OS, N.Else, Sub.c_str());
      continue;
    }
    OS << Ind << "loop slot " << N.Slot << "\n";
    disasmNodes(OS, N.Children, Depth + 1, Phase);
  }
}

const char *hostStmtName(HostStmt::Kind K) {
  switch (K) {
  case HostStmt::AllocHost:
    return "alloc-host";
  case HostStmt::AllocCopy:
    return "alloc-copy";
  case HostStmt::CopyToHost:
    return "copy-to-host";
  case HostStmt::CopyToGpu:
    return "copy-to-gpu";
  case HostStmt::Launch:
    return "launch";
  case HostStmt::LetScalar:
    return "let-scalar";
  case HostStmt::Assign:
    return "assign";
  case HostStmt::ForNat:
    return "for-nat";
  case HostStmt::Call:
    return "call";
  }
  return "?";
}

void disasmHostStmts(std::ostringstream &OS, const std::vector<HostStmt> &B,
                     unsigned Depth) {
  std::string Ind(Depth * 2 + 2, ' ');
  for (const HostStmt &S : B) {
    OS << Ind << hostStmtName(S.K);
    switch (S.K) {
    case HostStmt::AllocHost:
      OS << " slot " << S.Dst << " (" << S.Count << " x "
         << scalarKindName(S.Elem) << ")";
      break;
    case HostStmt::AllocCopy:
    case HostStmt::CopyToHost:
    case HostStmt::CopyToGpu:
      OS << " slot " << S.Dst << " <- slot " << S.Src;
      break;
    case HostStmt::Launch:
      OS << " kernel[" << S.KernelIdx << "] args";
      for (unsigned A : S.ArgSlots)
        OS << " " << A;
      break;
    case HostStmt::LetScalar:
    case HostStmt::Assign:
      OS << " slot " << S.Dst;
      break;
    case HostStmt::ForNat:
      OS << " slot " << S.Dst << " in [" << S.Lo << ".." << S.Hi << ")";
      break;
    case HostStmt::Call:
      OS << " hostfn[" << S.CalleeIdx << "] args";
      for (unsigned A : S.ArgSlots)
        OS << " " << A;
      break;
    }
    OS << "\n";
    if (S.K == HostStmt::ForNat)
      disasmHostStmts(OS, S.Body, Depth + 1);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

const char *vm::opName(Op O) {
  switch (O) {
  case Op::Const: return "const";
  case Op::Coord: return "coord";
  case Op::Slot: return "slot";
  case Op::Move: return "move";
  case Op::LoadGlobal: return "ld.g";
  case Op::StoreGlobal: return "st.g";
  case Op::LoadShared: return "ld.s";
  case Op::StoreShared: return "st.s";
  case Op::LoadArena: return "ld.a";
  case Op::StoreArena: return "st.a";
  case Op::LoadGlobal2: return "ld.g2";
  case Op::StoreGlobal2: return "st.g2";
  case Op::LoadShared2: return "ld.s2";
  case Op::StoreShared2: return "st.s2";
  case Op::AddI: return "add.i";
  case Op::SubI: return "sub.i";
  case Op::MulI: return "mul.i";
  case Op::DivI: return "div.i";
  case Op::ModI: return "mod.i";
  case Op::PowI: return "pow.i";
  case Op::AddF: return "add.f";
  case Op::SubF: return "sub.f";
  case Op::MulF: return "mul.f";
  case Op::DivF: return "div.f";
  case Op::AddF32: return "add.f32";
  case Op::SubF32: return "sub.f32";
  case Op::MulF32: return "mul.f32";
  case Op::DivF32: return "div.f32";
  case Op::LtI: return "lt.i";
  case Op::LeI: return "le.i";
  case Op::GtI: return "gt.i";
  case Op::GeI: return "ge.i";
  case Op::EqI: return "eq.i";
  case Op::NeI: return "ne.i";
  case Op::LtF: return "lt.f";
  case Op::LeF: return "le.f";
  case Op::GtF: return "gt.f";
  case Op::GeF: return "ge.f";
  case Op::EqF: return "eq.f";
  case Op::NeF: return "ne.f";
  case Op::AndI: return "and";
  case Op::OrI: return "or";
  case Op::NotI: return "not";
  case Op::NegI: return "neg.i";
  case Op::NegF: return "neg.f";
  case Op::NegF32: return "neg.f32";
  case Op::I2F: return "i2f";
  case Op::F2I: return "f2i";
  case Op::F2F32: return "f2f32";
  case Op::Jmp: return "jmp";
  case Op::Jz: return "jz";
  case Op::Ret: return "ret";
  case Op::RetVal: return "retval";
  }
  return "?";
}

size_t vm::scalarSize(ScalarKind K) {
  switch (K) {
  case ScalarKind::I32:
  case ScalarKind::U32:
  case ScalarKind::F32:
    return 4;
  case ScalarKind::I64:
  case ScalarKind::U64:
  case ScalarKind::F64:
    return 8;
  case ScalarKind::Bool:
    return 1;
  case ScalarKind::Unit:
    return 0;
  }
  return 0;
}

const VmKernel *CompiledProgram::findKernel(const std::string &Name) const {
  for (const VmKernel &K : Kernels)
    if (K.Name == Name)
      return &K;
  return nullptr;
}

const HostFnIR *CompiledProgram::findHostFn(const std::string &Name) const {
  for (const HostFnIR &F : HostFns)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

CompileVmResult vm::compile(const Module &M, const kir::PassConfig &Passes) {
  CompileVmResult R;
  try {
    auto P = std::make_shared<CompiledProgram>();
    for (const auto &FnPtr : M.Fns) {
      const FnDef &Fn = *FnPtr;
      if (!Fn.isGpuFn())
        continue;
      VmKernel K;
      if (!compileKernel(M, Fn, Passes, K, R.Error))
        return R;
      P->Kernels.push_back(std::move(K));
    }
    std::map<std::string, unsigned> HostIdx;
    for (const auto &FnPtr : M.Fns)
      if (FnPtr->isCpuFn() && FnPtr->Body)
        HostIdx[FnPtr->Name] = static_cast<unsigned>(HostIdx.size());
    for (const auto &FnPtr : M.Fns) {
      const FnDef &Fn = *FnPtr;
      if (!Fn.isCpuFn() || !Fn.Body)
        continue;
      HostFnIR F;
      if (!HostCompiler(M, Fn, P->Kernels, HostIdx).run(F, R.Error))
        return R;
      P->HostFns.push_back(std::move(F));
    }
    R.Ok = true;
    R.Program = std::move(P);
  } catch (const std::exception &E) {
    R.Ok = false;
    R.Program.reset();
    R.Error = std::string("internal error during vm compilation: ") +
              E.what();
  } catch (...) {
    R.Ok = false;
    R.Program.reset();
    R.Error = "internal error during vm compilation";
  }
  return R;
}

std::string vm::disassemble(const CompiledProgram &P) {
  std::ostringstream OS;
  OS << "// vm bytecode listing (descendc --emit=vm)\n";
  for (const VmKernel &K : P.Kernels) {
    OS << "\nkernel " << K.Name << " grid(" << K.Grid.X << ", " << K.Grid.Y
       << ", " << K.Grid.Z << ") block(" << K.Block.X << ", " << K.Block.Y
       << ", " << K.Block.Z << ")\n";
    OS << "  shared " << K.SharedBytes << " B, locals base " << K.LocalsBase
       << ", arena " << K.ArenaBytes << " B\n";
    for (size_t I = 0; I != K.Params.size(); ++I)
      OS << "  param[" << I << "] " << K.Params[I].Name << ": ["
         << scalarKindName(K.Params[I].Elem) << "; " << K.Params[I].Count
         << "]\n";
    unsigned Phase = 0;
    disasmNodes(OS, K.Nodes, 0, Phase);
  }
  for (const HostFnIR &F : P.HostFns) {
    OS << "\nhost " << F.Name << " (" << F.NumSlots << " slots)\n";
    for (size_t I = 0; I != F.Params.size(); ++I) {
      OS << "  param[" << I << "] " << F.Params[I].Name << ": ";
      switch (F.Params[I].K) {
      case HostFnIR::Param::HostArr:
        OS << "host [" << scalarKindName(F.Params[I].Elem) << "; "
           << F.Params[I].Count << "]";
        break;
      case HostFnIR::Param::DevArr:
        OS << "device [" << scalarKindName(F.Params[I].Elem) << "; "
           << F.Params[I].Count << "]";
        break;
      case HostFnIR::Param::Scalar:
        OS << scalarKindName(F.Params[I].Elem);
        break;
      }
      OS << "\n";
    }
    disasmHostStmts(OS, F.Body, 0);
  }
  return OS.str();
}

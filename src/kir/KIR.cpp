//===- kir/KIR.cpp - Typed kernel IR ------------------------------------------===//

#include "kir/KIR.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace descend;
using namespace descend::kir;

const char *kir::cppScalarType(ScalarKind K) {
  switch (K) {
  case ScalarKind::I32:
    return "int32_t";
  case ScalarKind::I64:
    return "int64_t";
  case ScalarKind::U32:
    return "uint32_t";
  case ScalarKind::U64:
    return "uint64_t";
  case ScalarKind::F32:
    return "float";
  case ScalarKind::F64:
    return "double";
  case ScalarKind::Bool:
    return "bool";
  case ScalarKind::Unit:
    return "void";
  }
  return "void";
}

std::string kir::floatLiteral(double V, ScalarKind K) {
  std::string S = strfmt("%.17g", V);
  if (S.find('.') == std::string::npos && S.find('e') == std::string::npos &&
      S.find("inf") == std::string::npos && S.find("nan") == std::string::npos)
    S += ".0";
  if (K == ScalarKind::F32)
    S += "f";
  return S;
}

const char *kir::memoryName(MemSpace M) {
  switch (M) {
  case MemSpace::Global:
    return "global";
  case MemSpace::Shared:
    return "shared";
  case MemSpace::Arena:
    return "arena";
  }
  return "?";
}

const char *kir::binOpSpelling(BinOp O) {
  switch (O) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::And:
    return "&&";
  case BinOp::Or:
    return "||";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Expression factories
//===----------------------------------------------------------------------===//

ExprPtr Expr::natVal(Nat N) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::NatVal;
  E->N = std::move(N);
  return E;
}

ExprPtr Expr::intLit(long long V, ScalarKind K) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::IntLit;
  E->IntVal = V;
  E->Scalar = K;
  return E;
}

ExprPtr Expr::floatLit(double V, ScalarKind K) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::FloatLit;
  E->FloatVal = V;
  E->Scalar = K;
  return E;
}

ExprPtr Expr::boolLit(bool V) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::BoolLit;
  E->BoolVal = V;
  return E;
}

ExprPtr Expr::unitLit() {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::UnitLit;
  return E;
}

ExprPtr Expr::varRef(std::string Name) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::VarRef;
  E->Name = std::move(Name);
  return E;
}

ExprPtr Expr::load(MemRef Ref, Nat Index) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::Load;
  E->Ref = std::move(Ref);
  E->Index = std::move(Index);
  return E;
}

ExprPtr Expr::binary(BinOp O, ExprPtr L, ExprPtr R) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::Binary;
  E->BO = O;
  E->Lhs = std::move(L);
  E->Rhs = std::move(R);
  return E;
}

ExprPtr Expr::unary(UnOp O, ExprPtr S) {
  auto E = std::make_unique<Expr>();
  E->K = ExprKind::Unary;
  E->UO = O;
  E->Sub = std::move(S);
  return E;
}

ExprPtr Expr::clone() const {
  auto E = std::make_unique<Expr>();
  E->K = K;
  E->N = N;
  E->IntVal = IntVal;
  E->FloatVal = FloatVal;
  E->Scalar = Scalar;
  E->BoolVal = BoolVal;
  E->Name = Name;
  E->Ref = Ref;
  E->Index = Index;
  E->BO = BO;
  E->UO = UO;
  if (Lhs)
    E->Lhs = Lhs->clone();
  if (Rhs)
    E->Rhs = Rhs->clone();
  if (Sub)
    E->Sub = Sub->clone();
  return E;
}

//===----------------------------------------------------------------------===//
// Statement factories
//===----------------------------------------------------------------------===//

Stmt Stmt::let(std::string Name, ScalarKind Elem, ExprPtr Init,
               bool SpillReload) {
  Stmt S;
  S.K = StmtKind::Let;
  S.Name = std::move(Name);
  S.Elem = Elem;
  S.Value = std::move(Init);
  S.SpillReload = SpillReload;
  return S;
}

Stmt Stmt::letIndex(std::string Name, Nat Value) {
  Stmt S;
  S.K = StmtKind::LetIndex;
  S.Name = std::move(Name);
  S.Index = std::move(Value);
  return S;
}

Stmt Stmt::assign(std::string Name, ExprPtr Value) {
  Stmt S;
  S.K = StmtKind::Assign;
  S.Name = std::move(Name);
  S.Value = std::move(Value);
  return S;
}

Stmt Stmt::store(MemRef Ref, Nat Index, ExprPtr Value, bool SpillReload) {
  Stmt S;
  S.K = StmtKind::Store;
  S.Ref = std::move(Ref);
  S.Index = std::move(Index);
  S.Value = std::move(Value);
  S.SpillReload = SpillReload;
  return S;
}

Stmt Stmt::ifLt(Nat CondL, Nat CondR) {
  Stmt S;
  S.K = StmtKind::If;
  S.CondL = std::move(CondL);
  S.CondR = std::move(CondR);
  return S;
}

Stmt Stmt::forLoop(std::string Var, Nat Lo, Nat Hi) {
  Stmt S;
  S.K = StmtKind::For;
  S.Name = std::move(Var);
  S.Lo = std::move(Lo);
  S.Hi = std::move(Hi);
  return S;
}

Stmt Stmt::barrier() {
  Stmt S;
  S.K = StmtKind::Barrier;
  return S;
}

//===----------------------------------------------------------------------===//
// Nat -> C++
//===----------------------------------------------------------------------===//

bool kir::containsNonShiftablePow(const Nat &N) {
  if (N.isNull())
    return false;
  switch (N.kind()) {
  case NatKind::Lit:
  case NatKind::Var:
    return false;
  case NatKind::Pow:
    if (!N.lhs().isLit() || N.lhs().litValue() != 2)
      return true;
    return containsNonShiftablePow(N.rhs());
  default:
    return containsNonShiftablePow(N.lhs()) ||
           containsNonShiftablePow(N.rhs());
  }
}

bool kir::containsPow(const Nat &N) {
  if (N.isNull())
    return false;
  if (N.kind() == NatKind::Pow)
    return true;
  switch (N.kind()) {
  case NatKind::Lit:
  case NatKind::Var:
    return false;
  default:
    return containsPow(N.lhs()) || containsPow(N.rhs());
  }
}

namespace {

/// Precedence: additive = 1, multiplicative = 2, atoms = 3. A pow prints
/// as a parenthesized shift, i.e. an atom.
unsigned natPrec(NatKind K) {
  switch (K) {
  case NatKind::Add:
  case NatKind::Sub:
    return 1;
  case NatKind::Mul:
  case NatKind::Div:
  case NatKind::Mod:
    return 2;
  default:
    return 3;
  }
}

void printNatCpp(const Nat &N, unsigned ParentPrec, const CppStyle &Style,
                 std::ostringstream &OS, std::string *Err) {
  if (N.isNull()) {
    if (Err && Err->empty())
      *Err = "null nat expression";
    OS << "0";
    return;
  }
  unsigned Prec = natPrec(N.kind());
  bool Paren = Prec < ParentPrec;
  if (Paren)
    OS << '(';
  switch (N.kind()) {
  case NatKind::Lit:
    OS << N.litValue();
    break;
  case NatKind::Var:
    OS << Style.mapVar(N.varName());
    break;
  case NatKind::Pow: {
    // 2^e => (1ll << e); any other base cannot be printed as C++.
    if (!N.lhs().isLit() || N.lhs().litValue() != 2) {
      if (Err && Err->empty())
        *Err = "cannot emit pow with non-2 base: " + N.str();
      OS << "0";
      break;
    }
    std::ostringstream Exp;
    // Parenthesize any non-atom exponent: shift binds looser than + in
    // C++, so `1ll << s + 1` would be misread by humans (and -Wparentheses).
    printNatCpp(N.rhs(), 3, Style, Exp, Err);
    OS << "(1ll << " << Exp.str() << ")";
    break;
  }
  case NatKind::Add:
    printNatCpp(N.lhs(), Prec, Style, OS, Err);
    OS << " + ";
    printNatCpp(N.rhs(), Prec, Style, OS, Err);
    break;
  case NatKind::Sub:
    printNatCpp(N.lhs(), Prec, Style, OS, Err);
    OS << " - ";
    printNatCpp(N.rhs(), Prec + 1, Style, OS, Err);
    break;
  case NatKind::Mul:
    printNatCpp(N.lhs(), Prec, Style, OS, Err);
    OS << " * ";
    printNatCpp(N.rhs(), Prec, Style, OS, Err);
    break;
  case NatKind::Div:
    printNatCpp(N.lhs(), Prec, Style, OS, Err);
    OS << " / ";
    printNatCpp(N.rhs(), Prec + 1, Style, OS, Err);
    break;
  case NatKind::Mod:
    printNatCpp(N.lhs(), Prec, Style, OS, Err);
    OS << " % ";
    printNatCpp(N.rhs(), Prec + 1, Style, OS, Err);
    break;
  }
  if (Paren)
    OS << ')';
}

} // namespace

std::string kir::natToCpp(const Nat &N, const CppStyle &Style,
                          std::string *Err) {
  std::ostringstream OS;
  std::string LocalErr;
  printNatCpp(N.simplified(), 0, Style, OS, Err ? Err : &LocalErr);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Backend spellings
//===----------------------------------------------------------------------===//

std::string CppStyle::wideStore(const MemRef &Ref, const std::string &Idx,
                                const std::string &V0,
                                const std::string &V1) const {
  // Fallback: two narrow stores — semantically equivalent, no fusion.
  return store(Ref, Idx, V0) + " " + store(Ref, "(" + Idx + " + 1)", V1);
}

std::vector<std::string> CppStyle::wideLet(const MemRef &Ref,
                                           const std::string &Idx,
                                           const std::string &N0,
                                           const std::string &N1) const {
  const char *T = cppScalarType(Ref.Elem);
  return {std::string(T) + " " + N0 + " = " + load(Ref, Idx) + ";",
          std::string(T) + " " + N1 + " = " + load(Ref, "(" + Idx + " + 1)") +
              ";"};
}

std::string CudaStyle::mapVar(const std::string &V) const {
  if (V == "_bx")
    return "blockIdx.x";
  if (V == "_by")
    return "blockIdx.y";
  if (V == "_bz")
    return "blockIdx.z";
  if (V == "_tx")
    return "threadIdx.x";
  if (V == "_ty")
    return "threadIdx.y";
  if (V == "_tz")
    return "threadIdx.z";
  return V;
}

std::string CudaStyle::load(const MemRef &Ref, const std::string &Idx) const {
  // Arena refs never reach the CUDA printer (registers survive barriers);
  // printStmts verifies that before spelling anything.
  return Ref.Name + "[" + Idx + "]";
}

std::string CudaStyle::store(const MemRef &Ref, const std::string &Idx,
                             const std::string &Value) const {
  return Ref.Name + "[" + Idx + "] = " + Value + ";";
}

std::string CudaStyle::barrier() const { return "__syncthreads();"; }

namespace {
/// CUDA vector type of a two-element f32/f64 access.
const char *cudaVec2Type(ScalarKind K) {
  return K == ScalarKind::F32 ? "float2" : "double2";
}
} // namespace

std::string CudaStyle::wideStore(const MemRef &Ref, const std::string &Idx,
                                 const std::string &V0,
                                 const std::string &V1) const {
  const char *V2 = cudaVec2Type(Ref.Elem);
  return strfmt("*reinterpret_cast<%s *>(&%s[%s]) = make_%s(%s, %s);", V2,
                Ref.Name.c_str(), Idx.c_str(), V2, V0.c_str(), V1.c_str());
}

std::vector<std::string> CudaStyle::wideLet(const MemRef &Ref,
                                            const std::string &Idx,
                                            const std::string &N0,
                                            const std::string &N1) const {
  const char *V2 = cudaVec2Type(Ref.Elem);
  const char *T = cppScalarType(Ref.Elem);
  std::string Tmp = N0 + "_w2";
  return {strfmt("const %s %s = *reinterpret_cast<const %s *>(&%s[%s]);", V2,
                 Tmp.c_str(), V2, Ref.Name.c_str(), Idx.c_str()),
          strfmt("%s %s = %s.x;", T, N0.c_str(), Tmp.c_str()),
          strfmt("%s %s = %s.y;", T, N1.c_str(), Tmp.c_str())};
}

std::string SimStyle::load(const MemRef &Ref, const std::string &Idx) const {
  switch (Ref.Space) {
  case MemSpace::Global:
    return Ref.Name + ".load(_b, " + Idx + ")";
  case MemSpace::Shared:
    return strfmt("_b.sharedLoad<%s>(%zu, %s)", cppScalarType(Ref.Elem),
                  Ref.ByteBase, Idx.c_str());
  case MemSpace::Arena:
    return strfmt("_b.shared<%s>(_locals_base + %zu)[%s]",
                  cppScalarType(Ref.Elem), Ref.ByteBase, Idx.c_str());
  }
  return "0";
}

std::string SimStyle::store(const MemRef &Ref, const std::string &Idx,
                            const std::string &Value) const {
  switch (Ref.Space) {
  case MemSpace::Global:
    return Ref.Name + ".store(_b, " + Idx + ", " + Value + ");";
  case MemSpace::Shared:
    return strfmt("_b.sharedStore<%s>(%zu, %s, %s);", cppScalarType(Ref.Elem),
                  Ref.ByteBase, Idx.c_str(), Value.c_str());
  case MemSpace::Arena:
    return strfmt("_b.shared<%s>(_locals_base + %zu)[%s] = %s;",
                  cppScalarType(Ref.Elem), Ref.ByteBase, Idx.c_str(),
                  Value.c_str());
  }
  return ";";
}

std::string SimStyle::barrier() const {
  // Unreachable through printStmts (allowsBarriers() is false).
  return "/*phase boundary*/;";
}

std::string SimStyle::wideStore(const MemRef &Ref, const std::string &Idx,
                                const std::string &V0,
                                const std::string &V1) const {
  switch (Ref.Space) {
  case MemSpace::Global:
    return Ref.Name + ".store2(_b, " + Idx + ", " + V0 + ", " + V1 + ");";
  case MemSpace::Shared:
    return strfmt("_b.sharedStore2<%s>(%zu, %s, %s, %s);",
                  cppScalarType(Ref.Elem), Ref.ByteBase, Idx.c_str(),
                  V0.c_str(), V1.c_str());
  case MemSpace::Arena:
    // Arena slots are per-thread; fusion buys nothing and the vectorize
    // pass never produces this. Narrow fallback keeps printing total.
    return CppStyle::wideStore(Ref, Idx, V0, V1);
  }
  return ";";
}

std::vector<std::string> SimStyle::wideLet(const MemRef &Ref,
                                           const std::string &Idx,
                                           const std::string &N0,
                                           const std::string &N1) const {
  const char *T = cppScalarType(Ref.Elem);
  switch (Ref.Space) {
  case MemSpace::Global:
    return {strfmt("%s %s, %s;", T, N0.c_str(), N1.c_str()),
            Ref.Name + ".load2(_b, " + Idx + ", " + N0 + ", " + N1 + ");"};
  case MemSpace::Shared:
    return {strfmt("%s %s, %s;", T, N0.c_str(), N1.c_str()),
            strfmt("_b.sharedLoad2<%s>(%zu, %s, %s, %s);", T, Ref.ByteBase,
                   Idx.c_str(), N0.c_str(), N1.c_str())};
  case MemSpace::Arena:
    return CppStyle::wideLet(Ref, Idx, N0, N1);
  }
  return {};
}

//===----------------------------------------------------------------------===//
// C++ printer
//===----------------------------------------------------------------------===//

namespace {

class Printer {
public:
  Printer(const CppStyle &Style, unsigned Indent)
      : Style(Style), Indent(Indent) {}

  void stmts(const std::vector<Stmt> &List) {
    for (const Stmt &S : List)
      stmt(S);
  }

  std::string take() { return OS.str(); }
  const std::string &error() const { return Err; }

private:
  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
  }

  void line(const std::string &S) {
    for (unsigned I = 0; I != Indent; ++I)
      OS << "  ";
    OS << S << "\n";
  }

  std::string nat(const Nat &N) { return natToCpp(N, Style, &Err); }

  std::string expr(const Expr &E) {
    switch (E.K) {
    case ExprKind::NatVal:
      return nat(E.N);
    case ExprKind::IntLit:
      return std::to_string(E.IntVal);
    case ExprKind::FloatLit:
      return floatLiteral(E.FloatVal, E.Scalar);
    case ExprKind::BoolLit:
      return E.BoolVal ? "true" : "false";
    case ExprKind::UnitLit:
      return "/*unit*/0";
    case ExprKind::VarRef:
      return E.Name;
    case ExprKind::Load:
      if (E.Ref.Space == MemSpace::Arena && !Style.allowsArena())
        fail("arena access in a target without per-thread spill slots");
      return Style.load(E.Ref, nat(E.Index));
    case ExprKind::Binary:
      if (!E.Lhs || !E.Rhs) {
        fail("binary expression with a missing operand");
        return "0";
      }
      return "(" + expr(*E.Lhs) + " " + binOpSpelling(E.BO) + " " +
             expr(*E.Rhs) + ")";
    case ExprKind::Unary:
      if (!E.Sub) {
        fail("unary expression with a missing operand");
        return "0";
      }
      return std::string(E.UO == UnOp::Neg ? "-" : "!") + expr(*E.Sub);
    }
    return "0";
  }

  void stmt(const Stmt &S) {
    switch (S.K) {
    case StmtKind::Let:
      if (!S.Value) {
        fail("let without an initializer");
        return;
      }
      if (S.Width == 2) {
        if (S.Value->K != ExprKind::Load || S.Name2.empty()) {
          fail("wide let that is not a two-target load");
          return;
        }
        if (S.Value->Ref.Space == MemSpace::Arena && !Style.allowsArena())
          fail("arena access in a target without per-thread spill slots");
        for (const std::string &L :
             Style.wideLet(S.Value->Ref, nat(S.Value->Index), S.Name, S.Name2))
          line(L);
        return;
      }
      line(std::string(cppScalarType(S.Elem)) + " " + S.Name + " = " +
           expr(*S.Value) + ";");
      return;
    case StmtKind::LetIndex:
      line("const long long " + S.Name + " = " + nat(S.Index) + ";");
      return;
    case StmtKind::Assign:
      if (!S.Value) {
        fail("assignment without a value");
        return;
      }
      line(S.Name + " = " + expr(*S.Value) + ";");
      return;
    case StmtKind::Store:
      if (!S.Value) {
        fail("store without a value");
        return;
      }
      if (S.Ref.Space == MemSpace::Arena && !Style.allowsArena())
        fail("arena access in a target without per-thread spill slots");
      if (S.Width == 2) {
        if (!S.Value2) {
          fail("wide store without a second value");
          return;
        }
        line(Style.wideStore(S.Ref, nat(S.Index), expr(*S.Value),
                             expr(*S.Value2)));
        return;
      }
      line(Style.store(S.Ref, nat(S.Index), expr(*S.Value)));
      return;
    case StmtKind::If:
      line("if (" + nat(S.CondL) + " < " + nat(S.CondR) + ") {");
      ++Indent;
      stmts(S.Then);
      --Indent;
      line("} else {");
      ++Indent;
      stmts(S.Else);
      --Indent;
      line("}");
      return;
    case StmtKind::For:
      line(strfmt("for (long long %s = %s; %s < %s; ++%s) {", S.Name.c_str(),
                  nat(S.Lo).c_str(), S.Name.c_str(), nat(S.Hi).c_str(),
                  S.Name.c_str()));
      ++Indent;
      stmts(S.Body);
      --Indent;
      line("}");
      return;
    case StmtKind::Barrier:
      if (!Style.allowsBarriers()) {
        fail("barrier in a target whose phase boundary is the barrier");
        return;
      }
      line(Style.barrier());
      return;
    }
  }

  const CppStyle &Style;
  unsigned Indent;
  std::ostringstream OS;
  std::string Err;
};

} // namespace

bool kir::printStmts(const std::vector<Stmt> &Stmts, const CppStyle &Style,
                     unsigned Indent, std::string &Out, std::string &Err) {
  Printer P(Style, Indent);
  P.stmts(Stmts);
  Out = P.take();
  if (!P.error().empty()) {
    Err = P.error();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Structural dump
//===----------------------------------------------------------------------===//

std::string kir::dump(const Expr &E) {
  switch (E.K) {
  case ExprKind::NatVal:
    return E.N.simplified().str();
  case ExprKind::IntLit:
    return std::to_string(E.IntVal);
  case ExprKind::FloatLit:
    return floatLiteral(E.FloatVal, E.Scalar);
  case ExprKind::BoolLit:
    return E.BoolVal ? "true" : "false";
  case ExprKind::UnitLit:
    return "unit";
  case ExprKind::VarRef:
    return E.Name;
  case ExprKind::Load:
    return strfmt("ld %s %s[%s]", memoryName(E.Ref.Space), E.Ref.Name.c_str(),
                  E.Index.simplified().str().c_str());
  case ExprKind::Binary:
    return "(" + (E.Lhs ? dump(*E.Lhs) : "?") + " " + binOpSpelling(E.BO) +
           " " + (E.Rhs ? dump(*E.Rhs) : "?") + ")";
  case ExprKind::Unary:
    return std::string(E.UO == UnOp::Neg ? "-" : "!") +
           (E.Sub ? dump(*E.Sub) : "?");
  }
  return "?";
}

namespace {

void dumpStmts(const std::vector<Stmt> &List, unsigned Indent,
               std::ostringstream &OS) {
  auto Line = [&](const std::string &S) {
    for (unsigned I = 0; I != Indent; ++I)
      OS << "  ";
    OS << S << "\n";
  };
  for (const Stmt &S : List) {
    switch (S.K) {
    case StmtKind::Let:
      if (S.Width == 2) {
        Line(strfmt("let2 %s %s, %s = %s", cppScalarType(S.Elem),
                    S.Name.c_str(), S.Name2.c_str(),
                    S.Value ? kir::dump(*S.Value).c_str() : "?"));
        break;
      }
      Line(strfmt("let%s %s %s = %s", S.SpillReload ? ".reload" : "",
                  cppScalarType(S.Elem), S.Name.c_str(),
                  S.Value ? kir::dump(*S.Value).c_str() : "?"));
      break;
    case StmtKind::LetIndex:
      Line("idx " + S.Name + " = " + S.Index.simplified().str());
      break;
    case StmtKind::Assign:
      Line(S.Name + " = " + (S.Value ? kir::dump(*S.Value) : "?"));
      break;
    case StmtKind::Store:
      if (S.Width == 2) {
        Line(strfmt("st2 %s %s[%s] = %s, %s", memoryName(S.Ref.Space),
                    S.Ref.Name.c_str(), S.Index.simplified().str().c_str(),
                    S.Value ? kir::dump(*S.Value).c_str() : "?",
                    S.Value2 ? kir::dump(*S.Value2).c_str() : "?"));
        break;
      }
      Line(strfmt("st%s %s %s[%s] = %s", S.SpillReload ? ".spill" : "",
                  memoryName(S.Ref.Space), S.Ref.Name.c_str(),
                  S.Index.simplified().str().c_str(),
                  S.Value ? kir::dump(*S.Value).c_str() : "?"));
      break;
    case StmtKind::If:
      Line("if " + S.CondL.simplified().str() + " < " +
           S.CondR.simplified().str() + " {");
      dumpStmts(S.Then, Indent + 1, OS);
      Line("} else {");
      dumpStmts(S.Else, Indent + 1, OS);
      Line("}");
      break;
    case StmtKind::For:
      Line("for " + S.Name + " in [" + S.Lo.simplified().str() + ".." +
           S.Hi.simplified().str() + ") {");
      dumpStmts(S.Body, Indent + 1, OS);
      Line("}");
      break;
    case StmtKind::Barrier:
      Line("barrier");
      break;
    }
  }
}

} // namespace

std::string kir::dump(const std::vector<Stmt> &Stmts, unsigned Indent) {
  std::ostringstream OS;
  dumpStmts(Stmts, Indent, OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

namespace {

class Verifier {
public:
  explicit Verifier(const VerifyOptions &Opts) : Opts(Opts) {
    Scopes.emplace_back(Opts.DefinedVars.begin(), Opts.DefinedVars.end());
  }

  bool run(const std::vector<Stmt> &List, std::string &Err) {
    stmts(List, /*IfDepth=*/0);
    Err = Error;
    return Error.empty();
  }

private:
  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }

  bool defined(const std::string &Name) const {
    for (const auto &Scope : Scopes)
      if (Scope.count(Name))
        return true;
    return false;
  }

  bool definedInCurrentScope(const std::string &Name) const {
    return Scopes.back().count(Name) != 0;
  }

  void define(const std::string &Name) { Scopes.back().insert(Name); }

  void checkNat(const Nat &N, const char *What) {
    if (N.isNull()) {
      fail(std::string("missing ") + What);
      return;
    }
    if (containsNonShiftablePow(N)) {
      fail(std::string(What) + " contains an unprintable pow: " + N.str());
      return;
    }
    std::vector<std::string> Vars;
    N.simplified().collectVars(Vars);
    for (const std::string &V : Vars)
      if (!defined(V))
        fail(std::string("undefined variable `") + V + "` in " + What + ": " +
             N.str());
  }

  void checkRef(const MemRef &Ref, bool IsStore) {
    if (Ref.Name.empty()) {
      fail("memory reference without a buffer name");
      return;
    }
    if (Ref.Elem == ScalarKind::Unit) {
      fail("memory reference `" + Ref.Name + "` with unit element type");
      return;
    }
    // A store whose "buffer" is actually a defined scalar/index variable
    // is malformed (assignments to locals are Assign, and Nat variables
    // are not memory at all).
    if (Ref.Space != MemSpace::Arena && defined(Ref.Name)) {
      fail(std::string(IsStore ? "store to" : "load from") +
           " the non-memory name `" + Ref.Name + "`");
      return;
    }
    if (Opts.CheckBuffers && Ref.Space != MemSpace::Arena) {
      auto It = Opts.Buffers.find(Ref.Name);
      if (It == Opts.Buffers.end())
        fail("unknown buffer `" + Ref.Name + "`");
      else if (It->second != Ref.Space)
        fail("buffer `" + Ref.Name + "` accessed as " +
             memoryName(Ref.Space) + " but allocated in " +
             memoryName(It->second));
    }
  }

  void expr(const Expr &E) {
    switch (E.K) {
    case ExprKind::NatVal:
      checkNat(E.N, "nat value");
      return;
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::BoolLit:
    case ExprKind::UnitLit:
      return;
    case ExprKind::VarRef:
      if (!defined(E.Name))
        fail("reference to undefined variable `" + E.Name + "`");
      return;
    case ExprKind::Load:
      checkRef(E.Ref, /*IsStore=*/false);
      checkNat(E.Index, "load index");
      return;
    case ExprKind::Binary:
      if (!E.Lhs || !E.Rhs) {
        fail("binary expression with a missing operand");
        return;
      }
      expr(*E.Lhs);
      expr(*E.Rhs);
      return;
    case ExprKind::Unary:
      if (!E.Sub) {
        fail("unary expression with a missing operand");
        return;
      }
      expr(*E.Sub);
      return;
    }
  }

  void stmts(const std::vector<Stmt> &List, unsigned IfDepth) {
    for (const Stmt &S : List) {
      if (!Error.empty())
        return;
      switch (S.K) {
      case StmtKind::Let:
        if (!S.Value) {
          fail("let `" + S.Name + "` without an initializer");
          break;
        }
        expr(*S.Value);
        if (S.Elem == ScalarKind::Unit)
          fail("let `" + S.Name + "` of unit type");
        if (S.Width == 2) {
          if (S.Value->K != ExprKind::Load)
            fail("wide let `" + S.Name + "` whose initializer is not a load");
          else if (S.Value->Ref.Space == MemSpace::Arena)
            fail("wide let `" + S.Name + "` from the per-thread arena");
          else if (S.Value->Ref.Elem != ScalarKind::F32 &&
                   S.Value->Ref.Elem != ScalarKind::F64)
            fail("wide let `" + S.Name + "` of a non-float element type");
          if (S.Name2.empty())
            fail("wide let `" + S.Name + "` without a second target");
          else if (definedInCurrentScope(S.Name2) || S.Name2 == S.Name)
            fail("redefinition of `" + S.Name2 + "` in the same scope");
        } else if (S.Width != 1) {
          fail("let `" + S.Name + "` with unsupported width");
        }
        if (definedInCurrentScope(S.Name))
          fail("redefinition of `" + S.Name + "` in the same scope");
        define(S.Name);
        if (S.Width == 2 && !S.Name2.empty())
          define(S.Name2);
        break;
      case StmtKind::LetIndex:
        checkNat(S.Index, "index let");
        if (definedInCurrentScope(S.Name))
          fail("redefinition of `" + S.Name + "` in the same scope");
        define(S.Name);
        break;
      case StmtKind::Assign:
        if (!defined(S.Name))
          fail("assignment to undefined variable `" + S.Name + "`");
        if (S.Value)
          expr(*S.Value);
        else
          fail("assignment without a value");
        break;
      case StmtKind::Store:
        checkRef(S.Ref, /*IsStore=*/true);
        checkNat(S.Index, "store index");
        if (S.Value)
          expr(*S.Value);
        else
          fail("store without a value");
        if (S.Width == 2) {
          if (S.Ref.Space == MemSpace::Arena)
            fail("wide store to the per-thread arena");
          else if (S.Ref.Elem != ScalarKind::F32 &&
                   S.Ref.Elem != ScalarKind::F64)
            fail("wide store of a non-float element type");
          if (S.Value2)
            expr(*S.Value2);
          else
            fail("wide store without a second value");
        } else if (S.Width != 1) {
          fail("store with unsupported width");
        }
        break;
      case StmtKind::If:
        checkNat(S.CondL, "if condition");
        checkNat(S.CondR, "if condition");
        Scopes.emplace_back();
        stmts(S.Then, IfDepth + 1);
        Scopes.pop_back();
        Scopes.emplace_back();
        stmts(S.Else, IfDepth + 1);
        Scopes.pop_back();
        break;
      case StmtKind::For:
        if (S.Name.empty()) {
          fail("for loop without a variable name");
          break;
        }
        checkNat(S.Lo, "loop bound");
        checkNat(S.Hi, "loop bound");
        Scopes.emplace_back();
        define(S.Name);
        stmts(S.Body, IfDepth);
        Scopes.pop_back();
        break;
      case StmtKind::Barrier:
        if (!Opts.AllowBarriers)
          fail("barrier in a context that does not admit barriers");
        else if (IfDepth != 0)
          fail("barrier inside a thread-divergent branch");
        break;
      }
    }
  }

  const VerifyOptions &Opts;
  std::vector<std::set<std::string>> Scopes;
  std::string Error;
};

} // namespace

bool kir::verify(const std::vector<Stmt> &Stmts, const VerifyOptions &Opts,
                 std::string &Err) {
  return Verifier(Opts).run(Stmts, Err);
}

//===----------------------------------------------------------------------===//
// Thread splits
//===----------------------------------------------------------------------===//

bool kir::threadSplit(const std::vector<Stmt> &PhaseBody, ThreadSplit &Out) {
  if (PhaseBody.empty() || PhaseBody.back().K != StmtKind::If)
    return false;
  const size_t Prefix = PhaseBody.size() - 1;
  std::set<std::string> PerThread = {"_tx", "_ty", "_tz", "_lin"};
  for (size_t I = 0; I != Prefix; ++I) {
    if (PhaseBody[I].K != StmtKind::LetIndex)
      return false;
    PerThread.insert(PhaseBody[I].Name);
  }
  const Stmt &Guard = PhaseBody.back();
  const Nat L = Guard.CondL.simplified();
  if (L.kind() != NatKind::Var)
    return false;
  static const char *const Coords[] = {"_tx", "_ty", "_tz"};
  const auto *Coord = std::find(std::begin(Coords), std::end(Coords),
                                L.varName());
  if (Coord == std::end(Coords))
    return false;
  std::vector<std::string> BoundVars;
  Guard.CondR.simplified().collectVars(BoundVars);
  for (const std::string &V : BoundVars)
    if (PerThread.count(V))
      return false;
  Out.Dim = static_cast<unsigned>(Coord - std::begin(Coords));
  Out.Prefix = Prefix;
  Out.Guard = &Guard;
  return true;
}

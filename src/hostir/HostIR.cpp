//===- hostir/HostIR.cpp - Host-program lowering -----------------------------===//

#include "hostir/HostIR.h"

#include "ast/Item.h"
#include "codegen/Lowerer.h" // arrayNest

#include <algorithm>
#include <map>

namespace descend::hostir {
namespace {

/// Result kind of a binary host operation: comparisons and logic give
/// bool, arithmetic promotes i64 < f32 < f64 (the C++ usual conversions
/// the printed drivers follow).
ScalarKind binaryKind(BinOpKind Op, ScalarKind L, ScalarKind R) {
  switch (Op) {
  case BinOpKind::Eq:
  case BinOpKind::Ne:
  case BinOpKind::Lt:
  case BinOpKind::Le:
  case BinOpKind::Gt:
  case BinOpKind::Ge:
  case BinOpKind::And:
  case BinOpKind::Or:
    return ScalarKind::Bool;
  default:
    break;
  }
  if (L == ScalarKind::F64 || R == ScalarKind::F64)
    return ScalarKind::F64;
  if (L == ScalarKind::F32 || R == ScalarKind::F32)
    return ScalarKind::F32;
  return ScalarKind::I64;
}

/// Element count of an array nest, simplified.
Nat countOf(const std::vector<Nat> &Dims) {
  Nat Count = Nat::lit(1);
  for (const Nat &D : Dims)
    Count = Count * D;
  return Count.simplified();
}

class Lowering {
public:
  Lowering(const Module &M, const FnDef &Fn) : M(M), Fn(Fn) {}

  LowerResult run();

private:
  const Module &M;
  const FnDef &Fn;
  Function R;
  std::string Error;
  std::vector<std::map<std::string, unsigned>> Scopes;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  unsigned bind(const std::string &Name, Var V) {
    V.Name = Name;
    const unsigned Slot = static_cast<unsigned>(R.Slots.size());
    R.Slots.push_back(std::move(V));
    Scopes.back()[Name] = Slot;
    return Slot;
  }

  const Var *lookup(const std::string &Name, unsigned &Slot) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->find(Name); Found != It->end()) {
        Slot = Found->second;
        return &R.Slots[Found->second];
      }
    return nullptr;
  }

  /// The variable a (borrowed) place argument is rooted at; null for
  /// anything else (the callers report the error with context).
  const Var *rootVar(const descend::Expr &E, unsigned &Slot) const {
    const descend::Expr *Inner = &E;
    if (const auto *B = dyn_cast<BorrowExpr>(Inner))
      Inner = B->Place.get();
    const auto *P = dyn_cast<PlaceExpr>(Inner);
    return P ? lookup(P->rootVar(), Slot) : nullptr;
  }

  static bool isBuffer(const Var &V) {
    return V.K == Var::HostArr || V.K == Var::DevArr;
  }

  static std::unique_ptr<Expr> slotExpr(unsigned Slot, ScalarKind Ty) {
    auto X = std::make_unique<Expr>();
    X->K = Expr::Slot;
    X->SlotIdx = Slot;
    X->Ty = Ty;
    return X;
  }

  bool place(const PlaceExpr &P, unsigned &Root, std::unique_ptr<Expr> &Idx);
  std::unique_ptr<Expr> expr(const descend::Expr &E);
  std::unique_ptr<Expr> callArg(const descend::Expr &E);

  bool params();
  bool block(const BlockExpr &Blk, std::vector<Stmt> &Out);
  bool stmt(const descend::Expr &E, std::vector<Stmt> &Out);
  bool let(const LetExpr &L, std::vector<Stmt> &Out);
  bool call(const CallExpr &C, std::vector<Stmt> &Out);
  bool launch(const CallExpr &C, std::vector<Stmt> &Out);
  bool forNat(const ForNatExpr &F, std::vector<Stmt> &Out);
};

bool Lowering::params() {
  if (Fn.RetTy && !DataType::equal(Fn.RetTy, makeUnit()))
    return fail("host functions must return (), `" + Fn.Name + "` returns `" +
                Fn.RetTy->str() + "`");
  for (const FnParam &P : Fn.Params) {
    Var V;
    V.IsParam = true;
    if (const auto *Ref = dyn_cast<RefType>(P.Ty.get())) {
      std::vector<Nat> Dims;
      if (!codegen::arrayNest(Ref->Pointee, Dims, V.Elem))
        return fail("unsupported host parameter type `" + P.Ty->str() + "`");
      V.Count = countOf(Dims);
      V.Shared = Ref->Own == Ownership::Shrd;
      if (Ref->Mem.Kind == MemoryKind::CpuMem)
        V.K = Var::HostArr;
      else if (Ref->Mem.Kind == MemoryKind::GpuGlobal)
        V.K = Var::DevArr;
      else
        return fail("unsupported host parameter memory `" + Ref->Mem.str() +
                    "`");
    } else if (const auto *S = dyn_cast<ScalarType>(P.Ty.get())) {
      V.K = Var::Scalar;
      V.Elem = S->Scalar;
    } else {
      return fail("unsupported host parameter type `" + P.Ty->str() + "`");
    }
    bind(P.Name, std::move(V));
  }
  R.NumParams = static_cast<unsigned>(R.Slots.size());
  return true;
}

/// Walks \p P root to leaf: derefs are implicit (buffers index directly),
/// at most one index is allowed.
bool Lowering::place(const PlaceExpr &P, unsigned &Root,
                     std::unique_ptr<Expr> &Idx) {
  std::vector<const PlaceExpr *> Chain;
  for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
    Chain.push_back(Cur);
  std::reverse(Chain.begin(), Chain.end());

  for (const PlaceExpr *Step : Chain) {
    switch (Step->kind()) {
    case ExprKind::PlaceVar: {
      const auto *V = cast<PlaceVar>(Step);
      if (!lookup(V->Name, Root))
        return fail("unknown host variable `" + V->Name + "`");
      break;
    }
    case ExprKind::PlaceDeref:
      break;
    case ExprKind::PlaceIndex:
      if (Idx)
        return fail("place `" + P.str() + "` indexes more than one dimension");
      Idx = expr(*cast<PlaceIndex>(Step)->Index);
      if (!Idx)
        return false;
      break;
    default:
      return fail("place `" + P.str() + "` is not addressable in host code");
    }
  }
  return true;
}

std::unique_ptr<Expr> Lowering::expr(const descend::Expr &E) {
  switch (E.kind()) {
  case ExprKind::Literal: {
    const auto *L = cast<LiteralExpr>(&E);
    auto X = std::make_unique<Expr>();
    X->Ty = L->Scalar;
    X->F = L->FloatValue;
    X->I = L->Scalar == ScalarKind::Bool ? (L->BoolValue ? 1 : 0) : L->IntValue;
    return X;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    auto L = expr(*B->Lhs);
    auto Rhs = expr(*B->Rhs);
    if (!L || !Rhs)
      return nullptr;
    auto X = std::make_unique<Expr>();
    X->K = Expr::Binary;
    X->BO = B->Op;
    X->Ty = binaryKind(B->Op, L->Ty, Rhs->Ty);
    X->L = std::move(L);
    X->R = std::move(Rhs);
    return X;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    auto S = expr(*U->Sub);
    if (!S)
      return nullptr;
    auto X = std::make_unique<Expr>();
    X->K = Expr::Unary;
    X->UO = U->Op;
    X->Ty = U->Op == UnOpKind::Not ? ScalarKind::Bool : S->Ty;
    X->L = std::move(S);
    return X;
  }
  case ExprKind::PlaceVar:
  case ExprKind::PlaceDeref:
  case ExprKind::PlaceIndex: {
    const auto &P = *cast<PlaceExpr>(&E);
    unsigned Root = 0;
    std::unique_ptr<Expr> Idx;
    if (!place(P, Root, Idx))
      return nullptr;
    const Var &V = R.Slots[Root];
    if (!Idx) {
      if (isBuffer(V)) {
        fail("place `" + P.str() + "` reads a whole buffer as a scalar");
        return nullptr;
      }
      return slotExpr(Root, V.Elem);
    }
    if (V.K != Var::HostArr) {
      fail("place `" + P.str() + "` indexes a non-host-memory buffer");
      return nullptr;
    }
    auto X = slotExpr(Root, V.Elem);
    X->K = Expr::Index;
    X->L = std::move(Idx);
    return X;
  }
  default:
    fail("unsupported host expression: " + exprToString(E));
    return nullptr;
  }
}

/// A host-call argument: a (borrowed) buffer variable passes the buffer,
/// anything else is a scalar expression.
std::unique_ptr<Expr> Lowering::callArg(const descend::Expr &E) {
  const descend::Expr *Inner = &E;
  if (const auto *B = dyn_cast<BorrowExpr>(Inner))
    Inner = B->Place.get();
  if (const auto *P = dyn_cast<PlaceExpr>(Inner)) {
    unsigned Root = 0;
    std::unique_ptr<Expr> Idx;
    if (!place(*P, Root, Idx))
      return nullptr;
    if (!Idx && isBuffer(R.Slots[Root]))
      return slotExpr(Root, R.Slots[Root].Elem);
  }
  return expr(*Inner);
}

bool Lowering::let(const LetExpr &L, std::vector<Stmt> &Out) {
  Stmt S;
  Var V;
  if (const auto *C = dyn_cast<CallExpr>(L.Init.get());
      C && C->Callee == "CpuHeap::new") {
    const auto *Init = dyn_cast<ArrayInitExpr>(
        C->Args.empty() ? nullptr : C->Args[0].get());
    if (!Init)
      return fail("CpuHeap::new expects an array initializer `[v; n]`");
    if (const auto *Ty = dyn_cast_if_present<ScalarType>(Init->Elem->Ty.get()))
      V.Elem = Ty->Scalar;
    else if (const auto *Lit = dyn_cast<LiteralExpr>(Init->Elem.get()))
      V.Elem = Lit->Scalar;
    S.Val = expr(*Init->Elem);
    if (!S.Val)
      return false;
    S.K = Stmt::AllocHost;
    V.K = Var::HostArr;
    V.Count = Init->Count.simplified();
  } else if (C && C->Callee == "GpuGlobal::alloc_copy") {
    const Var *SrcVar =
        C->Args.empty() ? nullptr : rootVar(*C->Args[0], S.Src);
    if (!SrcVar || SrcVar->K != Var::HostArr)
      return fail("GpuGlobal::alloc_copy expects a reference to a host "
                  "buffer variable");
    S.K = Stmt::AllocCopy;
    V.K = Var::DevArr;
    V.Elem = SrcVar->Elem;
    V.Count = SrcVar->Count;
  } else if (const auto *A = dyn_cast<AllocExpr>(L.Init.get())) {
    // alloc::<cpu.mem, [T; n]>() — zero-initialized host heap array.
    std::vector<Nat> Dims;
    if (A->Mem.Kind != MemoryKind::CpuMem ||
        !codegen::arrayNest(A->AllocTy, Dims, V.Elem))
      return fail("unsupported host allocation: " + exprToString(*L.Init));
    S.K = Stmt::AllocHost;
    V.K = Var::HostArr;
    V.Count = countOf(Dims);
  } else {
    S.Val = expr(*L.Init);
    if (!S.Val)
      return false;
    if (const auto *Ty = dyn_cast_if_present<ScalarType>(
            (L.Annotation ? L.Annotation : L.Init->Ty).get()))
      V.Elem = Ty->Scalar;
    else if (const auto *Lit = dyn_cast<LiteralExpr>(L.Init.get()))
      V.Elem = Lit->Scalar;
    S.K = Stmt::LetScalar;
  }
  S.Dst = bind(L.Name, std::move(V));
  Out.push_back(std::move(S));
  return true;
}

bool Lowering::launch(const CallExpr &C, std::vector<Stmt> &Out) {
  Stmt S;
  S.K = Stmt::Launch;
  S.Callee = C.Callee;
  S.GridDim = C.LaunchGrid;
  S.BlockDim = C.LaunchBlock;
  for (const ExprPtr &A : C.Args) {
    unsigned Slot = 0;
    const Var *V = rootVar(*A, Slot);
    if (!V)
      return fail("kernel launch arguments must be buffer variable "
                  "references");
    if (V->K != Var::DevArr)
      return fail("kernel launch argument `" + V->Name +
                  "` is not a device buffer");
    S.Bufs.push_back(Slot);
  }
  Out.push_back(std::move(S));
  return true;
}

bool Lowering::call(const CallExpr &C, std::vector<Stmt> &Out) {
  if (C.IsLaunch)
    return launch(C, Out);

  if (C.Callee == "copy_mem_to_host" || C.Callee == "copy_to_gpu") {
    const bool ToHost = C.Callee == "copy_mem_to_host";
    if (C.Args.size() != 2)
      return fail("`" + C.Callee + "` expects two arguments");
    Stmt S;
    S.K = ToHost ? Stmt::CopyToHost : Stmt::CopyToGpu;
    const Var *DstVar = rootVar(*C.Args[0], S.Dst);
    const Var *SrcVar = rootVar(*C.Args[1], S.Src);
    if (!DstVar || !SrcVar)
      return fail("`" + C.Callee + "` expects buffer variable references");
    if (DstVar->K != (ToHost ? Var::HostArr : Var::DevArr) ||
        SrcVar->K != (ToHost ? Var::DevArr : Var::HostArr))
      return fail("`" + C.Callee + "`: arguments have the wrong memory "
                  "spaces");
    Out.push_back(std::move(S));
    return true;
  }

  const FnDef *Callee = M.findFn(C.Callee);
  if (!Callee || !Callee->isCpuFn())
    return fail("unsupported host call: " + C.Callee);
  if (!Callee->Body)
    return fail("host call of `" + C.Callee + "` which has no body");
  Stmt S;
  S.K = Stmt::Call;
  S.Callee = C.Callee;
  for (const ExprPtr &A : C.Args) {
    auto X = callArg(*A);
    if (!X)
      return false;
    S.Args.push_back(std::move(*X));
  }
  Out.push_back(std::move(S));
  return true;
}

bool Lowering::forNat(const ForNatExpr &F, std::vector<Stmt> &Out) {
  Stmt S;
  S.K = Stmt::ForNat;
  S.Lo = F.Lo.simplified();
  S.Hi = F.Hi.simplified();
  Scopes.emplace_back();
  Var V;
  V.K = Var::LoopVar;
  V.Elem = ScalarKind::I64;
  S.Dst = bind(F.Var, std::move(V));
  bool Ok = F.Body->kind() == ExprKind::Block
                ? block(*cast<BlockExpr>(F.Body.get()), S.Body)
                : stmt(*F.Body, S.Body);
  Scopes.pop_back();
  if (Ok)
    Out.push_back(std::move(S));
  return Ok;
}

bool Lowering::stmt(const descend::Expr &E, std::vector<Stmt> &Out) {
  switch (E.kind()) {
  case ExprKind::Let:
    return let(*cast<LetExpr>(&E), Out);
  case ExprKind::Call:
    return call(*cast<CallExpr>(&E), Out);
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(&E);
    Stmt S;
    S.K = Stmt::Assign;
    if (!place(*A->Lhs, S.Dst, S.Idx))
      return false;
    const Var::Kind K = R.Slots[S.Dst].K;
    if (S.Idx && K != Var::HostArr)
      return fail("assignment target `" + A->Lhs->str() +
                  "` is not a host-memory buffer");
    if (!S.Idx && isBuffer(R.Slots[S.Dst]))
      return fail("assignment target `" + A->Lhs->str() +
                  "` is not a scalar");
    S.Val = expr(*A->Rhs);
    if (!S.Val)
      return false;
    Out.push_back(std::move(S));
    return true;
  }
  case ExprKind::ForNat:
    return forNat(*cast<ForNatExpr>(&E), Out);
  case ExprKind::Block: {
    Stmt S;
    S.K = Stmt::Block;
    Scopes.emplace_back();
    bool Ok = block(*cast<BlockExpr>(&E), S.Body);
    Scopes.pop_back();
    if (Ok)
      Out.push_back(std::move(S));
    return Ok;
  }
  default:
    return fail("unsupported host statement: " + exprToString(E));
  }
}

bool Lowering::block(const BlockExpr &Blk, std::vector<Stmt> &Out) {
  for (const ExprPtr &S : Blk.Stmts)
    if (!stmt(*S, Out))
      return false;
  return true;
}

LowerResult Lowering::run() {
  LowerResult Res;
  if (!Fn.isCpuFn()) {
    Res.Error = "`" + Fn.Name + "` is not a cpu.thread function";
    return Res;
  }
  R.Name = Fn.Name;
  R.Signature = Fn.signature();
  Scopes.emplace_back();
  bool Ok = params();
  if (Ok && Fn.Body)
    Ok = block(*cast<BlockExpr>(Fn.Body.get()), R.Body);
  if (!Ok) {
    Res.Error = Error.empty() ? "host lowering failed" : Error;
    return Res;
  }
  Res.Ok = true;
  Res.Fn = std::move(R);
  return Res;
}

} // namespace

LowerResult lower(const Module &M, const FnDef &Fn) {
  return Lowering(M, Fn).run();
}

} // namespace descend::hostir

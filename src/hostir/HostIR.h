//===- hostir/HostIR.h - Lowered host programs ------------------*- C++ -*-===//
//
// Part of the Descend reproduction. The one lowering of the *host* side of
// a Descend program (Sections 2.3 / 3.4 / 3.5): a type-checked
// `cpu.thread` function — lets, heap and device allocations, transfers
// between cpu.mem and gpu.global, kernel launches with an explicit
// execution configuration, for-nat loops, scalar arithmetic and host-array
// assignment — becomes a small statement tree over numbered frame slots.
//
// lower() is the only code that reads host AST. Every acceptance rule and
// diagnostic of the host fragment lives there; its consumers only print
// or resolve the result:
//
//   hostgen   prints the IR as a C++ driver for the sim (sync, stream and
//             graph overloads) and cuda targets.
//   vm        evaluates every size and bound, maps kernel and callee names
//             to indices, and interprets the result.
//
// Sizes and loop bounds stay simplified Nats (the C++ printers spell them
// symbolically when no -D instantiated them), and every slot keeps its
// source name (the printers spell variables and rt:: error strings with
// it).
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_HOSTIR_HOSTIR_H
#define DESCEND_HOSTIR_HOSTIR_H

#include "ast/Expr.h" // BinOpKind, UnOpKind
#include "ast/Type.h" // ScalarKind, Dim
#include "nat/Nat.h"

#include <memory>
#include <string>
#include <vector>

namespace descend {

class FnDef;
class Module;

namespace hostir {

/// One frame slot: a parameter, a let-bound local or a for-nat loop
/// variable. Parameters occupy the first slots, locals follow in
/// definition order.
struct Var {
  enum Kind { HostArr, DevArr, Scalar, LoopVar } K = Scalar;
  std::string Name;
  ScalarKind Elem = ScalarKind::F64; ///< LoopVar: always I64
  Nat Count;                         ///< HostArr / DevArr element count
  bool IsParam = false;
  bool Shared = false; ///< parameter bound through a shared reference
};

/// A scalar host expression: a literal, a scalar slot, one element of a
/// host array, or arithmetic over those.
struct Expr {
  enum Kind { Lit, Slot, Index, Binary, Unary } K = Lit;
  ScalarKind Ty = ScalarKind::F64; ///< result kind
  double F = 0;                    ///< Lit of a float kind
  long long I = 0;                 ///< Lit of any other kind (bools 0/1)
  unsigned SlotIdx = 0;            ///< Slot; Index: the array
  std::unique_ptr<Expr> L, R;      ///< Binary; Unary and Index use L
  BinOpKind BO = BinOpKind::Add;
  UnOpKind UO = UnOpKind::Neg;
};

/// One statement. Allocations, lets and loops define their Dst slot.
struct Stmt {
  enum Kind {
    AllocHost,  ///< Dst = host array of Slots[Dst].Count, filled with Val
                ///< (zero-initialized when Val is null)
    AllocCopy,  ///< Dst = device buffer copied from host array Src
    CopyToHost, ///< host array Dst <- device buffer Src
    CopyToGpu,  ///< device buffer Dst <- host array Src
    Launch,     ///< Callee<<<GridDim, BlockDim>>>(Bufs...)
    LetScalar,  ///< Dst = Val
    Assign,     ///< Dst[Idx] = Val; the scalar Dst itself when Idx is null
    ForNat,     ///< for Dst in [Lo..Hi) run Body
    Call,       ///< Callee(Args...), another host function of the module
    Block,      ///< a nested scope
  } K = LetScalar;

  unsigned Dst = 0, Src = 0;
  std::unique_ptr<Expr> Val, Idx;
  std::string Callee;         ///< Launch: the kernel; Call: the host function
  Dim GridDim, BlockDim;      ///< Launch
  std::vector<unsigned> Bufs; ///< Launch: device-buffer slots
  std::vector<Expr> Args;     ///< Call: a buffer argument is a Slot of its
                              ///< HostArr / DevArr slot
  Nat Lo, Hi;                 ///< ForNat
  std::vector<Stmt> Body;     ///< ForNat / Block
};

/// One lowered cpu.thread function.
struct Function {
  std::string Name;       ///< source name (`main` stays `main`)
  std::string Signature;  ///< FnDef::signature()
  unsigned NumParams = 0; ///< Slots[0, NumParams) are the parameters
  std::vector<Var> Slots;
  std::vector<Stmt> Body;
};

struct LowerResult {
  bool Ok = false;
  Function Fn;
  std::string Error; ///< set when !Ok
};

/// Lowers \p Fn, a cpu.thread function of \p M that passed the type
/// checker. Rejects everything outside the host fragment with a
/// descriptive error.
LowerResult lower(const Module &M, const FnDef &Fn);

} // namespace hostir
} // namespace descend

#endif // DESCEND_HOSTIR_HOSTIR_H

//===- kir/KIR.h - Typed kernel IR ------------------------------*- C++ -*-===//
//
// Part of the Descend reproduction. The kernel IR (KIR) is the typed
// statement/expression representation every kernel lowers into (Section 5
// erasure, but structured): loads and stores tagged with the memory space
// they touch, Nat-valued index expressions, scalar lets and assignments,
// conditionals over coordinate predicates, counted loops and barrier
// markers. The Lowerer builds KIR; the phase-program IR holds KIR
// statement vectors as its phase bodies; the backends are *printers* over
// the same KIR and differ only in how accesses and function shells are
// spelled (kir::CppStyle).
//
// Because statements are data instead of concatenated C++ text, passes
// can rewrite them (kir/Passes.h: index CSE, redundant-barrier and dead
// spill-pair elision) and kir::verify() can structurally check every
// lowered kernel before anything is emitted.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_KIR_KIR_H
#define DESCEND_KIR_KIR_H

#include "ast/Type.h" // ScalarKind
#include "nat/Nat.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace descend {
namespace kir {

/// C++ spelling of a Descend scalar type.
const char *cppScalarType(ScalarKind K);

/// C++ literal for a float value of kind \p K (F32 gets the 'f' suffix).
std::string floatLiteral(double V, ScalarKind K);

//===----------------------------------------------------------------------===//
// Memory references
//===----------------------------------------------------------------------===//

/// Which memory a load/store touches.
enum class MemSpace {
  Global, ///< gpu.global buffer (kernel parameter)
  Shared, ///< gpu.shared allocation (block-wide)
  Arena,  ///< per-thread spill slot in the simulator's block arena
};

const char *memoryName(MemSpace M);

/// A reference to one buffer in one memory space. The flat element index
/// lives on the Load/Store, not here.
struct MemRef {
  MemSpace Space = MemSpace::Global;
  std::string Name;                  ///< buffer (Global/Shared) or local (Arena)
  ScalarKind Elem = ScalarKind::F64;
  size_t ByteBase = 0; ///< Shared/Arena: byte offset inside the block arena
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  NatVal,   ///< a Nat used as a scalar value (loop variables, sizes)
  IntLit,
  FloatLit,
  BoolLit,
  UnitLit,
  VarRef,   ///< scalar local variable
  Load,     ///< memory read: Ref[Index]
  Binary,
  Unary,
};

enum class BinOp { Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or };
enum class UnOp { Neg, Not };

const char *binOpSpelling(BinOp O);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind K = ExprKind::IntLit;

  Nat N;                                 // NatVal
  long long IntVal = 0;                  // IntLit
  double FloatVal = 0.0;                 // FloatLit
  ScalarKind Scalar = ScalarKind::F64;   // IntLit/FloatLit element kind
  bool BoolVal = false;                  // BoolLit
  std::string Name;                      // VarRef
  MemRef Ref;                            // Load
  Nat Index;                             // Load: flat element index
  BinOp BO = BinOp::Add;                 // Binary
  UnOp UO = UnOp::Neg;                   // Unary
  ExprPtr Lhs, Rhs;                      // Binary
  ExprPtr Sub;                           // Unary

  static ExprPtr natVal(Nat N);
  static ExprPtr intLit(long long V, ScalarKind K = ScalarKind::I32);
  static ExprPtr floatLit(double V, ScalarKind K = ScalarKind::F64);
  static ExprPtr boolLit(bool V);
  static ExprPtr unitLit();
  static ExprPtr varRef(std::string Name);
  static ExprPtr load(MemRef Ref, Nat Index);
  static ExprPtr binary(BinOp O, ExprPtr L, ExprPtr R);
  static ExprPtr unary(UnOp O, ExprPtr S);

  ExprPtr clone() const;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  Let,      ///< scalar local definition: `T name = init;`
  LetIndex, ///< hoisted index computation: `const long long name = nat;`
  Assign,   ///< scalar local mutation: `name = value;`
  Store,    ///< memory write: `Ref[Index] = value;`
  If,       ///< coordinate predicate: `if (CondL < CondR) Then else Else`
  For,      ///< counted loop: `for (long long Name = Lo; Name < Hi; ++Name)`
  Barrier,  ///< block-wide barrier (__syncthreads in the CUDA spelling)
};

struct Stmt {
  StmtKind K = StmtKind::Barrier;

  std::string Name;                     // Let/LetIndex/Assign target, For var
  ScalarKind Elem = ScalarKind::F64;    // Let
  ExprPtr Value;                        // Let init / Assign / Store value
  MemRef Ref;                           // Store
  Nat Index;                            // Store index; LetIndex value
  /// Phase-edge spill (Store to Arena) or reload (Let from Arena): a pair
  /// in a phase that never otherwise touches the local is dead and the
  /// dead-spill pass removes it.
  bool SpillReload = false;
  /// Wide-access width: 1 = scalar (default), 2 = a fused two-element
  /// access produced by the vectorize schedule pass. A Width=2 Store
  /// writes Ref[Index] = Value and Ref[Index + 1] = Value2 as one issued
  /// transaction; a Width=2 Let loads Ref[Index]/[Index + 1] into
  /// Name/Name2.
  unsigned Width = 1;
  ExprPtr Value2;                       // Store (Width == 2): second value
  std::string Name2;                    // Let (Width == 2): second target
  Nat CondL, CondR;                     // If: CondL < CondR
  std::vector<Stmt> Then, Else;         // If
  Nat Lo, Hi;                           // For: half-open [Lo..Hi)
  std::vector<Stmt> Body;               // For

  static Stmt let(std::string Name, ScalarKind Elem, ExprPtr Init,
                  bool SpillReload = false);
  static Stmt letIndex(std::string Name, Nat Value);
  static Stmt assign(std::string Name, ExprPtr Value);
  static Stmt store(MemRef Ref, Nat Index, ExprPtr Value,
                    bool SpillReload = false);
  static Stmt ifLt(Nat CondL, Nat CondR);
  static Stmt forLoop(std::string Var, Nat Lo, Nat Hi);
  static Stmt barrier();
};

//===----------------------------------------------------------------------===//
// Printing: Nat -> C++, statements -> C++ (per-backend spelling)
//===----------------------------------------------------------------------===//

/// How one backend spells the parts of KIR that differ between targets:
/// memory accesses, barriers, and the raw coordinate variables. Everything
/// else (operators, literals, control flow) prints identically.
class CppStyle {
public:
  virtual ~CppStyle() = default;

  /// Spelling of a raw variable inside a Nat (e.g. `_bx` -> `blockIdx.x`
  /// for CUDA, identity for the simulator).
  virtual std::string mapVar(const std::string &V) const { return V; }

  /// Whether per-thread arena spill slots exist in this target. CUDA says
  /// no: registers survive barriers on real hardware, so an arena access
  /// reaching the CUDA printer is malformed IR.
  virtual bool allowsArena() const { return true; }

  /// Whether barrier statements exist in this target. The simulator says
  /// no: its phase boundary *is* the barrier, so a Barrier reaching the
  /// sim printer is malformed IR and printStmts fails on it.
  virtual bool allowsBarriers() const { return true; }

  /// rvalue spelling of a load; \p Idx is the already-rendered index.
  virtual std::string load(const MemRef &Ref, const std::string &Idx) const = 0;

  /// Full store statement (no trailing newline), `;` included.
  virtual std::string store(const MemRef &Ref, const std::string &Idx,
                            const std::string &Value) const = 0;

  /// Barrier statement, `;` included.
  virtual std::string barrier() const = 0;

  /// Wide (two-element) store: writes Ref[Idx] and Ref[Idx + 1] as one
  /// issued transaction. The base implementation falls back to two narrow
  /// stores (semantically equivalent, no transaction fusion).
  virtual std::string wideStore(const MemRef &Ref, const std::string &Idx,
                                const std::string &V0,
                                const std::string &V1) const;

  /// Wide (two-element) load into the fresh scalar locals \p N0 / \p N1,
  /// rendered as one or more full statements (`;` included). The base
  /// implementation falls back to two narrow load-lets.
  virtual std::vector<std::string> wideLet(const MemRef &Ref,
                                           const std::string &Idx,
                                           const std::string &N0,
                                           const std::string &N1) const;
};

/// CUDA spelling: `buf[idx]`, `__syncthreads();`, blockIdx/threadIdx
/// coordinates. Arena accesses are a hard error (registers survive
/// barriers on real hardware).
class CudaStyle : public CppStyle {
public:
  std::string mapVar(const std::string &V) const override;
  bool allowsArena() const override { return false; }
  std::string load(const MemRef &Ref, const std::string &Idx) const override;
  std::string store(const MemRef &Ref, const std::string &Idx,
                    const std::string &Value) const override;
  std::string barrier() const override;
  std::string wideStore(const MemRef &Ref, const std::string &Idx,
                        const std::string &V0,
                        const std::string &V1) const override;
  std::vector<std::string> wideLet(const MemRef &Ref, const std::string &Idx,
                                   const std::string &N0,
                                   const std::string &N1) const override;
};

/// Simulator spelling against sim/Sim.h: `buf.load(_b, idx)`,
/// `_b.sharedLoad<T>(base, idx)`, raw `_b.shared<T>(_locals_base + off)`
/// arena slots. Phase bodies never contain barriers (the phase boundary
/// is the barrier), so printing a Barrier with this style is an error.
class SimStyle : public CppStyle {
public:
  bool allowsBarriers() const override { return false; }
  std::string load(const MemRef &Ref, const std::string &Idx) const override;
  std::string store(const MemRef &Ref, const std::string &Idx,
                    const std::string &Value) const override;
  std::string barrier() const override;
  std::string wideStore(const MemRef &Ref, const std::string &Idx,
                        const std::string &V0,
                        const std::string &V1) const override;
  std::vector<std::string> wideLet(const MemRef &Ref, const std::string &Idx,
                                   const std::string &N0,
                                   const std::string &N1) const override;
};

/// Renders \p N as a C++ expression in \p Style: standard precedence,
/// variables mapped through the style, and `2^e` emitted as a shift
/// (`(1ll << e)`) so pow-of-2 strides stay symbolic. A Pow whose base is
/// not the literal 2 is unprintable: returns "0" and sets \p Err.
std::string natToCpp(const Nat &N, const CppStyle &Style,
                     std::string *Err = nullptr);

/// True when \p N contains a Pow node that natToCpp cannot print (base is
/// not the literal 2). Such nats must be constant-folded (unrolled)
/// before code generation.
bool containsNonShiftablePow(const Nat &N);

/// True when \p N contains any Pow node at all. Host-side size
/// expressions (hostgen) must be fully folded and reject these.
bool containsPow(const Nat &N);

/// Renders a statement list as indented C++ (two spaces per level,
/// starting at \p Indent levels). Returns false and sets \p Err on
/// unprintable IR (e.g. non-shiftable pow, arena access in CUDA).
bool printStmts(const std::vector<Stmt> &Stmts, const CppStyle &Style,
                unsigned Indent, std::string &Out, std::string &Err);

/// Backend-neutral structural dump (one statement per line), used by
/// `descendc --dump-kir` and the tests.
std::string dump(const std::vector<Stmt> &Stmts, unsigned Indent = 0);
std::string dump(const Expr &E);

//===----------------------------------------------------------------------===//
// Thread splits
//===----------------------------------------------------------------------===//

/// A phase body that is a guard on one thread coordinate, which the
/// simulator runs as two thread sub-ranges (sim::split) instead of
/// testing every thread.
struct ThreadSplit {
  unsigned Dim = 0;       ///< the guarded coordinate: 0 `_tx`, 1 `_ty`, 2 `_tz`
  size_t Prefix = 0;      ///< leading LetIndex statements, run on both sides
  const Stmt *Guard = nullptr; ///< the If; Guard->CondR is the split position
};

/// Matches a phase body of the form `LetIndex* If` whose If compares
/// exactly a thread coordinate (`_tx`/`_ty`/`_tz`) against a bound that
/// reads no thread coordinate, no `_lin` and none of the prefix's
/// LetIndex names — so the bound is one value per block and phase run.
/// Returns false (leaving \p Out untouched) for any other body.
bool threadSplit(const std::vector<Stmt> &PhaseBody, ThreadSplit &Out);

//===----------------------------------------------------------------------===//
// Structural verification
//===----------------------------------------------------------------------===//

/// What the verifier should assume about the context of a statement list.
struct VerifyOptions {
  /// Barriers legal at all? (CUDA bodies: yes; sim phase bodies: no — the
  /// phase boundary *is* the barrier there.)
  bool AllowBarriers = false;

  /// Variables defined on entry (coordinates, enclosing phase-loop
  /// variables, `_lin`).
  std::vector<std::string> DefinedVars;

  /// Known buffers by name. When CheckBuffers is set, loads/stores must
  /// reference one of these with the matching memory space.
  std::map<std::string, MemSpace> Buffers;
  bool CheckBuffers = false;
};

/// Structurally checks a statement list: every variable reference is
/// defined, stores go to real buffers (never to a Nat/index variable),
/// barriers sit outside thread-divergent branches, element types are
/// storable, indices are present and printable. Returns false with the
/// first problem in \p Err.
bool verify(const std::vector<Stmt> &Stmts, const VerifyOptions &Opts,
            std::string &Err);

} // namespace kir
} // namespace descend

#endif // DESCEND_KIR_KIR_H

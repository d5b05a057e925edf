//===- hostgen/HostGen.cpp - Host-program code generation --------------------===//

#include "hostgen/HostGen.h"

#include "codegen/Lowerer.h" // cppScalarType, floatLiteral, containsPow

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

using namespace descend;
using namespace descend::hostgen;
using hostir::Stmt;
using hostir::Var;

namespace {

using codegen::containsPow;
using codegen::cppScalarType;
using codegen::floatLiteral;

std::string emitName(const std::string &Name, const std::string &FnSuffix) {
  return (Name == "main" ? "run" : Name) + FnSuffix;
}

class Printer {
public:
  Printer(const hostir::Function &Fn, HostTarget T,
          const std::string &FnSuffix)
      : Fn(Fn), T(T),
        Stream(T == HostTarget::SimStream || T == HostTarget::SimGraph),
        Graph(T == HostTarget::SimGraph), FnSuffix(FnSuffix) {}

  HostGenResult run();

private:
  const hostir::Function &Fn;
  HostTarget T;
  /// Emitting an asynchronous sim::Stream-taking overload: device
  /// operations enqueue, host-touching statements synchronize first.
  /// (The graph overload reuses all of this machinery for its
  /// non-captured tail.)
  bool Stream;
  /// Emitting the graph-mode overload: capture the leading device-op run
  /// on the first call, replay + rebind afterwards.
  bool Graph;
  const std::string &FnSuffix;

  std::ostringstream OS;
  std::string Error;
  unsigned Depth = 1;

  /// Stream mode: operations are enqueued but not yet joined; the next
  /// statement that touches host memory must synchronize first.
  bool PendingAsync = false;

  /// Stream mode: how many host-memory-touch points have been emitted so
  /// far. Loop emission snapshots this to detect bodies that touch host
  /// memory (see the ForNat back-edge join).
  unsigned HostTouches = 0;

  /// Device buffers allocated at function scope, in allocation order
  /// (cuda: released with cudaFree before returning).
  std::vector<unsigned> DeviceBufs;

  bool isSim() const { return T != HostTarget::Cuda; }

  const Var &slot(unsigned I) const { return Fn.Slots[I]; }
  const std::string &name(unsigned I) const { return Fn.Slots[I].Name; }

  /// Stream mode: joins the stream before a host-memory-touching
  /// statement (no-op otherwise). Every join is followed by a
  /// rt::checkDevice so a sticky device error surfaces as a structured
  /// rt::Error at the join instead of the driver returning half-done.
  void syncIfPending() {
    if (!Stream)
      return;
    ++HostTouches;
    if (!PendingAsync)
      return;
    indent();
    OS << "_stream.synchronize();\n";
    indent();
    OS << "descend::rt::checkDevice(_dev, \"stream synchronize\");\n";
    PendingAsync = false;
  }

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  void indent() {
    for (unsigned I = 0; I != Depth; ++I)
      OS << "  ";
  }

  /// Spelling of a (simplified) Nat as C++; an unfolded pow has no C++
  /// spelling and is rejected.
  std::optional<std::string> natCpp(const Nat &N) {
    if (containsPow(N)) {
      fail("size expression `" + N.str() + "` contains an unfolded power");
      return std::nullopt;
    }
    return N.str();
  }

  /// The C++ expression denoting the raw host storage of slot \p I for a
  /// cudaMemcpy argument (locals are std::vectors, parameters raw
  /// pointers).
  std::string hostRaw(unsigned I) const {
    return slot(I).IsParam ? name(I) : name(I) + ".data()";
  }

  std::string exprCpp(const hostir::Expr &E) const;

  void emitSignature();
  bool emitStmts(const std::vector<Stmt> &Body);
  bool emitStmt(const Stmt &S);
  bool emitAllocHost(const Stmt &S);
  bool emitAllocCopy(const Stmt &S);
  bool emitCopy(const Stmt &S);
  void emitCall(const Stmt &S);
  bool emitLaunch(const Stmt &S);
  bool emitForNat(const Stmt &S);

  // Graph mode ---------------------------------------------------------

  /// Host-buffer slot of the capture graph for frame slot \p I, assigned
  /// in first-use order during capture emission (also the bind emission
  /// order).
  unsigned graphSlot(unsigned I) {
    auto It = GraphSlots.find(I);
    if (It != GraphSlots.end())
      return It->second;
    unsigned Slot = static_cast<unsigned>(GraphSlots.size());
    GraphSlots[I] = Slot;
    SlotBinds.emplace_back(Slot, I);
    return Slot;
  }

  bool captureStmtOk(const Stmt &S, std::set<unsigned> &Locals) const;
  size_t scanCapturePrefix() const;
  bool emitCaptureStmt(const Stmt &S);
  bool emitGraphBody(size_t Prefix);

  std::map<unsigned, unsigned> GraphSlots;
  std::vector<std::pair<unsigned, unsigned>> SlotBinds;
};

/// True when \p E (or anything nested in it) reads one of \p Slots.
bool mentionsAny(const hostir::Expr &E, const std::set<unsigned> &Slots) {
  return ((E.K == hostir::Expr::Slot || E.K == hostir::Expr::Index) &&
          Slots.count(E.SlotIdx)) ||
         (E.L && mentionsAny(*E.L, Slots)) || (E.R && mentionsAny(*E.R, Slots));
}

/// True when \p S (or anything nested in it) names one of \p Slots.
/// Conservative: used to reject graph capture when post-capture host code
/// reaches into a capture-produced device buffer.
bool mentionsAny(const Stmt &S, const std::set<unsigned> &Slots) {
  const bool Copy = S.K == Stmt::AllocCopy || S.K == Stmt::CopyToHost ||
                    S.K == Stmt::CopyToGpu;
  if ((Copy && Slots.count(S.Src)) ||
      ((Copy || S.K == Stmt::Assign) && Slots.count(S.Dst)))
    return true;
  for (unsigned B : S.Bufs)
    if (Slots.count(B))
      return true;
  for (const hostir::Expr *E : {S.Val.get(), S.Idx.get()})
    if (E && mentionsAny(*E, Slots))
      return true;
  for (const hostir::Expr &A : S.Args)
    if (mentionsAny(A, Slots))
      return true;
  for (const Stmt &B : S.Body)
    if (mentionsAny(B, Slots))
      return true;
  return false;
}

std::string Printer::exprCpp(const hostir::Expr &E) const {
  switch (E.K) {
  case hostir::Expr::Lit:
    switch (E.Ty) {
    case ScalarKind::F32:
    case ScalarKind::F64:
      return floatLiteral(E.F, E.Ty);
    case ScalarKind::Bool:
      return E.I ? "true" : "false";
    default:
      return std::to_string(E.I);
    }
  case hostir::Expr::Binary:
    return "(" + exprCpp(*E.L) + " " + binOpSpelling(E.BO) + " " +
           exprCpp(*E.R) + ")";
  case hostir::Expr::Unary:
    return (E.UO == UnOpKind::Neg ? "-" : "!") + exprCpp(*E.L);
  case hostir::Expr::Index:
    // Buffers index directly in both targets (HostBuffer::operator[],
    // raw pointers, std::vector); the source deref is implicit.
    return name(E.SlotIdx) + "[" + exprCpp(*E.L) + "]";
  case hostir::Expr::Slot:
    break;
  }
  return name(E.SlotIdx);
}

void Printer::emitSignature() {
  OS << "/// " << Fn.Signature << "\n";
  OS << (isSim() ? "inline void " : "void ") << emitName(Fn.Name, FnSuffix)
     << "(";
  bool First = true;
  auto Sep = [&]() {
    if (!First)
      OS << ",\n    ";
    else if (isSim())
      OS << ",\n    "; // after the device/stream argument
    First = false;
  };
  if (Stream) {
    OS << "descend::sim::Stream &_stream";
    if (Graph)
      OS << ",\n    descend::sim::GraphExec &_graph";
  } else if (isSim()) {
    OS << "descend::sim::GpuDevice &_dev";
  }

  for (unsigned I = 0; I != Fn.NumParams; ++I) {
    const Var &V = slot(I);
    const char *CT = cppScalarType(V.Elem);
    Sep();
    if (V.K == Var::HostArr && isSim())
      OS << (V.Shared ? "const descend::rt::HostBuffer<"
                      : "descend::rt::HostBuffer<")
         << CT << "> &" << V.Name;
    else if (V.K == Var::DevArr && isSim())
      OS << "descend::sim::GpuDevice::Buffer<" << CT << "> " << V.Name;
    else if (V.K == Var::Scalar)
      OS << CT << " " << V.Name;
    else
      OS << (V.Shared ? "const " : "") << CT << " *" << V.Name;
  }
  OS << ") {\n";
  if (Stream) {
    // Enqueued launches capture the device by reference; the frame stays
    // alive because stream drivers synchronize before returning.
    indent();
    OS << "descend::sim::GpuDevice &_dev = _stream.device();\n";
    indent();
    OS << "(void)_dev;\n";
  }
}

bool Printer::emitStmts(const std::vector<Stmt> &Body) {
  for (const Stmt &S : Body)
    if (!emitStmt(S))
      return false;
  return true;
}

bool Printer::emitStmt(const Stmt &S) {
  switch (S.K) {
  case Stmt::AllocHost:
    return emitAllocHost(S);
  case Stmt::AllocCopy:
    return emitAllocCopy(S);
  case Stmt::CopyToHost:
  case Stmt::CopyToGpu:
    return emitCopy(S);
  case Stmt::Launch:
    return emitLaunch(S);
  case Stmt::Call:
    emitCall(S);
    return true;
  case Stmt::LetScalar:
    syncIfPending(); // the initializer may read host buffers
    indent();
    OS << cppScalarType(slot(S.Dst).Elem) << " " << name(S.Dst) << " = "
       << exprCpp(*S.Val) << ";\n";
    return true;
  case Stmt::Assign:
    syncIfPending(); // assignment may read/write host buffers
    indent();
    OS << name(S.Dst);
    if (S.Idx)
      OS << "[" << exprCpp(*S.Idx) << "]";
    OS << " = " << exprCpp(*S.Val) << ";\n";
    return true;
  case Stmt::ForNat:
    syncIfPending(); // the loop body may read host buffers
    return emitForNat(S);
  case Stmt::Block: {
    indent();
    OS << "{\n";
    ++Depth;
    bool Ok = emitStmts(S.Body);
    --Depth;
    indent();
    OS << "}\n";
    return Ok;
  }
  }
  return fail("unhandled host statement");
}

bool Printer::emitForNat(const Stmt &S) {
  auto Lo = natCpp(S.Lo);
  auto Hi = natCpp(S.Hi);
  if (!Lo || !Hi)
    return false;
  const std::string &V = name(S.Dst);
  indent();
  OS << "for (long long " << V << " = " << *Lo << "; " << V << " != " << *Hi
     << "; ++" << V << ") {\n";
  ++Depth;
  const unsigned TouchesBefore = HostTouches;
  bool Ok = emitStmts(S.Body);
  // Stream mode back edge: a body that both touches host memory and
  // leaves operations pending would race with its own next iteration
  // (the per-statement sync points were emitted against the *first*
  // iteration's pending state). Join at the end of each iteration. A
  // body with no host-touch points safely carries its pending
  // operations across the back edge — the stream keeps them in order.
  if (Ok && Stream && PendingAsync && HostTouches != TouchesBefore) {
    indent();
    OS << "_stream.synchronize();\n";
    indent();
    OS << "descend::rt::checkDevice(_dev, \"stream synchronize\");\n";
    PendingAsync = false;
  }
  --Depth;
  indent();
  OS << "}\n";
  return Ok;
}

bool Printer::emitAllocHost(const Stmt &S) {
  const Var &V = slot(S.Dst);
  auto N = natCpp(V.Count);
  if (!N)
    return false;
  const char *CT = cppScalarType(V.Elem);
  indent();
  OS << (isSim() ? "descend::rt::HostBuffer<" : "std::vector<") << CT << "> "
     << V.Name << "(" << *N << ", "
     << (S.Val ? exprCpp(*S.Val) : std::string(CT) + "{}") << ");\n";
  return true;
}

bool Printer::emitAllocCopy(const Stmt &S) {
  const std::string &Let = name(S.Dst);
  const std::string &Src = name(S.Src);
  if (isSim()) {
    indent();
    if (Stream) {
      OS << "auto " << Let << " = descend::rt::allocCopyAsync(_stream, "
         << Src << ");\n";
      PendingAsync = true;
    } else {
      OS << "auto " << Let << " = descend::rt::allocCopy(_dev, " << Src
         << ");\n";
    }
    return true;
  }
  auto N = natCpp(slot(S.Src).Count);
  if (!N)
    return false;
  if (Depth > 1)
    return fail("device allocations must happen at host-function scope "
                "(needed for cudaFree cleanup)");
  const char *CT = cppScalarType(slot(S.Src).Elem);
  indent();
  OS << CT << " *" << Let << " = nullptr;\n";
  indent();
  OS << "cudaMalloc(&" << Let << ", sizeof(" << CT << ") * (" << *N
     << "));\n";
  indent();
  OS << "cudaMemcpy(" << Let << ", " << hostRaw(S.Src) << ", sizeof(" << CT
     << ") * (" << *N << "), cudaMemcpyHostToDevice);\n";
  DeviceBufs.push_back(S.Dst);
  return true;
}

bool Printer::emitCopy(const Stmt &S) {
  const bool ToHost = S.K == Stmt::CopyToHost;
  const std::string &Dst = name(S.Dst);
  const std::string &Src = name(S.Src);
  if (isSim()) {
    // Pass the host-program variable names through so a size-mismatch
    // rt::Error names the offending buffers, not just the counts.
    indent();
    if (Stream) {
      OS << (ToHost ? "descend::rt::copyToHostAsync(_stream, "
                    : "descend::rt::copyToGpuAsync(_stream, ")
         << Dst << ", " << Src << ", \"" << Dst << "\", \"" << Src
         << "\");\n";
      PendingAsync = true;
    } else {
      OS << (ToHost ? "descend::rt::copyToHost(" : "descend::rt::copyToGpu(")
         << Dst << ", " << Src << ", \"" << Dst << "\", \"" << Src
         << "\");\n";
    }
    return true;
  }
  const Var &HostSide = slot(ToHost ? S.Dst : S.Src);
  const char *CT = cppScalarType(HostSide.Elem);
  auto N = natCpp(HostSide.Count);
  if (!N)
    return false;
  indent();
  if (ToHost)
    OS << "cudaMemcpy(" << hostRaw(S.Dst) << ", " << Src << ", sizeof(" << CT
       << ") * (" << *N << "), cudaMemcpyDeviceToHost);\n";
  else
    OS << "cudaMemcpy(" << Dst << ", " << hostRaw(S.Src) << ", sizeof(" << CT
       << ") * (" << *N << "), cudaMemcpyHostToDevice);\n";
  return true;
}

/// Plain call of another host function. Stream mode threads the stream
/// through, joining the caller's pending operations first (the callee may
/// touch host memory in its first statement without a sync of its own);
/// a callee with pending operations joins them before returning, so the
/// caller resumes with a quiet stream either way.
void Printer::emitCall(const Stmt &S) {
  syncIfPending();
  indent();
  OS << emitName(S.Callee, FnSuffix) << "(";
  if (isSim())
    OS << (Stream ? "_stream" : "_dev") << (S.Args.empty() ? "" : ", ");
  for (size_t I = 0; I != S.Args.size(); ++I) {
    const hostir::Expr &A = S.Args[I];
    // Cuda locals are std::vectors but host parameters are raw pointers;
    // decay at the call boundary.
    const bool Decay = T == HostTarget::Cuda && A.K == hostir::Expr::Slot &&
                       slot(A.SlotIdx).K == Var::HostArr;
    OS << (I ? ", " : "") << (Decay ? hostRaw(A.SlotIdx) : exprCpp(A));
  }
  OS << ");\n";
  PendingAsync = false;
}

bool Printer::emitLaunch(const Stmt &S) {
  std::string Args;
  for (unsigned B : S.Bufs)
    Args += (Args.empty() ? "" : ", ") + name(B);
  const std::string Sep = Args.empty() ? "" : ", ";
  indent();
  if (isSim()) {
    // The generated simulator kernel lives in the same emitted namespace;
    // its signature already encodes the (statically checked) launch
    // configuration. Stream mode enqueues the same call as a stream
    // operation (buffer handles captured by value, the device by
    // reference — the frame outlives the operation because stream
    // drivers synchronize before returning).
    if (Stream) {
      OS << "_stream.enqueue([=, &_dev] { " << S.Callee << FnSuffix
         << "(_dev" << Sep << Args << "); });\n";
      PendingAsync = true;
      return true;
    }
    OS << S.Callee << FnSuffix << "(_dev" << Sep << Args << ");\n";
    // Synchronous launches complete before returning; surface a sticky
    // device error (trap, timeout) here as a structured rt::Error
    // instead of silently running the rest of the driver on a poisoned
    // device.
    indent();
    OS << "descend::rt::checkDevice(_dev, \"launch " << S.Callee << "\");\n";
    return true;
  }
  auto DimOf = [&](const Dim &D) -> std::optional<std::string> {
    // Each extent lands in its own axis slot (a Y-only grid is
    // dim3(1, n, 1)); absent axes default to 1.
    std::string Parts[3] = {"1", "1", "1"};
    for (Axis A : {Axis::X, Axis::Y, Axis::Z}) {
      if (!D.hasAxis(A))
        continue;
      auto E = natCpp(D.extent(A).simplified());
      if (!E)
        return std::nullopt;
      Parts[static_cast<unsigned>(A)] = *E;
    }
    return "dim3(" + Parts[0] + ", " + Parts[1] + ", " + Parts[2] + ")";
  };
  auto Grid = DimOf(S.GridDim);
  auto Block = DimOf(S.BlockDim);
  if (!Grid || !Block)
    return false;
  OS << S.Callee << FnSuffix << "<<<" << *Grid << ", " << *Block << ">>>("
     << Args << ");\n";
  indent();
  OS << "cudaDeviceSynchronize();\n";
  return true;
}

//===----------------------------------------------------------------------===//
// Graph mode: capture-prefix analysis and emission
//===----------------------------------------------------------------------===//

/// Is \p S a top-level statement the graph overload can capture? The
/// capturable shapes are exactly the device-op run a serving loop repeats
/// per request:
///   * `let d = GpuGlobal::alloc_copy(&h)` with `h` a host-buffer
///     *parameter* (the rebindable per-request data); `d` becomes a
///     capture-local,
///   * `copy_mem_to_host` / `copy_to_gpu` between a host-buffer parameter
///     and a capture-local device buffer,
///   * launches whose arguments are all capture-locals (a device-buffer
///     parameter would replay the first call's buffer forever).
bool Printer::captureStmtOk(const Stmt &S, std::set<unsigned> &Locals) const {
  auto HostParam = [&](unsigned I) {
    return slot(I).K == Var::HostArr && slot(I).IsParam;
  };
  switch (S.K) {
  case Stmt::AllocCopy:
    if (!HostParam(S.Src))
      return false;
    Locals.insert(S.Dst);
    return true;
  case Stmt::Launch:
    if (S.Bufs.empty())
      return false;
    for (unsigned B : S.Bufs)
      if (!Locals.count(B))
        return false;
    return true;
  case Stmt::CopyToHost:
    return HostParam(S.Dst) && Locals.count(S.Src);
  case Stmt::CopyToGpu:
    return HostParam(S.Src) && Locals.count(S.Dst);
  default:
    return false;
  }
}

/// Length of the maximal capturable leading run of the body's top-level
/// statements, or 0 when the program can't use capture at all (including
/// when a post-prefix statement reaches into a capture-local: those live
/// inside the first-call capture block and replay frozen, so any later
/// mention would change meaning — fall back entirely).
size_t Printer::scanCapturePrefix() const {
  std::set<unsigned> Locals;
  size_t Prefix = 0;
  while (Prefix != Fn.Body.size() && captureStmtOk(Fn.Body[Prefix], Locals))
    ++Prefix;
  if (Prefix == 0)
    return 0;
  for (size_t I = Prefix; I != Fn.Body.size(); ++I)
    if (mentionsAny(Fn.Body[I], Locals))
      return 0;
  return Prefix;
}

/// Emits one capturable prefix statement in capture form: transfers go
/// through the rt::*Capture helpers (slot-based, rebindable at replay);
/// launches emit exactly the stream-mode enqueue — enqueue-during-capture
/// records the closure as a graph node.
bool Printer::emitCaptureStmt(const Stmt &S) {
  if (S.K == Stmt::Launch)
    return emitLaunch(S);
  indent();
  if (S.K == Stmt::AllocCopy)
    OS << "auto " << name(S.Dst) << " = descend::rt::allocCopyCapture<"
       << cppScalarType(slot(S.Src).Elem) << ">(_stream, " << graphSlot(S.Src)
       << ", " << name(S.Src) << ".size(), \"" << name(S.Src) << "\");\n";
  else if (S.K == Stmt::CopyToHost)
    OS << "descend::rt::copyToHostCapture(_stream, " << graphSlot(S.Dst)
       << ", " << name(S.Src) << ", \"" << name(S.Dst) << "\");\n";
  else
    OS << "descend::rt::copyToGpuCapture(_stream, " << graphSlot(S.Src)
       << ", " << name(S.Dst) << ", \"" << name(S.Src) << "\");\n";
  return true;
}

/// The graph overload's body: capture the prefix once (first call),
/// rebind the host-buffer slots to this call's parameters, replay the
/// whole prefix as one stream operation, then emit the non-captured tail
/// in plain stream form.
bool Printer::emitGraphBody(size_t Prefix) {
  indent();
  OS << "if (!_graph.instantiated()) {\n";
  ++Depth;
  indent();
  OS << "_stream.beginCapture();\n";
  for (size_t I = 0; I != Prefix; ++I)
    if (!emitCaptureStmt(Fn.Body[I]))
      return false;
  indent();
  OS << "_graph = _stream.endCapture().instantiate();\n";
  --Depth;
  indent();
  OS << "}\n";
  PendingAsync = false; // capture records; nothing actually enqueued
  for (const auto &SB : SlotBinds) {
    indent();
    OS << "_graph.bind(" << SB.first << ", " << name(SB.second) << ", \""
       << name(SB.second) << "\");\n";
  }
  indent();
  OS << "_graph.launch(_stream);\n";
  PendingAsync = true; // the replay is one pending stream operation
  for (size_t I = Prefix; I != Fn.Body.size(); ++I)
    if (!emitStmt(Fn.Body[I]))
      return false;
  return true;
}

HostGenResult Printer::run() {
  HostGenResult R;
  emitSignature();
  const size_t Prefix = Graph ? scanCapturePrefix() : 0;
  if (Graph && Prefix == 0) {
    // Shape doesn't fit capture: the graph overload degrades to the
    // plain stream body (emission is total, never a compile failure).
    indent();
    OS << "(void)_graph;\n";
  }
  bool Ok = Prefix > 0 ? emitGraphBody(Prefix) : emitStmts(Fn.Body);
  if (Ok && T == HostTarget::Cuda)
    for (unsigned Buf : DeviceBufs) {
      indent();
      OS << "cudaFree(" << name(Buf) << ");\n";
    }
  // Stream drivers join before returning: enqueued operations may borrow
  // this frame's locals, and the caller observes the same state as after
  // the synchronous driver.
  if (Ok)
    syncIfPending();
  OS << "}\n";
  if (!Ok) {
    R.Error = Error.empty() ? "host emission failed" : Error;
    return R;
  }
  R.Ok = true;
  R.Code = OS.str();
  return R;
}

} // namespace

bool hostgen::hasHostFns(const Module &M) {
  for (const auto &Fn : M.Fns)
    if (Fn->isCpuFn() && Fn->Body)
      return true;
  return false;
}

std::string hostgen::hostFnEmitName(const FnDef &Fn,
                                    const std::string &FnSuffix) {
  return emitName(Fn.Name, FnSuffix);
}

HostGenResult hostgen::printHostFn(const hostir::Function &Fn,
                                   HostTarget Target,
                                   const std::string &FnSuffix) {
  return Printer(Fn, Target, FnSuffix).run();
}

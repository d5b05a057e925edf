//===- hostgen/HostGen.h - Host-program code generation ---------*- C++ -*-===//
//
// Part of the Descend reproduction. Prints the *host* side of a Descend
// program (Sections 2.3 / 3.4 / 3.5) — `cpu.thread` functions that
// allocate heap and device memory, transfer data between cpu.mem and
// gpu.global and launch kernels with an explicit execution configuration
// — as a runnable C++ driver. Where the type checker proves the transfers
// and launches correct, hostir::lower (hostir/HostIR.h) turns the proven
// function into host IR once, and this layer prints that IR per target:
//
//   sim        C++ against runtime/HostRuntime.h + sim/Sim.h —
//              rt::HostBuffer allocations, rt::allocCopy / rt::copyToHost
//              transfers, and direct calls of the generated simulator
//              kernels in the same header.
//   simStream  the asynchronous overload of the same driver, taking a
//              sim::Stream instead of a device: transfers enqueue through
//              rt::*Async, launches enqueue as stream operations, and a
//              stream synchronize is inserted before any statement that
//              touches host memory (and before returning), so results are
//              bit-identical to the synchronous driver while consecutive
//              device operations pipeline with a single join.
//   simGraph   the graph-mode overload (sim::Stream + sim::GraphExec):
//              the driver's leading run of device operations — transfers
//              touching only host-buffer *parameters* plus launches over
//              the buffers those transfers produced — is captured into a
//              launch graph on the first call and *replayed* as one
//              stream operation on every call, with the parameter buffers
//              rebound per call (GraphExec::bind); any trailing host
//              statements emit in stream form. Programs whose shape
//              doesn't fit (no capturable prefix, or later statements
//              reaching into capture-produced slots) fall back to the
//              plain stream body — emission is total.
//   cuda       CUDA runtime API host code — std::vector staging,
//              cudaMalloc / cudaMemcpy with statically computed byte
//              counts, real kernel<<<grid, block>>> launches and cudaFree
//              cleanup.
//
// A host function named `main` is emitted under the name `run` (plus the
// invocation's function suffix), which is the entry point tests and
// examples drive; every other host function keeps its own name so host
// functions can call each other.
//
// The host fragment's acceptance rules live in hostir::lower. The printer
// adds only the rules of the printed language: a size with an unfolded
// power has no C++ spelling, and cuda device allocations must sit at
// function scope so the driver can cudaFree them.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_HOSTGEN_HOSTGEN_H
#define DESCEND_HOSTGEN_HOSTGEN_H

#include "ast/Item.h"
#include "hostir/HostIR.h"

#include <string>

namespace descend {
namespace hostgen {

/// Which host substrate to emit for. SimStream emits the asynchronous
/// sim::Stream overload of the sim driver; SimGraph the capture/replay
/// overload (the sim backend emits all three).
enum class HostTarget { Sim, SimStream, SimGraph, Cuda };

/// Result of emitting one host function.
struct HostGenResult {
  bool Ok = false;
  std::string Code;  // one complete C++ function definition
  std::string Error; // set when !Ok
};

/// True when the module contains at least one cpu.thread function with a
/// body (i.e. the program has a host side worth emitting).
bool hasHostFns(const Module &M);

/// The C++ name \p Fn is emitted under: `main` becomes `run`, every other
/// function keeps its name; \p FnSuffix is appended in both cases (the
/// same suffix the kernel emitters use, so launches resolve).
std::string hostFnEmitName(const FnDef &Fn, const std::string &FnSuffix);

/// Prints \p Fn (lowered by hostir::lower) as a host driver for
/// \p Target.
HostGenResult printHostFn(const hostir::Function &Fn, HostTarget Target,
                          const std::string &FnSuffix);

} // namespace hostgen
} // namespace descend

#endif // DESCEND_HOSTGEN_HOSTGEN_H

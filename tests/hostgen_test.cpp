//===- tests/hostgen_test.cpp - Host-program subsystem tests ----------------===//
//
// Exercises the host-program compilation subsystem end to end at the
// artifact level: the programs/*.descend fixtures typecheck (or are
// rejected with the targeted host diagnostics), the sim backend emits a
// runnable host driver against runtime/HostRuntime.h, the sim and cuda
// host output match the checked-in goldens, and the one host lowering
// gives sim, cuda and vm the same verdict on every rejected shape.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "hostgen/HostGen.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace descend;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string programPath(const std::string &Name) {
  return std::string(DESCEND_PROGRAM_DIR) + "/" + Name;
}

struct Outcome {
  bool Ok = false;
  std::string Artifact;
  std::string Rendered;
  std::unique_ptr<Session> S;
};

Outcome compileProgram(const std::string &FileName,
                       const std::string &Backend,
                       std::map<std::string, long long> Defines = {},
                       const std::string &FnSuffix = "") {
  Outcome O;
  CompilerInvocation Inv;
  Inv.BufferName = FileName;
  Inv.Defines = std::move(Defines);
  Inv.FnSuffix = FnSuffix;
  if (Backend.empty())
    Inv.RunUntil = Stage::Typecheck;
  else
    Inv.BackendName = Backend;
  O.S = std::make_unique<Session>(Inv);
  CompileResult R = O.S->run(readFile(programPath(FileName)));
  O.Ok = R.Ok;
  O.Artifact = R.Artifact;
  O.Rendered = O.S->renderDiagnostics();
  return O;
}

/// Compiles the inline program \p Source with \p Backend.
Outcome compileSource(const std::string &Source, const std::string &Backend,
                      std::map<std::string, long long> Defines = {}) {
  Outcome O;
  CompilerInvocation Inv;
  Inv.BufferName = "inline.descend";
  Inv.Defines = std::move(Defines);
  Inv.BackendName = Backend;
  O.S = std::make_unique<Session>(Inv);
  CompileResult R = O.S->run(Source);
  O.Ok = R.Ok;
  O.Artifact = R.Artifact;
  O.Rendered = O.S->renderDiagnostics();
  return O;
}

//===----------------------------------------------------------------------===//
// Positive programs: typecheck and emit a sim host driver
//===----------------------------------------------------------------------===//

TEST(HostGen, QuickstartSimDriver) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The generated header drives the host runtime...
  EXPECT_NE(O.Artifact.find("#include \"runtime/HostRuntime.h\""),
            std::string::npos)
      << O.Artifact;
  // ...with `main` emitted as the `run` entry point...
  EXPECT_NE(O.Artifact.find(
                "inline void run(descend::sim::GpuDevice &_dev"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("descend::rt::HostBuffer<double> &host_vec"),
            std::string::npos)
      << O.Artifact;
  // ...performing the statically checked transfer/launch sequence.
  EXPECT_NE(O.Artifact.find(
                "auto d_vec = descend::rt::allocCopy(_dev, host_vec);"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("scale_vec(_dev, d_vec);"), std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("descend::rt::copyToHost(host_vec, d_vec, "
                            "\"host_vec\", \"d_vec\");"),
            std::string::npos)
      << O.Artifact;
  // Synchronous launches are followed by a device check so sticky errors
  // surface as structured rt::Errors at the failing step.
  EXPECT_NE(O.Artifact.find("descend::rt::checkDevice(_dev, \"launch "
                            "scale_vec\");"),
            std::string::npos)
      << O.Artifact;
}

TEST(HostGen, ReductionSimDriverLowersHostLoop) {
  Outcome O = compileProgram("reduction_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The sequential CPU finish compiles to a real host loop.
  EXPECT_NE(O.Artifact.find("for (long long i = 0; i != 8; ++i)"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("total[0] = (total[0] + partials[i]);"),
            std::string::npos)
      << O.Artifact;
  // Two transfers in, one out.
  EXPECT_NE(O.Artifact.find("allocCopy(_dev, data)"), std::string::npos);
  EXPECT_NE(O.Artifact.find("allocCopy(_dev, partials)"), std::string::npos);
  EXPECT_NE(O.Artifact.find(
                "copyToHost(partials, d_out, \"partials\", \"d_out\")"),
            std::string::npos);
}

TEST(HostGen, FnSuffixAppliesToDriverAndLaunches) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}},
                             "_tiny");
  ASSERT_TRUE(O.Ok) << O.Rendered;
  EXPECT_NE(O.Artifact.find("inline void run_tiny("), std::string::npos)
      << O.Artifact;
  // The launch resolves against the suffixed kernel in the same header.
  EXPECT_NE(O.Artifact.find("scale_vec_tiny(_dev, d_vec);"),
            std::string::npos)
      << O.Artifact;
}

TEST(HostGen, SymbolicHostProgramTypechecks) {
  // Without -D the whole program stays polymorphic in nb; the transfer
  // and launch checks go through the Nat solver.
  Outcome O = compileProgram("reduction_host.descend", "");
  EXPECT_TRUE(O.Ok) << O.Rendered;
}

TEST(HostGen, KernelOnlyModulesStayRuntimeFree) {
  CompilerInvocation Inv;
  Inv.BufferName = "k.descend";
  Inv.Defines["nb"] = 2;
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn scale_vec<nb: nat>(vec: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_EQ(R.Artifact.find("HostRuntime"), std::string::npos)
      << "kernel-only headers must not pull in the host runtime";
}

//===----------------------------------------------------------------------===//
// Stream overloads (forwarders to the synchronous driver)
//===----------------------------------------------------------------------===//

/// The first `inline void <Fn>(descend::sim::Stream &_stream, ...)`
/// definition in \p Artifact (the stream overload; the graph overload
/// follows it), or "" when there is none.
std::string streamOverload(const std::string &Artifact,
                           const std::string &Fn) {
  size_t Start =
      Artifact.find("inline void " + Fn + "(descend::sim::Stream &_stream");
  if (Start == std::string::npos)
    return "";
  return Artifact.substr(Start, Artifact.find("\n}\n", Start) + 3 - Start);
}

/// A host program whose loop mixes host stores and device operations
/// (and reaches into its first device buffer, so it has no graph
/// capture prefix either).
const char *LoopMixingHostAndDeviceOps = R"(
fn scale<nb: nat>(vec: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn main<nb: nat>(staging: &uniq cpu.mem [f64; nb*256],
                 ticks: &uniq cpu.mem [f64; 4])
-[t: cpu.thread]-> () {
  let d = GpuGlobal::alloc_copy(&*staging);
  for r in [0..3] {
    (*ticks)[0] = 1.0;
    copy_to_gpu(&uniq d, &*staging);
    scale::<<<X<nb>, X<256>>>>(&uniq d)
  }
}
)";

TEST(HostGenStream, StreamOverloadForwardsToSyncDriver) {
  // Every stream overload is one statement: join the stream, then call
  // the synchronous driver on its device with the same arguments. No
  // statement of the driver is printed in stream form.
  Outcome Red = compileProgram("reduction_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(Red.Ok) << Red.Rendered;
  EXPECT_EQ(streamOverload(Red.Artifact, "run"),
            "inline void run(descend::sim::Stream &_stream,\n"
            "    descend::rt::HostBuffer<double> &data,\n"
            "    descend::rt::HostBuffer<double> &partials,\n"
            "    descend::rt::HostBuffer<double> &total) {\n"
            "  run(descend::rt::joinStream(_stream, \"run\"), data, "
            "partials, total);\n"
            "}\n")
      << Red.Artifact;

  // A scalar parameter and a function suffix forward too.
  Outcome Args = compileProgram("host_call_args.descend", "sim", {}, "_x");
  ASSERT_TRUE(Args.Ok) << Args.Rendered;
  EXPECT_NE(streamOverload(Args.Artifact, "fill_x")
                .find("  fill_x(descend::rt::joinStream(_stream, "
                      "\"fill_x\"), buf, v);\n"),
            std::string::npos)
      << Args.Artifact;

  Outcome Loop = compileSource(LoopMixingHostAndDeviceOps, "sim", {{"nb", 4}});
  ASSERT_TRUE(Loop.Ok) << Loop.Rendered;
  Outcome Quick =
      compileProgram("quickstart_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(Quick.Ok) << Quick.Rendered;
  for (const Outcome *O : {&Red, &Args, &Loop, &Quick}) {
    for (const char *Fn : {"run", "run_x", "fill_x"}) {
      std::string Part = streamOverload(O->Artifact, Fn);
      EXPECT_EQ(Part.find("enqueue"), std::string::npos) << Part;
      EXPECT_EQ(Part.find("Async"), std::string::npos) << Part;
      EXPECT_EQ(Part.find("synchronize"), std::string::npos) << Part;
    }
  }
  EXPECT_NE(streamOverload(Loop.Artifact, "run")
                .find("  run(descend::rt::joinStream(_stream, \"run\"), "
                      "staging, ticks);\n}\n"),
            std::string::npos)
      << Loop.Artifact;
}

//===----------------------------------------------------------------------===//
// Graph overloads (capture on first call, replay + rebind after)
//===----------------------------------------------------------------------===//

TEST(HostGenGraph, EmitsCaptureReplayOverload) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The third overload takes the stream plus a GraphExec...
  size_t GraphFn = O.Artifact.find(
      "inline void run(descend::sim::Stream &_stream,\n"
      "    descend::sim::GraphExec &_graph");
  ASSERT_NE(GraphFn, std::string::npos) << O.Artifact;
  std::string GraphPart = O.Artifact.substr(GraphFn);
  // ...captures the transfer/launch sequence on the first call only...
  EXPECT_NE(GraphPart.find("if (!_graph.instantiated()) {"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("_stream.beginCapture();"), std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("descend::rt::allocCopyCapture<double>(_stream, "
                           "0, host_vec.size(), \"host_vec\")"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("descend::rt::copyToHostCapture(_stream, 0, "
                           "d_vec, \"host_vec\");"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("_graph = _stream.endCapture().instantiate();"),
            std::string::npos)
      << GraphPart;
  // ...and rebinds + replays on every call.
  EXPECT_NE(GraphPart.find("_graph.bind(0, host_vec, \"host_vec\");"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("_graph.launch(_stream);"), std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("_stream.synchronize();"), std::string::npos)
      << GraphPart;
}

TEST(HostGenGraph, ReductionCapturesPrefixAndKeepsHostTail) {
  Outcome O = compileProgram("reduction_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  size_t GraphFn = O.Artifact.find("descend::sim::GraphExec &_graph");
  ASSERT_NE(GraphFn, std::string::npos) << O.Artifact;
  std::string GraphPart = O.Artifact.substr(GraphFn);
  // data and partials each get a slot, in first-use order...
  EXPECT_NE(GraphPart.find("allocCopyCapture<double>(_stream, 0, "
                           "data.size(), \"data\")"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("allocCopyCapture<double>(_stream, 1, "
                           "partials.size(), \"partials\")"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("_graph.bind(0, data, \"data\");"),
            std::string::npos)
      << GraphPart;
  EXPECT_NE(GraphPart.find("_graph.bind(1, partials, \"partials\");"),
            std::string::npos)
      << GraphPart;
  // ...the D2H copy reuses partials' slot...
  EXPECT_NE(GraphPart.find("copyToHostCapture(_stream, 1, d_out, "
                           "\"partials\");"),
            std::string::npos)
      << GraphPart;
  // ...and the CPU finish loop emits as a plain host tail after the
  // replay, behind a join.
  size_t Launch = GraphPart.find("_graph.launch(_stream);");
  size_t Sync = GraphPart.find("_stream.synchronize();");
  size_t Tail = GraphPart.find("total[0] = 0.0;");
  ASSERT_NE(Launch, std::string::npos) << GraphPart;
  ASSERT_NE(Sync, std::string::npos) << GraphPart;
  ASSERT_NE(Tail, std::string::npos) << GraphPart;
  EXPECT_LT(Launch, Sync) << GraphPart;
  EXPECT_LT(Sync, Tail) << GraphPart;
}

TEST(HostGenGraph, UncapturableShapeFallsBackToForwarder) {
  // The loop re-transfers into the capture-produced buffer `d`, so the
  // prefix is unusable (post-prefix statements reach into a capture
  // local): the graph overload must degrade to the stream overload's
  // forwarder instead of failing the compile.
  Outcome O = compileSource(LoopMixingHostAndDeviceOps, "sim", {{"nb", 4}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  size_t GraphFn = O.Artifact.find("descend::sim::GraphExec &_graph");
  ASSERT_NE(GraphFn, std::string::npos) << O.Artifact;
  std::string GraphPart = O.Artifact.substr(GraphFn);
  EXPECT_NE(GraphPart.find(") {\n"
                           "  (void)_graph;\n"
                           "  run(descend::rt::joinStream(_stream, \"run\"), "
                           "staging, ticks);\n"
                           "}\n"),
            std::string::npos)
      << GraphPart;
  EXPECT_EQ(GraphPart.find("beginCapture"), std::string::npos) << GraphPart;
  EXPECT_EQ(GraphPart.find("enqueue"), std::string::npos) << GraphPart;
}

//===----------------------------------------------------------------------===//
// The cuda host golden
//===----------------------------------------------------------------------===//

TEST(HostGen, CudaDriverMatchesGolden) {
  Outcome O = compileProgram("quickstart_host.descend", "cuda", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  std::string Golden =
      readFile(std::string(DESCEND_GOLDEN_DIR) + "/quickstart_host.cu");
  EXPECT_EQ(O.Artifact, Golden)
      << "regenerate with: descendc programs/quickstart_host.descend "
         "--emit=cuda -D nb=8 -o tests/goldens/quickstart_host.cu";
}

TEST(HostGen, SimDriversMatchGolden) {
  // All three sim overloads: sync, the stream forwarder, and graph with
  // its capture prefix, slot binds and the synchronous host `for` tail.
  Outcome O = compileProgram("reduction_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  std::string Golden =
      readFile(std::string(DESCEND_GOLDEN_DIR) + "/reduction_host.sim.h");
  EXPECT_EQ(O.Artifact, Golden)
      << "regenerate with: descendc programs/reduction_host.descend "
         "--emit=sim -D nb=8 -o tests/goldens/reduction_host.sim.h";
}

TEST(HostGen, CudaLaunchKeepsAxisSlots) {
  // A Y-leading grid must land in dim3's .y slot, not be packed into .x.
  CompilerInvocation Inv;
  Inv.BufferName = "ygrid.descend";
  Inv.BackendName = "cuda";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn scale_y(vec: &uniq gpu.global [f64; 2048])
-[grid: gpu.grid<Y<8>, X<256>>]-> () {
  sched(Y) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn main() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 2048]);
  let d = GpuGlobal::alloc_copy(&h);
  scale_y::<<<Y<8>, X<256>>>>(&uniq d)
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find(
                "scale_y<<<dim3(1, 8, 1), dim3(256, 1, 1)>>>(d);"),
            std::string::npos)
      << R.Artifact;
}

TEST(HostGen, CudaDriverFreesDeviceBuffers) {
  Outcome O = compileProgram("reduction_host.descend", "cuda", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  EXPECT_NE(O.Artifact.find("cudaFree(d_in);"), std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("cudaFree(d_out);"), std::string::npos)
      << O.Artifact;
  // Byte counts are computed from the statically proven element counts.
  EXPECT_NE(O.Artifact.find("sizeof(double) * (2048)"), std::string::npos)
      << O.Artifact;
}

//===----------------------------------------------------------------------===//
// Negative programs: compile-time rejection with targeted diagnostics
//===----------------------------------------------------------------------===//

TEST(HostGenDiagnostics, SwappedCopyDirectionRejected) {
  Outcome O = compileProgram("bad_swapped_copy.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(
      O.S->diagnostics().contains(DiagCode::TransferDirectionMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, SizeMismatchedTransferRejected) {
  Outcome O = compileProgram("bad_size_mismatch.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::TransferSizeMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, WrongLaunchConfigRejected) {
  Outcome O = compileProgram("bad_launch_config.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::LaunchConfigMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, DevicePointerDerefOnHostRejected) {
  Outcome O = compileProgram("bad_host_deref.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::CannotDereference))
      << O.Rendered;
}

//===----------------------------------------------------------------------===//
// One host lowering: sim, cuda and vm give the same verdict
//===----------------------------------------------------------------------===//

TEST(HostLowering, EveryBackendRejectsTheSameShapes) {
  struct Case {
    const char *Name;
    const char *Source;
    const char *Message;
  };
  const Case Cases[] = {
      {"tuple parameter",
       "fn main(pair: &uniq cpu.mem (f64, f64)) -[t: cpu.thread]-> () { }",
       "unsupported host parameter type `&uniq cpu.mem (f64, f64)`"},
      {"2-D place", R"(
fn main(m: &uniq cpu.mem [[f64; 4]; 4]) -[t: cpu.thread]-> () {
  for i in [0..4] { (*m)[i][i] = 1.0 }
}
)",
       "place `(*m)[i][i]` indexes more than one dimension"},
      {"whole buffer read as a scalar", R"(
fn main(h: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  let d = GpuGlobal::alloc_copy(&*h);
  let x = d
}
)",
       "place `d` reads a whole buffer as a scalar"},
      {"unsupported host statement", R"(
fn main() -[t: cpu.thread]-> () {
  let x = 1.0;
  x
}
)",
       "unsupported host statement: x"},
  };
  for (const Case &C : Cases)
    for (const char *Backend : {"sim", "cuda", "vm"}) {
      Outcome O = compileSource(C.Source, Backend);
      EXPECT_FALSE(O.Ok) << C.Name << " / " << Backend;
      EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::BackendFailed))
          << C.Name << " / " << Backend << "\n"
          << O.Rendered;
      EXPECT_NE(O.Rendered.find(C.Message), std::string::npos)
          << C.Name << " / " << Backend << "\n"
          << O.Rendered;
    }
}

TEST(HostLowering, SymbolicSizesPrintButDoNotRun) {
  // Without -D the C++ printers spell sizes and bounds symbolically; the
  // vm has no later compiler to defer to and asks for the instantiation.
  const char *Source = R"(
fn main<n: nat>(h: &uniq cpu.mem [f64; n]) -[t: cpu.thread]-> () {
  for i in [0..n] { (*h)[i] = 1.0 }
}
)";
  Outcome Sim = compileSource(Source, "sim");
  ASSERT_TRUE(Sim.Ok) << Sim.Rendered;
  EXPECT_NE(Sim.Artifact.find("for (long long i = 0; i != n; ++i)"),
            std::string::npos)
      << Sim.Artifact;
  Outcome Cuda = compileSource(Source, "cuda");
  ASSERT_TRUE(Cuda.Ok) << Cuda.Rendered;
  EXPECT_NE(Cuda.Artifact.find("for (long long i = 0; i != n; ++i)"),
            std::string::npos)
      << Cuda.Artifact;
  Outcome Vm = compileSource(Source, "vm");
  EXPECT_FALSE(Vm.Ok);
  EXPECT_TRUE(Vm.S->diagnostics().contains(DiagCode::BackendFailed))
      << Vm.Rendered;
  EXPECT_NE(Vm.Rendered.find("host parameter size `n` is not instantiated "
                             "(pass -D)"),
            std::string::npos)
      << Vm.Rendered;
  // Instantiated, all three accept it.
  for (const char *Backend : {"sim", "cuda", "vm"})
    EXPECT_TRUE(compileSource(Source, Backend, {{"n", 16}}).Ok) << Backend;

  // The same holds for a whole program: reduction_host prints
  // `sizeof(double) * (nb * 256)` and `i != nb` when nb is left open.
  Outcome Red = compileProgram("reduction_host.descend", "cuda");
  ASSERT_TRUE(Red.Ok) << Red.Rendered;
  EXPECT_NE(Red.Artifact.find("sizeof(double) * (nb * 256)"),
            std::string::npos)
      << Red.Artifact;
  EXPECT_NE(Red.Artifact.find("i != nb;"), std::string::npos) << Red.Artifact;
  Outcome RedVm = compileProgram("reduction_host.descend", "vm");
  EXPECT_FALSE(RedVm.Ok);
  EXPECT_NE(RedVm.Rendered.find("(pass -D)"), std::string::npos)
      << RedVm.Rendered;
}

//===----------------------------------------------------------------------===//
// hostgen API details
//===----------------------------------------------------------------------===//

TEST(HostGenApi, EmitNameMapsMainToRun) {
  FnDef Fn;
  Fn.Name = "main";
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, ""), "run");
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, "_small"), "run_small");
  Fn.Name = "stage_inputs";
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, ""), "stage_inputs");
}

TEST(HostGenApi, HasHostFnsDistinguishesModules) {
  CompilerInvocation Inv;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  ASSERT_TRUE(S.run("fn host() -[t: cpu.thread]-> () { }").Ok)
      << S.renderDiagnostics();
  EXPECT_TRUE(hostgen::hasHostFns(*S.module()));

  Session S2(Inv);
  ASSERT_TRUE(S2.run(R"(
fn k(v: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block { v.group::<64>[[block]][[thread]] = 1.0 }
  }
}
)")
                  .Ok)
      << S2.renderDiagnostics();
  EXPECT_FALSE(hostgen::hasHostFns(*S2.module()));
}

TEST(HostGenApi, HostFunctionsCanCallEachOther) {
  CompilerInvocation Inv;
  Inv.BufferName = "chain.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn prepare(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  for i in [0..16] { (*buf)[i] = 2.0 }
}
fn main(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  prepare(&uniq *buf)
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find("inline void prepare("), std::string::npos)
      << R.Artifact;
  EXPECT_NE(R.Artifact.find("prepare(_dev, buf);"), std::string::npos)
      << R.Artifact;
}

TEST(HostGenApi, UnsupportedHostConstructIsReported) {
  // Tuples are not part of the host fragment; the emitter reports a
  // descriptive error instead of emitting garbage.
  CompilerInvocation Inv;
  Inv.BufferName = "bad.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn main(pair: &uniq cpu.mem (f64, f64)) -[t: cpu.thread]-> () { }
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(S.diagnostics().contains(DiagCode::BackendFailed))
      << S.renderDiagnostics();
}

} // namespace

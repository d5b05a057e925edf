//===- perfbench/harness.cpp - End-to-end benchmark harness ---------------===//
//
// One process, one closed-loop client thread, one workload. The client
// sends its next request when the previous one has completed, cycling
// through the workload's request kinds in a fixed order with seeded
// inputs. Every output element of every
// request is compared with the CPU reference in reference.h, and every
// compile verdict with the fixture's known answer.
//
//   perfbench_harness --workload W --seed N --seconds S
//                     [--mode run|setup|counts] [--trace]
//
// --mode setup stops after set-up and reports its time; --mode counts
// prints only the deterministic counts (artifact bytes, bytecode sizes,
// sim counters, device bytes, compile verdicts) that must repeat exactly.
// --trace alternates traced and untraced turns of the closed loop (a
// traced turn records spans around every public call and turns the
// library's own tracing on) and runs the layer probe that yields the
// per-layer metrics. perfbench/run.py drives this binary and
// prints the benchmark's result line; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/Trace.h"
#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "sim/Sim.h"
#include "vm/Interp.h"

#include "pb_matmul.h"
#include "pb_quickstart.h"
#include "pb_quickstart_tiny.h"
#include "pb_reduction.h"
#include "pb_reduction_tiny.h"
#include "pb_scan.h"
#include "pb_transpose.h"

#include "reference.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace descend;
using Clock = std::chrono::steady_clock;

namespace {
/// Bytes requested through array new while gCountNewArray is set.
/// sim::GpuDevice::allocRaw takes every device buffer that way and the
/// library uses array new nowhere else, so around one driver call this is
/// the device memory the call allocates.
std::atomic<bool> gCountNewArray{false};
std::atomic<uint64_t> gNewArrayBytes{0};
} // namespace

void *operator new[](std::size_t N) {
  if (gCountNewArray.load(std::memory_order_relaxed))
    gNewArrayBytes.fetch_add(N, std::memory_order_relaxed);
  return ::operator new(N);
}

using Arrays = std::vector<std::vector<double>>;
using HostBufs = std::vector<rt::HostBuffer<double>>;

namespace {

/// Simulator workers. With one, runBlocks runs every launch inline on the
/// client thread. On a shared virtual machine a launch spread over four
/// threads waits for whichever one another tenant preempted: in
/// interleaved runs, run_vm throughput spread 31% between runs with 3
/// workers and 20% with 1 (README.md).
constexpr unsigned kWorkers = 1;

/// A long-lived device is retired once its requests have allocated this
/// much: sim::GpuDevice frees global memory only when it is destroyed.
constexpr size_t kDeviceBudgetBytes = 16u << 20;

/// End-to-end metrics are medians over windows of at least this much
/// time inside requests (see LoopStats).
constexpr double kWindowBusyMs = 1000.0;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Nearest-rank quantile.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

//===----------------------------------------------------------------------===//
// Spans: one per public call, held in memory until their turn ends
//===----------------------------------------------------------------------===//

class Recorder {
public:
  struct Span {
    const char *Name;
    uint64_t Req;
    Clock::time_point Begin, End;
    double ChildMs = 0.0;
  };

  /// Per span name, over every folded turn.
  struct Totals {
    uint64_t Calls = 0;
    double SelfMs = 0.0, TotalMs = 0.0;
  };

  /// Sized for the largest turn, so no request reallocates.
  Recorder() {
    Spans.reserve(1 << 12);
    Open.reserve(16);
  }

  void setRequest(uint64_t R) { Req = R; }

  size_t open(const char *Name) {
    Spans.push_back({Name, Req, Clock::now(), {}, 0.0});
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }

  void close(size_t I) {
    Spans[I].End = Clock::now();
    Open.pop_back();
    if (!Open.empty())
      Spans[Open.back()].ChildMs += msBetween(Spans[I].Begin, Spans[I].End);
  }

  /// Adds the turn's spans to the per-name totals and drops them, so a
  /// long run holds one turn of spans. Called between turns.
  void fold() {
    for (const Span &S : Spans) {
      Totals &T = ByName[S.Name];
      double Ms = msBetween(S.Begin, S.End);
      ++T.Calls;
      T.TotalMs += Ms;
      T.SelfMs += Ms - S.ChildMs; // self: minus time in child spans
    }
    Count += Spans.size();
    Spans.clear();
  }

  const std::map<std::string, Totals> &totals() const { return ByName; }
  uint64_t size() const { return Count; }

private:
  std::vector<Span> Spans;
  std::vector<size_t> Open;
  uint64_t Req = 0, Count = 0;
  std::map<std::string, Totals> ByName;
};

Recorder *gRec = nullptr; ///< null: tracing off

class SpanGuard {
public:
  explicit SpanGuard(const char *Name) {
    if (gRec)
      I = gRec->open(Name);
  }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;
  ~SpanGuard() {
    if (gRec)
      gRec->close(I);
  }

private:
  size_t I = 0;
};

//===----------------------------------------------------------------------===//
// Programs, inputs and references
//===----------------------------------------------------------------------===//

using GenRun = std::function<void(sim::GpuDevice &, HostBufs &)>;

struct ProgramSpec {
  const char *Name;
  const char *File; ///< under PERFBENCH_SRC_DIR
  const char *Nat;
  long long Size;
  GenRun Run; ///< the generated sync driver at the same binding
};

/// Sizes are picked so vm::runHostFn is >= 90% of a run_vm request and
/// the five programs' latencies stay apart on both paths (README.md);
/// they must match perfbench_gen() in CMakeLists.txt.
const std::vector<ProgramSpec> &programs() {
  static const std::vector<ProgramSpec> P = {
      {"matmul", "matmul_host.descend", "nt", 8,
       [](sim::GpuDevice &D, HostBufs &B) { gen::run_mm(D, B[0], B[1], B[2]); }},
      {"reduction", "reduction_host.descend", "nb", 4096,
       [](sim::GpuDevice &D, HostBufs &B) {
         gen::run_red(D, B[0], B[1], B[2]);
       }},
      {"quickstart", "quickstart_host.descend", "nb", 4096,
       [](sim::GpuDevice &D, HostBufs &B) { gen::run_qs(D, B[0]); }},
      {"transpose", "transpose_host.descend", "n", 256,
       [](sim::GpuDevice &D, HostBufs &B) { gen::run_tr(D, B[0], B[1]); }},
      {"scan", "scan_host.descend", "nb", 256,
       [](sim::GpuDevice &D, HostBufs &B) {
         gen::run_scan(D, B[0], B[1], B[2]);
       }},
  };
  return P;
}

/// One request's inputs (every `main` array parameter, in order) and the
/// reference's expected contents of the same arrays afterwards.
struct Case {
  Arrays In, Expect;
};

Case makeCase(const std::string &Program, long long Size, ref::Rng &R) {
  Case C;
  if (Program == "matmul") {
    size_t N = static_cast<size_t>(Size) * 16;
    C.In = {R.ints(N * N, 3), R.ints(N * N, 3), Arrays::value_type(N * N)};
    C.Expect = C.In;
    ref::matmul(C.In[0], C.In[1], C.Expect[2], N);
  } else if (Program == "reduction") {
    size_t NB = static_cast<size_t>(Size);
    C.In = {R.ints(NB * 256, 8), Arrays::value_type(NB),
            Arrays::value_type(1)};
    C.Expect = C.In;
    ref::reduction(C.In[0], C.Expect[1], C.Expect[2]);
  } else if (Program == "quickstart") {
    C.In = {R.ints(static_cast<size_t>(Size) * 256, 8)};
    C.Expect = C.In;
    ref::scale(C.Expect[0], 3.0);
  } else if (Program == "transpose") {
    size_t N = static_cast<size_t>(Size);
    C.In = {R.ints(N * N, 1000), Arrays::value_type(N * N)};
    C.Expect = C.In;
    ref::transpose(C.In[0], C.Expect[1], N);
  } else if (Program == "scan") {
    size_t NB = static_cast<size_t>(Size);
    C.In = {R.ints(NB * 256, 8), Arrays::value_type(NB * 256),
            Arrays::value_type(NB)};
    C.Expect = C.In;
    ref::blockScan(C.In[0], C.Expect[1], C.Expect[2]);
  }
  return C;
}

bool sameArrays(const Arrays &Expect, const std::vector<const double *> &Got) {
  for (size_t P = 0; P != Expect.size(); ++P)
    if (std::memcmp(Expect[P].data(), Got[P],
                    Expect[P].size() * sizeof(double)) != 0)
      return false;
  return true;
}

HostBufs makeBufs(const Arrays &In) {
  HostBufs B;
  for (const auto &A : In)
    B.emplace_back(A.size(), 0.0);
  return B;
}

void restore(HostBufs &B, const Arrays &In) {
  for (size_t P = 0; P != In.size(); ++P)
    std::memcpy(B[P].data(), In[P].data(), In[P].size() * sizeof(double));
}

bool checkBufs(const HostBufs &B, const Arrays &Expect) {
  std::vector<const double *> Got;
  for (const auto &H : B)
    Got.push_back(H.data());
  return sameArrays(Expect, Got);
}

size_t bytesOf(const Arrays &In) {
  size_t N = 0;
  for (const auto &A : In)
    N += A.size() * sizeof(double);
  return N;
}

/// A Fisher-Yates permutation of [0, N) drawn from \p R.
std::vector<size_t> permutation(size_t N, ref::Rng &R) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.next() % I]);
  return P;
}

//===----------------------------------------------------------------------===//
// The vm path: text -> checked result, the public calls of executeMain
//===----------------------------------------------------------------------===//

struct VmOutcome {
  bool Ok = false;
  std::string Error;
  obs::LaunchStats Stats; ///< totals, when counted
  double RunMs = 0.0;     ///< vm::runHostFn alone
};

/// One run_vm request: a fresh Session (parse, instantiate, typecheck),
/// vm::compile, a fresh device and vm::runHostFn over \p In. Output
/// arrays land in \p Held.
VmOutcome vmRequest(const std::string &Source, const ProgramSpec &P,
                    const Arrays &In,
                    std::vector<std::shared_ptr<vm::HostArray>> &Held,
                    bool Counted = false) {
  SpanGuard Req("request");
  VmOutcome O;
  CompilerInvocation Inv;
  Inv.BufferName = P.File;
  Inv.Defines[P.Nat] = P.Size;
  Session S(Inv);
  bool Front;
  {
    SpanGuard G("parse");
    Front = S.parse(Source);
  }
  if (Front) {
    SpanGuard G("instantiate");
    Front = S.instantiate();
  }
  if (Front) {
    SpanGuard G("typecheck");
    Front = S.typecheck();
  }
  if (!Front) {
    O.Error = S.renderDiagnostics();
    return O;
  }
  vm::CompileVmResult C;
  {
    SpanGuard G("vm_compile");
    C = vm::compile(*S.module(), Inv.Passes);
  }
  const vm::HostFnIR *Main = C.Ok ? C.Program->findHostFn("main") : nullptr;
  if (!Main || Main->Params.size() != In.size()) {
    O.Error = C.Ok ? "unexpected `main` signature" : C.Error;
    return O;
  }
  sim::GpuDevice Dev;
  if (Counted)
    Dev.setCounters(true);
  std::vector<vm::HostVal> Args;
  Held.clear();
  for (size_t I = 0; I != In.size(); ++I) {
    const vm::HostFnIR::Param &Par = Main->Params[I];
    if (Par.K != vm::HostFnIR::Param::HostArr ||
        Par.Elem != ScalarKind::F64 || Par.Count != In[I].size()) {
      O.Error = "unexpected `main` parameter " + Par.Name;
      return O;
    }
    auto A = std::make_shared<vm::HostArray>();
    A->Count = Par.Count;
    const auto *Raw = reinterpret_cast<const std::byte *>(In[I].data());
    A->Bytes.assign(Raw, Raw + Par.Count * sizeof(double));
    Held.push_back(A);
    Args.push_back(vm::HostVal::array(std::move(A)));
  }
  Clock::time_point T0 = Clock::now();
  vm::RunStatus St;
  {
    SpanGuard G("vm_run");
    St = vm::runHostFn(Dev, *C.Program, *Main, std::move(Args));
  }
  O.RunMs = msBetween(T0, Clock::now());
  if (Counted)
    O.Stats = Dev.totalStats();
  O.Ok = St.Ok;
  O.Error = St.Error;
  return O;
}

bool checkHeld(const std::vector<std::shared_ptr<vm::HostArray>> &Held,
               const Arrays &Expect) {
  std::vector<const double *> Got;
  for (const auto &A : Held)
    Got.push_back(reinterpret_cast<const double *>(A->Bytes.data()));
  return Held.size() == Expect.size() && sameArrays(Expect, Got);
}

//===----------------------------------------------------------------------===//
// compile_cold: the request stream and its verdicts
//===----------------------------------------------------------------------===//

struct CorpusEntry {
  const char *File; ///< relative to the repository root
  const char *Nat;
  long long Step; ///< bindings are multiples of Step (transpose: n % 32)
  std::vector<const char *> Fns; ///< kernels every artifact must name
};

const std::vector<CorpusEntry> &corpus() {
  static const std::vector<CorpusEntry> C = {
      {"kernels/matmul.descend", "nt", 1, {"matmul"}},
      {"kernels/reduce.descend", "nb", 1, {"reduce"}},
      {"kernels/scale2.descend", "nb", 1, {"scale2"}},
      {"kernels/scale_vec.descend", "nb", 1, {"scale_vec"}},
      {"kernels/scan.descend", "nb", 1, {"scan_blocks", "add_sums"}},
      {"kernels/transpose.descend", "n", 32, {"transpose"}},
      {"programs/matmul_host.descend", "nt", 1, {"matmul"}},
      {"programs/reduction_host.descend", "nb", 1, {"reduce"}},
      {"programs/quickstart_host.descend", "nb", 1, {"scale_vec"}},
  };
  return C;
}

/// The negative fixtures and the diagnostic each must be rejected with.
const std::vector<std::pair<const char *, const char *>> &badFixtures() {
  static const std::vector<std::pair<const char *, const char *>> B = {
      {"programs/bad_host_deref.descend", "cannot dereference"},
      {"programs/bad_launch_config.descend",
       "mismatched launch configuration"},
      {"programs/bad_size_mismatch.descend", "cannot transfer"},
      {"programs/bad_swapped_copy.descend", "are swapped"},
  };
  return B;
}

/// K independent accesses in one thread: the BM_TypecheckScaling shape.
std::string scalingKernel(int K) {
  std::ostringstream Src;
  Src << "fn k(a: &uniq gpu.global [f64; " << 256 * K << "])\n"
      << "-[grid: gpu.grid<X<1>, X<256>>]-> () {\n"
      << "  sched(X) block in grid {\n    sched(X) thread in block {\n";
  for (int I = 0; I != K; ++I)
    Src << "      a.group::<" << K << ">[[thread]][" << I << "] = " << I
        << ".0;\n";
  Src << "    }\n  }\n}\n";
  return Src.str();
}

const int kScalingKs[] = {4, 16, 32, 64, 128};
const char *const kBackends[] = {"vm", "sim", "cuda"};

struct CompileItem {
  service::CompileRequest Req;
  bool ExpectOk = true;
  bool ExpectHit = false;
  std::string ExpectDiag;         ///< reject: substring of the diagnostic
  std::vector<std::string> Fns;   ///< accept: names the artifact must hold
};

/// The seeded compile_cold request stream. Each round of 40 holds every
/// corpus file on every backend at a fresh -D binding (27), every
/// scaling K (5), every negative fixture (4), shuffled by the seed, and a
/// repeat of the latest accepted key at every 10th position (4).
class CompileStream {
public:
  CompileStream(const std::string &Root, uint64_t Seed, std::string Salt)
      : R(Seed ^ 0xc0ffee), Salt(std::move(Salt)) {
    for (const CorpusEntry &E : corpus())
      Sources.push_back(slurp(Root + "/" + E.File));
    for (const auto &B : badFixtures())
      BadSources.push_back(slurp(Root + "/" + B.first));
    for (int K : kScalingKs)
      ScalingSources.push_back(scalingKernel(K));
    // Fresh bindings start at a seeded offset and only grow, so no timed
    // key repeats except through the deliberate 1-in-10 repeat.
    NextBinding = 2 + static_cast<long long>(R.next() % 512);
  }

  CompileItem next() {
    if (Pos % 10 == 9 && LastAccepted) {
      ++Pos;
      CompileItem I = *LastAccepted;
      I.ExpectHit = true;
      return I;
    }
    if (Round.empty() || RoundPos == Round.size())
      newRound();
    CompileItem I = make(Round[RoundPos++]);
    ++Pos;
    if (I.ExpectOk)
      LastAccepted = std::make_unique<CompileItem>(I);
    return I;
  }

  static constexpr size_t NumCorpus = 27, NumScaling = 5, NumBad = 4;
  static constexpr size_t RoundSize = 40;

private:

  void newRound() {
    Round = permutation(NumCorpus + NumScaling + NumBad, R);
    RoundPos = 0;
    ++RoundNo;
  }

  CompileItem make(size_t Slot) {
    CompileItem I;
    std::string Prefix = Salt.empty() ? "" : "// " + Salt + "\n";

    if (Slot < NumCorpus) {
      const CorpusEntry &E = corpus()[Slot / 3];
      I.Req.Source = Prefix + Sources[Slot / 3];
      I.Req.Backend = kBackends[Slot % 3];
      I.Req.Defines[E.Nat] = E.Step * NextBinding++;
      I.Req.BufferName = E.File;
      for (const char *F : E.Fns)
        I.Fns.push_back(F);
    } else if (Slot < NumCorpus + NumScaling) {
      size_t K = Slot - NumCorpus;
      // Salted by request number: the generated text itself repeats.
      I.Req.Source = Prefix + "// request " + std::to_string(Pos) + "\n" +
                     ScalingSources[K];
      I.Req.Backend = kBackends[(RoundNo + K) % 3];
      I.Req.BufferName = "scaling.descend";
      I.Fns.push_back("k");
    } else {
      size_t B = Slot - NumCorpus - NumScaling;
      I.Req.Source = Prefix + BadSources[B];
      I.Req.Backend = kBackends[(RoundNo + B) % 3];
      I.Req.BufferName = badFixtures()[B].first;
      I.ExpectOk = false;
      I.ExpectDiag = badFixtures()[B].second;
    }
    return I;
  }

  ref::Rng R;
  std::string Salt;
  std::vector<std::string> Sources, BadSources, ScalingSources;
  std::vector<size_t> Round;
  size_t RoundPos = 0, RoundNo = 0;
  uint64_t Pos = 0;
  long long NextBinding = 2;
  std::unique_ptr<CompileItem> LastAccepted;
};

/// Checks one reply against the item's known verdict. Returns the verdict
/// letter for the exact-repeat digest: A(ccept), H(it), R(eject); 0 when
/// the reply is wrong.
char checkVerdict(const CompileItem &I, const service::CompileReply &Rep) {
  if (!I.ExpectOk)
    return !Rep.Ok &&
                   Rep.Diagnostics.find(I.ExpectDiag) != std::string::npos
               ? 'R'
               : 0;
  if (!Rep.Ok || Rep.Artifact.empty() || Rep.CacheHit != I.ExpectHit)
    return 0;
  for (const std::string &F : I.Fns) {
    if (Rep.Artifact.find(F) == std::string::npos)
      return 0;
    if (I.Req.Backend == "vm" && (!Rep.Program || !Rep.Program->findKernel(F)))
      return 0;
  }
  return I.ExpectHit ? 'H' : 'A';
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// A workload's constructor makes the harness's own data (inputs,
/// references, host buffers); warm() is the program's set-up, timed as
/// setup_s.
struct Workload {
  virtual ~Workload() = default;
  /// Pays every lazy set-up cost once, outside the timed loop.
  virtual bool warm() = 0;
  /// Request \p I: prepares inputs, times the request into \p LatMs and
  /// checks its output. Returns whether the output was correct.
  virtual bool request(uint64_t I, double &LatMs) = 0;
  /// Requests in one turn: each request kind once, in a fixed order.
  virtual size_t period() const = 0;
};

struct Bench {
  uint64_t Seed;
  std::vector<std::string> Sources;     ///< per programs() entry
  std::vector<std::vector<Case>> Cases; ///< per program, kInputSets each
  static constexpr size_t kInputSets = 2;

  explicit Bench(uint64_t Seed) : Seed(Seed) {
    ref::Rng R(Seed);
    for (const ProgramSpec &P : programs()) {
      Sources.push_back(slurp(std::string(PERFBENCH_SRC_DIR) + "/" + P.File));
      Cases.emplace_back();
      for (size_t I = 0; I != kInputSets; ++I)
        Cases.back().push_back(makeCase(P.Name, P.Size, R));
    }
  }
};

/// run_vm and run_generated: a turn is one request per program, in the
/// fixed programs() order; the seed draws which input set each request
/// uses. Allocation sizes and their order, and with them the memory
/// behaviour of a run, are then the same for every seed; only the values
/// differ. (A seeded program order moved p90 by up to 40% between seeds.)
struct ProgramRotation {
  std::vector<size_t> Inputs; ///< input set per request, cycled
  ProgramRotation(const Bench &B, uint64_t Salt) {
    ref::Rng R(B.Seed ^ Salt);
    for (size_t I = 0; I != 16 * programs().size(); ++I)
      Inputs.push_back(R.next() % Bench::kInputSets);
  }
  size_t program(uint64_t I) const { return I % programs().size(); }
  size_t input(uint64_t I) const { return Inputs[I % Inputs.size()]; }
};

class RunVm : public Workload {
public:
  explicit RunVm(const Bench &B) : B(B), Rot(B, 0x766d) {}

  bool warm() override {
    for (size_t P = 0; P != programs().size(); ++P)
      if (!one(P, 0, nullptr))
        return false;
    return true;
  }

  bool request(uint64_t I, double &LatMs) override {
    return one(Rot.program(I), Rot.input(I), &LatMs);
  }

  size_t period() const override { return programs().size(); }

private:
  bool one(size_t P, size_t In, double *LatMs) {
    const Case &C = B.Cases[P][In];
    Clock::time_point T0 = Clock::now();
    VmOutcome O = vmRequest(B.Sources[P], programs()[P], C.In, Held);
    if (LatMs)
      *LatMs = msBetween(T0, Clock::now());
    if (!O.Ok)
      std::fprintf(stderr, "perfbench: %s on the vm: %s\n",
                   programs()[P].Name, O.Error.c_str());
    return O.Ok && checkHeld(Held, C.Expect);
  }

  const Bench &B;
  ProgramRotation Rot;
  std::vector<std::shared_ptr<vm::HostArray>> Held;
};

/// A long-lived device, retired at the first rotation turn that starts
/// after its requests allocated kDeviceBudgetBytes. Retiring only at turn
/// starts gives every turn of a run the same allocation pattern.
class DeviceSlot {
public:
  sim::GpuDevice &get(size_t RequestBytes, bool TurnStart) {
    if (!Dev || (TurnStart && Used >= kDeviceBudgetBytes)) {
      Dev.reset();
      Dev = std::make_unique<sim::GpuDevice>();
      Used = 0;
    }
    Used += RequestBytes;
    return *Dev;
  }

private:
  std::unique_ptr<sim::GpuDevice> Dev;
  size_t Used = 0;
};

class RunGenerated : public Workload {
public:
  explicit RunGenerated(const Bench &B) : B(B), Rot(B, 0x67656e) {
    for (const auto &Cs : B.Cases)
      Bufs.push_back(makeBufs(Cs[0].In));
  }

  bool warm() override {
    for (size_t P = 0; P != programs().size(); ++P)
      if (!one(P, 0, nullptr, true))
        return false;
    return true;
  }

  bool request(uint64_t I, double &LatMs) override {
    return one(Rot.program(I), Rot.input(I), &LatMs, I % period() == 0);
  }

  size_t period() const override { return programs().size(); }

private:
  bool one(size_t P, size_t In, double *LatMs, bool TurnStart) {
    const Case &C = B.Cases[P][In];
    restore(Bufs[P], C.In);
    sim::GpuDevice &Dev = Slot.get(bytesOf(C.In), TurnStart);
    try {
      SpanGuard Req("request");
      Clock::time_point T0 = Clock::now();
      {
        SpanGuard G("gen_run");
        programs()[P].Run(Dev, Bufs[P]);
      }
      if (LatMs)
        *LatMs = msBetween(T0, Clock::now());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: generated %s: %s\n",
                   programs()[P].Name, E.what());
      return false;
    }
    return checkBufs(Bufs[P], C.Expect);
  }

  const Bench &B;
  ProgramRotation Rot;
  DeviceSlot Slot;
  std::vector<HostBufs> Bufs;
};

/// The two serving-sized programs (one block per request).
struct TinyCases {
  static constexpr size_t kSets = 16;
  std::vector<Case> Qs, Red;
  explicit TinyCases(uint64_t Seed) {
    ref::Rng R(Seed ^ 0x7469);
    for (size_t I = 0; I != kSets; ++I) {
      Qs.push_back(makeCase("quickstart", 1, R));
      Red.push_back(makeCase("reduction", 1, R));
    }
  }
};

class ServeTiny : public Workload {
public:
  explicit ServeTiny(uint64_t Seed)
      : T(Seed), QBuf(makeBufs(T.Qs[0].In)), RBuf(makeBufs(T.Red[0].In)) {
    ref::Rng R(Seed ^ 0x7365);
    Order = permutation(TinyCases::kSets, R);
  }

  bool warm() override {
    double Lat;
    return request(0, Lat) && request(2, Lat);
  }

  /// A turn is quickstart nb=1 twice, then reduction nb=1 once. With a 1:1
  /// mix, p50 would sit on the boundary between the two programs'
  /// latencies and jump between them from run to run.
  bool request(uint64_t I, double &LatMs) override {
    bool Quick = I % 3 != 2;
    const Case &C = (Quick ? T.Qs : T.Red)[Order[(I / 3) % Order.size()]];
    HostBufs &Buf = Quick ? QBuf : RBuf;
    restore(Buf, C.In);
    sim::GpuDevice &Dev = Slot.get(bytesOf(C.In), I % period() == 0);
    try {
      SpanGuard Req("request");
      Clock::time_point T0 = Clock::now();
      {
        SpanGuard G("gen_run");
        if (Quick)
          gen::run_qs1(Dev, Buf[0]);
        else
          gen::run_red1(Dev, Buf[0], Buf[1], Buf[2]);
      }
      LatMs = msBetween(T0, Clock::now());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: serve_tiny: %s\n", E.what());
      return false;
    }
    return checkBufs(Buf, C.Expect);
  }

  size_t period() const override { return 3 * Order.size(); }

private:
  TinyCases T;
  HostBufs QBuf, RBuf;
  std::vector<size_t> Order;
  DeviceSlot Slot;
};

class CompileCold : public Workload {
public:
  explicit CompileCold(uint64_t Seed)
      : Stream(DESCEND_ROOT, Seed, ""), WarmStream(DESCEND_ROOT, Seed, "warm") {}

  /// Starts the service, then compiles one full round on salted keys the
  /// timed stream never produces.
  bool warm() override {
    Svc.emplace();
    for (size_t I = 0; I != CompileStream::RoundSize; ++I) {
      CompileItem It = WarmStream.next();
      if (!checkVerdict(It, Svc->compile(It.Req)))
        return false;
    }
    return true;
  }

  bool request(uint64_t, double &LatMs) override {
    CompileItem It = Stream.next();
    service::CompileReply Rep;
    {
      SpanGuard Req("request");
      Clock::time_point T0 = Clock::now();
      {
        SpanGuard G("service_compile");
        Rep = Svc->compile(It.Req);
      }
      LatMs = msBetween(T0, Clock::now());
    }
    if (!checkVerdict(It, Rep)) {
      std::fprintf(stderr, "perfbench: wrong verdict for %s (%s)\n",
                   It.Req.BufferName.c_str(), It.Req.Backend.c_str());
      return false;
    }
    return true;
  }

  size_t period() const override { return CompileStream::RoundSize; }

private:
  std::optional<service::CompileService> Svc; ///< made by warm(), in set-up
  CompileStream Stream, WarmStream;
};

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

struct LoopStats {
  uint64_t Attempted = 0, Failed = 0, Correct = 0;
  /// One value per window: whole rotation turns, at least kWindowBusyMs
  /// inside requests. A metric is a quartile over windows, so a few
  /// seconds of machine noise move a few windows, not the result.
  std::vector<double> WinRps, WinP50, WinP90;

  void add(double LatMs) {
    ++Correct;
    Win[WinN++] = LatMs;
    WinBusyMs += LatMs;
  }

  /// Closes the window once it is long enough, or when the next turn
  /// might not fit in the buffer.
  void endTurn(size_t TurnSize, bool Last = false) {
    if (WinN == 0 ||
        (WinBusyMs < kWindowBusyMs && WinN + TurnSize <= Win.size() && !Last))
      return;
    WinRps.push_back(WinN / (WinBusyMs / 1e3));
    auto At = [&](double Q) {
      auto *Nth = Win.data() + std::max<size_t>(
                                   1, static_cast<size_t>(std::ceil(Q * WinN))) -
                  1;
      std::nth_element(Win.data(), Nth, Win.data() + WinN);
      return *Nth;
    };
    WinP50.push_back(At(0.5));
    WinP90.push_back(At(0.9));
    WinN = 0;
    WinBusyMs = 0.0;
  }

  /// The run's figures are the level held in three quarters of its
  /// windows: the first quartile of the windows' throughputs (correct
  /// requests per second inside requests, client work excluded) and the
  /// third quartile of their latencies. A shared machine runs in short
  /// fast bursts, which this leaves out; between runs it spread less than
  /// the median over windows (README.md).
  double rps() const { return quantile(WinRps, 0.25); }
  double p50() const { return quantile(WinP50, 0.75); }
  double p90() const { return quantile(WinP90, 0.75); }

private:
  /// Latencies (ms) of the open window. Allocated and touched once, before
  /// the peak-RSS mark is reset, so peak_rss_mb does not count it.
  std::vector<double> Win = std::vector<double>(1 << 20);
  size_t WinN = 0;
  double WinBusyMs = 0.0;
};

void runOne(Workload &W, uint64_t &Next, LoopStats &S) {
  if (gRec)
    gRec->setRequest(Next);
  double Lat = 0.0;
  bool Ok = W.request(Next++, Lat);
  ++S.Attempted;
  if (!Ok) {
    ++S.Failed;
    return;
  }
  S.add(Lat);
}

void runTurn(Workload &W, uint64_t &Next, LoopStats &S) {
  for (size_t I = 0; I != W.period(); ++I)
    runOne(W, Next, S);
  S.endTurn(W.period());
}

Clock::time_point deadline(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

//===----------------------------------------------------------------------===//
// The layer probe (traced runs) and the exact counts
//===----------------------------------------------------------------------===//

/// Metric name -> value; printed as one JSON object.
using Metrics = std::map<std::string, double>;

struct CountResult {
  Metrics M;           ///< exact counts, also per-layer metrics
  std::string Verdicts; ///< compile_cold verdict letters, two rounds
  bool Ok = true;
  /// Memory accesses (global and shared loads and stores) of the five
  /// programs, the same on both paths.
  uint64_t Accesses = 0;
};

/// Device memory one call of \p Run allocates, in bytes.
template <typename F> uint64_t deviceBytes(F &&Run) {
  gNewArrayBytes = 0;
  gCountNewArray = true;
  Run();
  gCountNewArray = false;
  return gNewArrayBytes;
}

uint64_t accesses(const obs::LaunchStats &S) {
  return S.globalLoads() + S.globalStores() + S.sharedLoads() +
         S.sharedStores();
}

/// Everything that must repeat exactly across runs: artifact sizes,
/// bytecode sizes, the sim counters of both execution paths (which must
/// also agree with each other), the device memory of one call of each
/// generated driver and the compile_cold verdicts.
CountResult counts(const Bench &B) {
  CountResult R;
  double SimBytes = 0, CudaBytes = 0, Claims = 0, Launches = 0;
  for (size_t P = 0; P != programs().size(); ++P) {
    const ProgramSpec &Spec = programs()[P];
    CompilerInvocation Inv;
    Inv.BufferName = Spec.File;
    Inv.Defines[Spec.Nat] = Spec.Size;
    Session S(Inv);
    if (!S.parse(B.Sources[P]) || !S.instantiate() || !S.typecheck()) {
      std::fprintf(stderr, "perfbench: %s rejected\n", Spec.Name);
      R.Ok = false;
      continue;
    }
    for (const char *Be : {"sim", "cuda"}) {
      S.invocation().BackendName = Be;
      codegen::GenResult G = S.emit();
      R.Ok &= G.Ok;
      (std::string(Be) == "sim" ? SimBytes : CudaBytes) += G.Code.size();
    }
    vm::CompileVmResult C = vm::compile(*S.module());
    uint64_t Instrs = 0;
    std::function<void(const std::vector<vm::VmNode> &)> Walk =
        [&](const std::vector<vm::VmNode> &Ns) {
          for (const vm::VmNode &N : Ns) {
            Instrs += N.Body.Instrs.size() + N.Lo.Instrs.size() +
                      N.Hi.Instrs.size();
            Walk(N.Children);
          }
        };
    if (C.Ok)
      for (const vm::VmKernel &K : C.Program->Kernels)
        Walk(K.Nodes);
    R.M[std::string("vm.bytecode_instrs.") + Spec.Name] = Instrs;

    const Case &Cs = B.Cases[P][0];
    std::vector<std::shared_ptr<vm::HostArray>> Held;
    VmOutcome V;
    uint64_t VmBytes = deviceBytes(
        [&] { V = vmRequest(B.Sources[P], Spec, Cs.In, Held, true); });
    bool VmOk = V.Ok && checkHeld(Held, Cs.Expect);

    sim::GpuDevice Dev;
    Dev.setCounters(true);
    HostBufs Bufs = makeBufs(Cs.In);
    restore(Bufs, Cs.In);
    bool GenOk = true;
    uint64_t DevBytes = 0;
    try {
      DevBytes = deviceBytes([&] { Spec.Run(Dev, Bufs); });
    } catch (const std::exception &) {
      GenOk = false;
    }
    GenOk = GenOk && checkBufs(Bufs, Cs.Expect);
    obs::LaunchStats G = Dev.totalStats();
    bool Agree = V.Stats == G && VmBytes == DevBytes;
    if (!VmOk || !GenOk || !Agree) {
      std::fprintf(stderr,
                   "perfbench: %s: vm ok=%d, generated ok=%d, counters and "
                   "device bytes %s\n",
                   Spec.Name, VmOk, GenOk,
                   Agree ? "agree" : "DIFFER between the paths");
      R.Ok = false;
    }
    std::string N = Spec.Name;
    R.M[N + ".global_loads"] = G.globalLoads();
    R.M[N + ".global_stores"] = G.globalStores();
    R.M[N + ".shared_transactions"] = G.sharedTransactions();
    R.M[N + ".bank_conflicts"] = G.bankConflicts();
    R.M[N + ".barriers"] = G.barriers();
    R.M[N + ".device_bytes"] = DevBytes;
    Claims += G.ChunkClaims;
    Launches += G.Launches;
    R.Accesses += accesses(G);
  }
  R.M["artifact.sim.bytes"] = SimBytes;
  R.M["artifact.cuda.bytes"] = CudaBytes;
  R.M["sim.chunk_claims_per_launch"] = Launches ? Claims / Launches : 0;

  // The serve_tiny requests: one call of each nb=1 driver.
  TinyCases T(B.Seed);
  sim::GpuDevice Dev;
  HostBufs Q = makeBufs(T.Qs[0].In), Red = makeBufs(T.Red[0].In);
  restore(Q, T.Qs[0].In);
  restore(Red, T.Red[0].In);
  try {
    R.M["quickstart_nb1.device_bytes"] =
        deviceBytes([&] { gen::run_qs1(Dev, Q[0]); });
    R.M["reduction_nb1.device_bytes"] =
        deviceBytes([&] { gen::run_red1(Dev, Red[0], Red[1], Red[2]); });
  } catch (const std::exception &) {
    R.Ok = false;
  }
  R.Ok &= checkBufs(Q, T.Qs[0].Expect) && checkBufs(Red, T.Red[0].Expect);

  service::CompileService Svc;
  CompileStream Stream(DESCEND_ROOT, B.Seed, "");
  for (int I = 0; I != 80; ++I) {
    CompileItem It = Stream.next();
    char V = checkVerdict(It, Svc.compile(It.Req));
    R.Ok &= V != 0;
    R.Verdicts += V ? V : '?';
  }
  return R;
}

/// Per-layer metrics from a fixed probe, identical on every workload so
/// the numbers of two traced runs compare layer by layer.
Metrics layerProbe(const Bench &B, const CountResult &Counts, bool &Ok) {
  Metrics M = Counts.M;

  // Front end and emission, three rounds over the five programs; one time
  // per public call.
  std::map<std::string, std::vector<double>> Front;
  auto Time = [&](const char *Name, auto &&Call) {
    Clock::time_point T0 = Clock::now();
    Ok &= Call();
    Front[Name].push_back(msBetween(T0, Clock::now()));
  };
  double ParsedBytes = 0;
  for (int Round = 0; Round != 3; ++Round)
    for (size_t P = 0; P != programs().size(); ++P) {
      const ProgramSpec &Spec = programs()[P];
      CompilerInvocation Inv;
      Inv.BufferName = Spec.File;
      Inv.Defines[Spec.Nat] = Spec.Size;
      Session S(Inv);
      Time("parse", [&] { return S.parse(B.Sources[P]); });
      ParsedBytes += B.Sources[P].size();
      Time("instantiate", [&] { return S.instantiate(); });
      Time("typecheck", [&] { return S.typecheck(); });
      for (auto [Be, Name] : {std::pair{"vm", "emit.vm"},
                              std::pair{"sim", "emit.sim"},
                              std::pair{"cuda", "emit.cuda"}}) {
        S.invocation().BackendName = Be;
        Time(Name, [&] { return S.emit().Ok; });
      }
      Time("vm_compile", [&] { return vm::compile(*S.module()).Ok; });
    }

  // The vm path, three requests per program.
  std::vector<std::vector<double>> VmRun(programs().size());
  double VmRunTotal = 0, VmReqTotal = 0;
  for (int Round = 0; Round != 3; ++Round)
    for (size_t P = 0; P != programs().size(); ++P) {
      std::vector<std::shared_ptr<vm::HostArray>> Held;
      const Case &C = B.Cases[P][Round % Bench::kInputSets];
      Clock::time_point T0 = Clock::now();
      VmOutcome O = vmRequest(B.Sources[P], programs()[P], C.In, Held);
      VmReqTotal += msBetween(T0, Clock::now());
      VmRunTotal += O.RunMs;
      VmRun[P].push_back(O.RunMs);
      Ok &= O.Ok && checkHeld(Held, C.Expect);
    }

  // The generated drivers, five calls per program on one device each.
  std::vector<std::vector<double>> GenRun(programs().size());
  for (size_t P = 0; P != programs().size(); ++P) {
    const Case &C = B.Cases[P][0];
    HostBufs Bufs = makeBufs(C.In);
    DeviceSlot Slot;
    for (int I = 0; I != 5; ++I) {
      restore(Bufs, C.In);
      sim::GpuDevice &Dev = Slot.get(bytesOf(C.In), true);
      Clock::time_point T0 = Clock::now();
      programs()[P].Run(Dev, Bufs);
      GenRun[P].push_back(msBetween(T0, Clock::now()));
      Ok &= checkBufs(Bufs, C.Expect);
    }
  }

  for (const auto &[Name, Ms] : Front)
    M[Name + ".ms"] = median(Ms);
  double ParseTotal = 0;
  for (double V : Front["parse"])
    ParseTotal += V;
  M["parse.mb_per_s"] = ParsedBytes / 1e6 / (ParseTotal / 1e3);

  double VmMedSum = 0, GenMedSum = 0;
  for (size_t P = 0; P != programs().size(); ++P) {
    std::string N = programs()[P].Name;
    double Vm = median(VmRun[P]), Gen = median(GenRun[P]);
    M["vm.run_ms." + N] = Vm;
    M["gen.run_ms." + N] = Gen;
    M["vm_vs_generated." + N] = Vm / Gen;
    VmMedSum += Vm;
    GenMedSum += Gen;
  }
  M["vm.share"] = VmRunTotal / VmReqTotal;
  M["vm.ns_per_access"] = VmMedSum * 1e6 / Counts.Accesses;
  M["gen.ns_per_access"] = GenMedSum * 1e6 / Counts.Accesses;

  // Type-check scaling: per-access time at K=128 over K=4.
  auto PerAccess = [&](int K) {
    std::string Src = scalingKernel(K);
    std::vector<double> Ms;
    for (int I = 0; I != 15; ++I) {
      CompilerInvocation Inv;
      Session S(Inv);
      Ok &= S.parse(Src) && S.instantiate();
      Clock::time_point T0 = Clock::now();
      Ok &= S.typecheck();
      Ms.push_back(msBetween(T0, Clock::now()));
    }
    return median(Ms) / K;
  };
  M["typecheck.scaling"] = PerAccess(128) / PerAccess(4);

  // The compile service: one compile_cold round cold, then cache probes.
  {
    service::CompileService Svc;
    CompileStream Stream(DESCEND_ROOT, B.Seed, "probe");
    std::vector<double> Miss, Hit;
    std::vector<service::CompileRequest> Keys;
    for (int I = 0; I != 40; ++I) {
      CompileItem It = Stream.next();
      service::CompileReply Rep = Svc.compile(It.Req);
      Ok &= checkVerdict(It, Rep) != 0;
      if (Rep.Ok && !Rep.CacheHit) {
        Miss.push_back(Rep.CompileMs);
        Keys.push_back(It.Req);
      }
    }
    service::ServiceStats St = Svc.stats();
    M["service.hit_ratio"] =
        static_cast<double>(St.Hits) / (St.Hits + St.Misses + St.Failures);
    for (int I = 0; I != 500; ++I) {
      const service::CompileRequest &Req = Keys[I % Keys.size()];
      Clock::time_point T0 = Clock::now();
      service::CompileReply Rep = Svc.compile(Req);
      Hit.push_back(msBetween(T0, Clock::now()) * 1e3);
      Ok &= Rep.CacheHit;
    }
    M["service.miss_ms"] = median(Miss);
    M["service.hit_us"] = median(Hit);
  }

  // The sync tiny driver's public pieces one by one, then the stream and
  // graph overloads of the serve_tiny request mix.
  {
    TinyCases T(B.Seed);
    sim::GpuDevice Dev;
    HostBufs Q = makeBufs(T.Qs[0].In);
    std::vector<double> Alloc, Kernel, Check, Copy;
    for (int I = 0; I != 2000; ++I) {
      const Case &C = T.Qs[I % TinyCases::kSets];
      restore(Q, C.In);
      Clock::time_point T0 = Clock::now();
      auto D = rt::allocCopy(Dev, Q[0]);
      Clock::time_point T1 = Clock::now();
      gen::scale_vec_qs1(Dev, D);
      Clock::time_point T2 = Clock::now();
      rt::checkDevice(Dev, "launch scale_vec");
      Clock::time_point T3 = Clock::now();
      rt::copyToHost(Q[0], D, "host_vec", "d_vec");
      Clock::time_point T4 = Clock::now();
      Alloc.push_back(msBetween(T0, T1) * 1e3);
      Kernel.push_back(msBetween(T1, T2) * 1e3);
      Check.push_back(msBetween(T2, T3) * 1e3);
      Copy.push_back(msBetween(T3, T4) * 1e3);
      Ok &= checkBufs(Q, C.Expect);
    }
    M["serve.alloc_copy_us"] = median(Alloc);
    M["serve.kernel_us"] = median(Kernel);
    M["serve.check_device_us"] = median(Check);
    M["serve.copy_to_host_us"] = median(Copy);

    HostBufs R = makeBufs(T.Red[0].In);
    auto Serve = [&](auto &&Quick, auto &&Red) {
      const int N = 2100; // whole turns of the mix
      double Busy = 0;
      for (int I = 0; I != N; ++I) {
        bool IsQuick = I % 3 != 2; // the serve_tiny mix
        const Case &C = (IsQuick ? T.Qs : T.Red)[(I / 3) % TinyCases::kSets];
        HostBufs &Buf = IsQuick ? Q : R;
        restore(Buf, C.In);
        Clock::time_point T0 = Clock::now();
        if (IsQuick)
          Quick();
        else
          Red();
        Busy += msBetween(T0, Clock::now());
        Ok &= checkBufs(Buf, C.Expect);
      }
      return N / (Busy / 1e3);
    };
    sim::GpuDevice SDev;
    sim::Stream S(SDev);
    M["serve.stream_rps"] =
        Serve([&] { gen::run_qs1(S, Q[0]); },
              [&] { gen::run_red1(S, R[0], R[1], R[2]); });
    sim::GpuDevice GDev;
    sim::Stream GS(GDev);
    sim::GraphExec GQ, GR;
    M["serve.graph_rps"] =
        Serve([&] { gen::run_qs1(GS, GQ, Q[0]); },
              [&] { gen::run_red1(GS, GR, R[0], R[1], R[2]); });
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonObject(const Metrics &M) {
  std::string S = "{";
  for (const auto &[K, V] : M)
    S += (S.size() > 1 ? ", \"" : "\"") + K + "\": " + jsonNumber(V);
  return S + "}";
}

/// A field of /proc/self/status ("VmRSS", "VmHWM"), in MB.
double statusMb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Key;
  double KiB = 0;
  while (In >> Key)
    if (Key == std::string(Field) + ":" && In >> KiB)
      return KiB / 1024.0;
  std::fprintf(stderr, "perfbench: no %s in /proc/self/status\n", Field);
  std::exit(2);
}

/// Resets the kernel's peak-RSS mark (VmHWM, which getrusage reports as
/// ru_maxrss) to the current RSS, and returns that RSS in MB.
double resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  if (!(Out << "5" << std::flush)) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS\n");
    std::exit(2);
  }
  return statusMb("VmRSS");
}

struct Options {
  std::string Workload, Mode = "run";
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload run_vm|run_generated|"
               "serve_tiny|compile_cold --seed N --seconds S "
               "[--mode run|setup|counts] [--trace]\n");
  return 2;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &Name, uint64_t Seed,
             const std::function<const Bench &()> &Programs) {
  if (Name == "run_vm")
    return std::make_unique<RunVm>(Programs());
  if (Name == "run_generated")
    return std::make_unique<RunGenerated>(Programs());
  if (Name == "serve_tiny")
    return std::make_unique<ServeTiny>(Seed);
  if (Name == "compile_cold")
    return std::make_unique<CompileCold>(Seed);
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--trace")
      O.Trace = true;
    else if (A == "--workload" && HasValue)
      O.Workload = Argv[++I];
    else if (A == "--mode" && HasValue)
      O.Mode = Argv[++I];
    else if (A == "--seed" && HasValue)
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      O.Seconds = std::strtod(Argv[++I], nullptr);
    else
      return usage();
  }
  if (O.Mode != "run" && O.Mode != "setup" && O.Mode != "counts")
    return usage();

  // Timings taken with faults, watchdogs or stray tracing armed measure
  // something else; refuse, as tools/run_benches.sh does. The library's
  // tracing is refused in traced runs too: they turn it on and off
  // themselves, for the traced turns only.
  for (const char *Var : {"DESCEND_FAULTS", "DESCEND_WATCHDOG", "DESCEND_TRACE"})
    if (const char *V = std::getenv(Var); V && *V) {
      std::fprintf(stderr, "perfbench: refusing to time with %s set\n", Var);
      return 2;
    }
  setenv("DESCEND_WORKERS", std::to_string(kWorkers).c_str(), 1);

  // The five programs' inputs and references (~100 MB) are made only
  // where a workload, the counts or the probe use them.
  std::unique_ptr<Bench> B;
  auto Programs = [&]() -> const Bench & {
    if (!B)
      B = std::make_unique<Bench>(O.Seed);
    return *B;
  };
  if (O.Mode == "counts") {
    CountResult C = counts(Programs());
    std::printf("{\"ok\": %s, \"verdicts\": \"%s\", \"counts\": %s}\n",
                C.Ok ? "true" : "false", C.Verdicts.c_str(),
                jsonObject(C.M).c_str());
    return C.Ok ? 0 : 1;
  }

  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed, Programs);
  if (!W || (O.Mode == "run" && O.Seconds <= 0))
    return usage();
  LoopStats Plain;
  std::optional<LoopStats> Traced;
  Recorder Rec;
  if (O.Trace)
    Traced.emplace();

  // The harness's own data (inputs, references, buffers, window buffers)
  // now exists. Set-up time and peak RSS count the program from here on.
  double BaseRssMb = resetPeakRss();
  Clock::time_point Start = Clock::now();
  bool WarmOk = W->warm();
  double SetupS = msBetween(Start, Clock::now()) / 1e3;
  if (!WarmOk) {
    std::fprintf(stderr, "perfbench: warm-up produced a wrong result\n");
    return 1;
  }
  if (O.Mode == "setup") {
    std::printf("{\"setup_s\": %s}\n", jsonNumber(SetupS).c_str());
    return 0;
  }

  uint64_t Next = 0, ObsEvents = 0;
  obs::TraceCollector &Lib = obs::TraceCollector::global();
  Clock::time_point End = deadline(O.Seconds);
  while (Clock::now() < End) {
    runTurn(*W, Next, Plain);
    if (O.Trace) {
      // Traced turns alternate with untraced ones: both see the same
      // request mix, and drift hits them alike. A traced turn records the
      // harness's spans and the library's own (sim launches, stream ops,
      // pool work, compile-service requests). resetForTest() then drops
      // the library's events and turns its tracing off, so memory stays
      // bounded and no trace file is ever written.
      Lib.enable(obs::DefaultTracePath);
      gRec = &Rec;
      runTurn(*W, Next, *Traced);
      gRec = nullptr;
      ObsEvents += Lib.eventCount();
      Lib.resetForTest();
      Rec.fold();
    }
  }
  Plain.endTurn(W->period(), /*Last=*/true);
  if (Traced)
    Traced->endTurn(W->period(), /*Last=*/true);

  Metrics E;
  uint64_t Attempted = Plain.Attempted + (Traced ? Traced->Attempted : 0);
  uint64_t Failed = Plain.Failed + (Traced ? Traced->Failed : 0);
  E["throughput_rps"] = Plain.rps();
  E["latency_p50_ms"] = Plain.p50();
  E["latency_p90_ms"] = Plain.p90();
  E["success_rate"] =
      Attempted ? static_cast<double>(Attempted - Failed) / Attempted : 0;
  E["setup_s"] = SetupS;
  E["peak_rss_mb"] = statusMb("VmHWM") - BaseRssMb;

  std::string Layers = "{}", Verdicts;
  bool Ok = Failed == 0 && Attempted > 0;
  if (O.Trace) {
    // Per-workload self time by layer, from the traced turns.
    const std::map<std::string, Recorder::Totals> &T = Rec.totals();
    double ReqTotal = T.count("request") ? T.at("request").TotalMs : 0.0;
    for (const auto &[Name, Tot] : T)
      std::fprintf(stdout,
                   "SELF %-16s calls=%-8llu self_ms=%-12.3f share=%.4f\n",
                   Name.c_str(), static_cast<unsigned long long>(Tot.Calls),
                   Tot.SelfMs, Tot.SelfMs / ReqTotal);
    CountResult C = counts(Programs());
    Metrics L;
    try {
      L = layerProbe(Programs(), C, Ok);
    } catch (const std::exception &E) {
      // The generated drivers and rt:: calls report failures by throwing.
      std::fprintf(stderr, "perfbench: layer probe: %s\n", E.what());
      Ok = false;
    }
    L["trace.overhead_pct"] =
        (Plain.rps() - Traced->rps()) / Plain.rps() * 100.0;
    Ok &= C.Ok;
    Layers = jsonObject(L);
    Verdicts = C.Verdicts;
  }

  std::printf("{\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"requests\": %llu, \"windows\": %zu, \"workers\": %u, "
              "\"nproc\": %ld, \"compiler\": \"%s\", \"spans\": %llu, "
              "\"obs_events\": %llu, \"verdicts\": \"%s\", "
              "\"end_to_end\": %s, \"per_layer\": %s}\n",
              Ok ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Plain.Correct),
              Plain.WinRps.size(), kWorkers, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_CXX, static_cast<unsigned long long>(Rec.size()),
              static_cast<unsigned long long>(ObsEvents), Verdicts.c_str(),
              jsonObject(E).c_str(), Layers.c_str());
  return 0;
}

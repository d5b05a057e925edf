//===- runtime/HostRuntime.h - Host-side runtime API ------------*- C++ -*-===//
//
// Part of the Descend reproduction. The host API of Section 3.4/3.5 as a
// C++ library over the simulator: heap allocation, CPU<->GPU transfer with
// direction checking and kernel-launch configuration checking — each in a
// synchronous form, an asynchronous form over sim::Stream (the
// cudaMemcpyAsync analogue for handwritten stream code), and a
// graph-capture form recording rebindable transfer nodes (what the
// generated graph-mode drivers call). joinStream is the whole prologue of
// every generated sim::Stream driver overload.
//
// In Descend these mistakes are compile-time errors; this runtime is the
// substrate equivalent for *handwritten* host code (and for demonstrating,
// in the examples, what the type system prevents).
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_RUNTIME_HOSTRUNTIME_H
#define DESCEND_RUNTIME_HOSTRUNTIME_H

#include "obs/Trace.h"
#include "sim/Fault.h"
#include "sim/Sim.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace descend::rt {

/// The structured error type every rt:: failure and every generated
/// hostgen driver surfaces: sim::DeviceError, carrying the
/// machine-readable sim::ErrorCode alongside the text. Callers switch on
/// code() instead of parsing messages.
using Error = sim::DeviceError;

/// Fail-fast check the generated drivers emit after every synchronous
/// launch and every stream synchronize: throws the device's sticky error
/// as a structured rt::Error (naming the failed step) instead of letting
/// a half-completed driver return as if it had succeeded. Free when the
/// device is healthy — one relaxed atomic load.
inline void checkDevice(sim::GpuDevice &Dev, const char *What = nullptr) {
  if (!Dev.poisoned()) [[likely]]
    return;
  std::string Msg;
  const sim::ErrorCode Code = Dev.getLastError(&Msg);
  throw Error(Code, std::string(What ? What : "device operation") +
                        " failed: " + Msg);
}

/// What a generated sim::Stream driver overload does before it calls the
/// synchronous driver on the stream's device: refuses a capturing stream
/// (the driver would run eagerly instead of recording), joins the stream
/// so the driver runs after everything enqueued on it before, and
/// rethrows a poisoned stream's original error before any work runs.
/// \p Fn names the driver in the diagnostics.
inline sim::GpuDevice &joinStream(sim::Stream &S, const char *Fn) {
  if (S.capturing())
    throw std::logic_error(std::string(Fn) +
                           ": a stream driver cannot run inside a stream "
                           "capture; capture through the graph overload");
  S.synchronize();
  std::string Msg;
  if (const sim::ErrorCode Code = S.error(&Msg); Code != sim::ErrorCode::Ok)
    throw Error(Code, std::string(Fn) + ": stream poisoned by earlier " +
                          sim::errorCodeName(Code) + ": " + Msg);
  return S.device();
}

namespace detail {
/// Structured size-mismatch text: keeps the historical
/// "<op>: size mismatch" prefix (callers grep for it) and appends the
/// offending buffers by name and element count.
inline std::string sizeMismatch(const char *Op, const char *DstName,
                                size_t DstCount, const char *SrcName,
                                size_t SrcCount) {
  return std::string(Op) + ": size mismatch: destination `" +
         (DstName ? DstName : "?") + "` holds " + std::to_string(DstCount) +
         " elements, source `" + (SrcName ? SrcName : "?") + "` holds " +
         std::to_string(SrcCount);
}
} // namespace detail

/// CpuHeap::new — host heap allocation (the paper's `[T; n] @ cpu.mem`).
template <typename T> class HostBuffer {
public:
  HostBuffer(size_t Count, T Fill) : Data(Count, Fill) {}
  explicit HostBuffer(std::vector<T> Init) : Data(std::move(Init)) {}

  size_t size() const { return Data.size(); }
  T *data() { return Data.data(); }
  const T *data() const { return Data.data(); }
  T &operator[](size_t I) { return Data.at(I); }
  const T &operator[](size_t I) const { return Data.at(I); }

private:
  std::vector<T> Data;
};

/// GpuGlobal::alloc_copy — allocates global memory and copies host data.
template <typename T>
sim::GpuDevice::Buffer<T> allocCopy(sim::GpuDevice &Dev,
                                    const HostBuffer<T> &Host) {
  auto Buf = Dev.allocUninitialized<T>(Host.size());
  std::memcpy(Buf.data(), Host.data(), Host.size() * sizeof(T));
  return Buf;
}

/// copy_mem_to_host — checked direction and size (what cudaMemcpy does not
/// verify; Section 2.3's swapped-arguments bug surfaces here at runtime
/// instead of compile time). \p DstName / \p SrcName (the generated
/// drivers pass the host-program variable names) make the mismatch text
/// name the offending buffers; the throw is a structured rt::Error with
/// code CopyFailed.
template <typename T>
void copyToHost(HostBuffer<T> &Dst, const sim::GpuDevice::Buffer<T> &Src,
                const char *DstName = nullptr, const char *SrcName = nullptr) {
  if (Dst.size() != Src.size())
    throw Error(sim::ErrorCode::CopyFailed,
                detail::sizeMismatch("copy_mem_to_host", DstName, Dst.size(),
                                     SrcName, Src.size()));
  std::memcpy(Dst.data(), Src.data(), Src.size() * sizeof(T));
}

template <typename T>
void copyToGpu(sim::GpuDevice::Buffer<T> &Dst, const HostBuffer<T> &Src,
               const char *DstName = nullptr, const char *SrcName = nullptr) {
  if (Dst.size() != Src.size())
    throw Error(sim::ErrorCode::CopyFailed,
                detail::sizeMismatch("copy_to_gpu", DstName, Dst.size(),
                                     SrcName, Src.size()));
  std::memcpy(Dst.data(), Src.data(), Src.size() * sizeof(T));
}

//===----------------------------------------------------------------------===//
// Stream (asynchronous) variants — the cudaMemcpyAsync analogues. Sizes
// are validated eagerly at enqueue time (same exceptions, same messages
// as the synchronous calls); only the byte transfer itself is deferred
// onto the stream, ordered after everything enqueued before it. The host
// buffer must stay alive until the stream synchronizes.
//===----------------------------------------------------------------------===//

/// GpuGlobal::alloc_copy on a stream: the allocation happens immediately
/// (the handle is usable in subsequently enqueued launches), the
/// populating copy is enqueued.
template <typename T>
sim::GpuDevice::Buffer<T> allocCopyAsync(sim::Stream &S,
                                         const HostBuffer<T> &Host) {
  auto Buf = S.device().allocUninitialized<T>(Host.size());
  T *Dst = Buf.data();
  const T *Src = Host.data();
  const size_t Bytes = Host.size() * sizeof(T);
  S.enqueue([Dst, Src, Bytes] {
    obs::Span CopySpan("stream", "allocCopy");
    std::memcpy(Dst, Src, Bytes);
  });
  return Buf;
}

template <typename T>
void copyToHostAsync(sim::Stream &S, HostBuffer<T> &Dst,
                     const sim::GpuDevice::Buffer<T> &Src,
                     const char *DstName = nullptr,
                     const char *SrcName = nullptr) {
  if (Dst.size() != Src.size())
    throw Error(sim::ErrorCode::CopyFailed,
                detail::sizeMismatch("copy_mem_to_host", DstName, Dst.size(),
                                     SrcName, Src.size()));
  T *D = Dst.data();
  const T *So = Src.data();
  const size_t Bytes = Src.size() * sizeof(T);
  S.enqueue([D, So, Bytes] {
    obs::Span CopySpan("stream", "copyToHost");
    std::memcpy(D, So, Bytes);
  });
}

template <typename T>
void copyToGpuAsync(sim::Stream &S, sim::GpuDevice::Buffer<T> &Dst,
                    const HostBuffer<T> &Src, const char *DstName = nullptr,
                    const char *SrcName = nullptr) {
  if (Dst.size() != Src.size())
    throw Error(sim::ErrorCode::CopyFailed,
                detail::sizeMismatch("copy_to_gpu", DstName, Dst.size(),
                                     SrcName, Src.size()));
  T *D = Dst.data();
  const T *So = Src.data();
  const size_t Bytes = Src.size() * sizeof(T);
  S.enqueue([D, So, Bytes] {
    obs::Span CopySpan("stream", "copyToGpu");
    std::memcpy(D, So, Bytes);
  });
}

//===----------------------------------------------------------------------===//
// Graph-capture variants — what the generated graph-mode drivers call
// between Stream::beginCapture()/endCapture(). Device allocation still
// happens eagerly, ONCE, at capture time (the buffer is reused by every
// replay); the transfer records a graph node that reads its *host*
// pointer from the GraphExec's slot table at replay time, so one
// captured graph serves many requests' buffers via GraphExec::bind.
// Sizes are pinned at capture: bind() rejects buffers of a different
// byte size, preserving the eager-validation contract.
//===----------------------------------------------------------------------===//

/// GpuGlobal::alloc_copy under capture: allocates the device buffer now,
/// declares host slot \p Slot (named \p Name for diagnostics) and
/// records the populating H2D copy.
template <typename T>
sim::GpuDevice::Buffer<T> allocCopyCapture(sim::Stream &S, unsigned Slot,
                                           size_t Count,
                                           const char *Name = nullptr) {
  auto Buf = S.device().allocUninitialized<T>(Count);
  const size_t Bytes = Count * sizeof(T);
  S.declareCaptureSlot(Slot, Bytes, Name ? Name : "");
  T *Dst = Buf.data();
  S.captureNode([Dst, Slot, Bytes](const sim::GraphExec &G) {
    obs::Span CopySpan("stream", "allocCopyReplay");
    std::memcpy(Dst, G.slotPtr(Slot), Bytes);
  });
  return Buf;
}

/// copy_mem_to_host under capture: records a D2H copy into whatever host
/// memory is bound to \p Slot at replay time.
template <typename T>
void copyToHostCapture(sim::Stream &S, unsigned Slot,
                       const sim::GpuDevice::Buffer<T> &Src,
                       const char *Name = nullptr) {
  const size_t Bytes = Src.size() * sizeof(T);
  S.declareCaptureSlot(Slot, Bytes, Name ? Name : "");
  const T *So = Src.data();
  S.captureNode([So, Slot, Bytes](const sim::GraphExec &G) {
    obs::Span CopySpan("stream", "copyToHostReplay");
    std::memcpy(G.slotPtr(Slot), So, Bytes);
  });
}

/// copy_to_gpu under capture: records an H2D copy from whatever host
/// memory is bound to \p Slot at replay time.
template <typename T>
void copyToGpuCapture(sim::Stream &S, unsigned Slot,
                      sim::GpuDevice::Buffer<T> &Dst,
                      const char *Name = nullptr) {
  const size_t Bytes = Dst.size() * sizeof(T);
  S.declareCaptureSlot(Slot, Bytes, Name ? Name : "");
  T *D = Dst.data();
  S.captureNode([D, Slot, Bytes](const sim::GraphExec &G) {
    obs::Span CopySpan("stream", "copyToGpuReplay");
    std::memcpy(D, G.slotPtr(Slot), Bytes);
  });
}

/// Checks a launch configuration against the element count a kernel
/// expects (one element per thread). Descend proves this statically
/// (Section 3.5); handwritten host code can at best assert it here.
inline void checkLaunchConfig(sim::Dim3 Grid, sim::Dim3 Block,
                              size_t Elements) {
  size_t Threads = static_cast<size_t>(Grid.total()) * Block.total();
  if (Threads != Elements)
    throw std::runtime_error(
        "launch configuration mismatch: " + std::to_string(Threads) +
        " threads for " + std::to_string(Elements) + " elements");
}

} // namespace descend::rt

#endif // DESCEND_RUNTIME_HOSTRUNTIME_H

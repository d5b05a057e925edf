//===- bench/handwritten.h - Handwritten baseline kernels -------*- C++ -*-===//
//
// The "handwritten CUDA" side of Figure 8: the four benchmark kernels
// implemented by hand against the simulator API, using the same
// optimizations and access patterns as the Descend versions (the paper's
// methodology, Section 5). Written the way a CUDA programmer would write
// them — raw index arithmetic, no views.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_BENCH_HANDWRITTEN_H
#define DESCEND_BENCH_HANDWRITTEN_H

#include "sim/Sim.h"

namespace descend::hand {

using sim::BlockCtx;
using sim::Dim3;
using sim::GpuDevice;
using sim::ThreadCtx;

/// Tiled matrix transposition, 32x32 tiles, XY<32,8> blocks (Listing 1,
/// with the indexing bug fixed).
inline void transpose(GpuDevice &Dev, GpuDevice::Buffer<double> In,
                      GpuDevice::Buffer<double> Out, unsigned N) {
  const unsigned TB = N / 32;
  sim::launchPhases(
      Dev, Dim3{TB, TB, 1}, Dim3{32, 8, 1}, 32 * 32 * sizeof(double),
      [=](BlockCtx &B, ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8) {
          // Read the transposed tile (B.X, B.Y), matching the Descend
          // version's .transpose[[block]] selection.
          size_t Src = (size_t)(B.X * 32 + T.Y + J) * N + B.Y * 32 + T.X;
          B.sharedStore<double>(0, (T.Y + J) * 32 + T.X, In.load(B, Src));
        }
      },
      [=](BlockCtx &B, ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8) {
          size_t Dst = (size_t)(B.Y * 32 + T.Y + J) * N + B.X * 32 + T.X;
          Out.store(B, Dst, B.sharedLoad<double>(0, T.X * 32 + T.Y + J));
        }
      });
}

/// One halving step of the reduction: CUDA's
/// `if (tid < S) sdata[tid] += sdata[tid + S];`, spelled as a split phase
/// whose idle side does not run — the primitive the generated kernel's
/// guards use too, so both sides of Figure 8 skip the same threads.
template <unsigned S> auto reduceStep() {
  return sim::split(
      sim::ThreadX, S,
      [](BlockCtx &B, ThreadCtx &T, auto) {
        B.sharedStore<double>(0, T.X, B.sharedLoad<double>(0, T.X) +
                                          B.sharedLoad<double>(0, T.X + S));
      },
      sim::idle);
}

/// Block-wide tree reduction with sequential addressing, 256 threads.
inline void reduce(GpuDevice &Dev, GpuDevice::Buffer<double> In,
                   GpuDevice::Buffer<double> Out, unsigned NB) {
  sim::launchPhases(
      Dev, Dim3{NB, 1, 1}, Dim3{256, 1, 1}, 256 * sizeof(double),
      [=](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<double>(0, T.X, In.load(B, (size_t)B.X * 256 + T.X));
      },
      reduceStep<128>(), reduceStep<64>(), reduceStep<32>(),
      reduceStep<16>(), reduceStep<8>(), reduceStep<4>(), reduceStep<2>(),
      reduceStep<1>(),
      sim::split(
          sim::ThreadX, 1, // if (tid == 0)
          [=](BlockCtx &B, ThreadCtx &, auto) {
            Out.store(B, B.X, B.sharedLoad<double>(0, 0));
          },
          sim::idle));
}

/// Per-block inclusive Hillis-Steele scan (double buffered) plus totals.
inline void scanBlocks(GpuDevice &Dev, GpuDevice::Buffer<double> In,
                       GpuDevice::Buffer<double> Out,
                       GpuDevice::Buffer<double> Sums, unsigned NB) {
  // Shared layout: bufa at 0, bufb at 256 doubles. A stride step is
  // CUDA's `if (tid >= stride) v += src[tid - stride];` as a split phase:
  // threads [0, Stride) copy, threads [Stride, 256) add.
  auto Step = [](unsigned Stride, size_t SrcBase, size_t DstBase) {
    return sim::split(sim::ThreadX, Stride,
                      [=](BlockCtx &B, ThreadCtx &T, auto Low) {
                        double V = B.sharedLoad<double>(SrcBase, T.X);
                        if constexpr (!Low)
                          V += B.sharedLoad<double>(SrcBase, T.X - Stride);
                        B.sharedStore<double>(DstBase, T.X, V);
                      });
  };
  const size_t A = 0, Bb = 256 * sizeof(double);
  sim::launchPhases(
      Dev, Dim3{NB, 1, 1}, Dim3{256, 1, 1}, 512 * sizeof(double),
      [=](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<double>(A, T.X, In.load(B, (size_t)B.X * 256 + T.X));
      },
      Step(1, A, Bb), Step(2, Bb, A), Step(4, A, Bb), Step(8, Bb, A),
      Step(16, A, Bb), Step(32, Bb, A), Step(64, A, Bb), Step(128, Bb, A),
      [=](BlockCtx &B, ThreadCtx &T) {
        Out.store(B, (size_t)B.X * 256 + T.X, B.sharedLoad<double>(A, T.X));
        if (T.X == 0)
          Sums.store(B, B.X, B.sharedLoad<double>(A, 255));
      });
}

/// Adds scanned block offsets: block b (b > 0) adds offsets[b-1].
inline void addSums(GpuDevice &Dev, GpuDevice::Buffer<double> Out,
                    GpuDevice::Buffer<double> Offsets, unsigned NB) {
  sim::launchPhases(Dev, Dim3{NB, 1, 1}, Dim3{256, 1, 1}, 0,
                    [=](BlockCtx &B, ThreadCtx &T) {
                      if (B.X >= 1) {
                        size_t I = (size_t)B.X * 256 + T.X;
                        Out.store(B, I,
                                  Out.load(B, I) + Offsets.load(B, B.X - 1));
                      }
                    });
}

/// Tiled matrix multiplication, 16x16 tiles; acc lives in a per-thread
/// arena slot exactly like the generated code (registers spanning
/// barriers).
inline void matmul(GpuDevice &Dev, GpuDevice::Buffer<double> A,
                   GpuDevice::Buffer<double> B,
                   GpuDevice::Buffer<double> C, unsigned NT) {
  const unsigned N = NT * 16;
  const size_t ASub = 0;
  const size_t BSub = 16 * 16 * sizeof(double);
  const size_t Acc = 2 * 16 * 16 * sizeof(double);

  std::vector<std::function<void(BlockCtx &, ThreadCtx &)>> Dummy;
  // Build the phase sequence dynamically: init, then per tile (load, mac).
  // launchPhases is variadic; use the runBlocks core directly instead.
  sim::detail::runBlocks(
      Dev, Dim3{NT, NT, 1}, Dim3{16, 16, 1}, 3 * 16 * 16 * sizeof(double),
      [&](BlockCtx &Blk) {
        auto ForAll = [&](auto &&Fn) {
          ThreadCtx T;
          for (T.Y = 0; T.Y != 16; ++T.Y)
            for (T.X = 0; T.X != 16; ++T.X) {
              Blk.CurThread = T.Y * 16 + T.X;
              Fn(Blk, T);
            }
          ++Blk.CurPhase;
        };
        ForAll([&](BlockCtx &Bc, ThreadCtx &T) {
          Bc.sharedStore<double>(Acc, T.Y * 16 + T.X, 0.0);
        });
        for (unsigned Tile = 0; Tile != NT; ++Tile) {
          ForAll([&](BlockCtx &Bc, ThreadCtx &T) {
            size_t ARow = (size_t)Bc.Y * 16 + T.Y;
            size_t BRow = (size_t)Tile * 16 + T.Y;
            Bc.sharedStore<double>(ASub, T.Y * 16 + T.X,
                                   A.load(Bc, ARow * N + Tile * 16 + T.X));
            Bc.sharedStore<double>(BSub, T.Y * 16 + T.X,
                                   B.load(Bc, BRow * N + Bc.X * 16 + T.X));
          });
          ForAll([&](BlockCtx &Bc, ThreadCtx &T) {
            double Sum = Bc.sharedLoad<double>(Acc, T.Y * 16 + T.X);
            for (unsigned K = 0; K != 16; ++K)
              Sum += Bc.sharedLoad<double>(ASub, T.Y * 16 + K) *
                     Bc.sharedLoad<double>(BSub, K * 16 + T.X);
            Bc.sharedStore<double>(Acc, T.Y * 16 + T.X, Sum);
          });
        }
        ForAll([&](BlockCtx &Bc, ThreadCtx &T) {
          size_t Row = (size_t)Bc.Y * 16 + T.Y;
          C.store(Bc, Row * N + Bc.X * 16 + T.X,
                  Bc.sharedLoad<double>(Acc, T.Y * 16 + T.X));
        });
      });
}

} // namespace descend::hand

#endif // DESCEND_BENCH_HANDWRITTEN_H

//===- perfbench/reference.h - CPU references and seeded inputs -----------===//
//
// The benchmark's correctness oracle: plain loops over row-major arrays,
// written from the programs' specifications, never from descendc output.
// Inputs are small integers, so every f64 result (sums of products
// included) is exact and compares bit for bit whatever order the device
// adds in.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ref {

/// splitmix64: the same stream for the same seed on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// \p N integers drawn uniformly from [-Bound, Bound], as doubles.
  std::vector<double> ints(size_t N, int Bound) {
    std::vector<double> V(N);
    for (double &X : V)
      X = static_cast<double>(static_cast<int>(next() % (2 * Bound + 1)) -
                              Bound);
    return V;
  }

private:
  uint64_t State;
};

/// C = A * B for N x N matrices.
inline void matmul(const std::vector<double> &A, const std::vector<double> &B,
                   std::vector<double> &C, size_t N) {
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J) {
      double Acc = 0.0;
      for (size_t K = 0; K != N; ++K)
        Acc += A[I * N + K] * B[K * N + J];
      C[I * N + J] = Acc;
    }
}

/// Partials[b] = sum of the b-th 256-element group; Total[0] = their sum.
inline void reduction(const std::vector<double> &Data,
                      std::vector<double> &Partials,
                      std::vector<double> &Total) {
  Total[0] = 0.0;
  for (size_t B = 0; B != Partials.size(); ++B) {
    double Acc = 0.0;
    for (size_t I = 0; I != 256; ++I)
      Acc += Data[B * 256 + I];
    Partials[B] = Acc;
    Total[0] += Acc;
  }
}

inline void scale(std::vector<double> &V, double Factor) {
  for (double &X : V)
    X *= Factor;
}

/// Out[j][i] = In[i][j] for N x N matrices.
inline void transpose(const std::vector<double> &In, std::vector<double> &Out,
                      size_t N) {
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J)
      Out[J * N + I] = In[I * N + J];
}

/// Inclusive prefix sum within every 256-element block; Sums[b] is the
/// b-th block's total.
inline void blockScan(const std::vector<double> &In, std::vector<double> &Out,
                      std::vector<double> &Sums) {
  for (size_t B = 0; B != Sums.size(); ++B) {
    double Acc = 0.0;
    for (size_t I = 0; I != 256; ++I) {
      Acc += In[B * 256 + I];
      Out[B * 256 + I] = Acc;
    }
    Sums[B] = Acc;
  }
}

} // namespace ref

#endif // PERFBENCH_REFERENCE_H

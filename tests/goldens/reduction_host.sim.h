// Generated by descendc --emit=sim. Do not edit.
#pragma once

#include "sim/Sim.h"
#include "runtime/HostRuntime.h"

#include <cstdint>

namespace descend::gen {

/// fn reduce(input: & gpu.global [f64; 2048], out: &uniq gpu.global [f64; 8]) -[grid: gpu.grid<X<8>, X<256>>]-> unit
inline void reduce(descend::sim::GpuDevice &_dev,
    descend::sim::GpuDevice::Buffer<double> input,
    descend::sim::GpuDevice::Buffer<double> out) {
  using descend::sim::BlockCtx;
  using descend::sim::ThreadCtx;
  constexpr size_t _locals_base = 2048;
  (void)_locals_base;
  descend::sim::launchPhases(_dev, descend::sim::Dim3{8, 1, 1}, descend::sim::Dim3{256, 1, 1}, 2048,
    [&](BlockCtx &_b, ThreadCtx &_t) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, input.load(_b, _bx * 256 + _tx));
    },
    descend::sim::split(descend::sim::ThreadX, 128,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 128 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 64,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 64 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 32,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 32 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 16,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 16 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 8,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 8 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 4,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 4 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 2,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 2 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 1,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      _b.sharedStore<double>(0, _tx, (_b.sharedLoad<double>(0, _tx) + _b.sharedLoad<double>(0, 1 + _tx)));
    }, descend::sim::idle),
    descend::sim::split(descend::sim::ThreadX, 1,
    [&](BlockCtx &_b, ThreadCtx &_t, auto) {
      const unsigned _bx = _b.X, _by = _b.Y, _bz = _b.Z;
      const unsigned _tx = _t.X, _ty = _t.Y, _tz = _t.Z;
      const size_t _lin = _b.CurThread;
      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; (void)_tz; (void)_lin;
      out.store(_b, _bx, _b.sharedLoad<double>(0, 0));
    }, descend::sim::idle));
}

/// fn main(data: &uniq cpu.mem [f64; 2048], partials: &uniq cpu.mem [f64; 8], total: &uniq cpu.mem [f64; 1]) -[t: cpu.thread]-> unit
inline void run(descend::sim::GpuDevice &_dev,
    descend::rt::HostBuffer<double> &data,
    descend::rt::HostBuffer<double> &partials,
    descend::rt::HostBuffer<double> &total) {
  auto d_in = descend::rt::allocCopy(_dev, data);
  auto d_out = descend::rt::allocCopy(_dev, partials);
  reduce(_dev, d_in, d_out);
  descend::rt::checkDevice(_dev, "launch reduce");
  descend::rt::copyToHost(partials, d_out, "partials", "d_out");
  total[0] = 0.0;
  for (long long i = 0; i != 8; ++i) {
    total[0] = (total[0] + partials[i]);
  }
}

/// fn main(data: &uniq cpu.mem [f64; 2048], partials: &uniq cpu.mem [f64; 8], total: &uniq cpu.mem [f64; 1]) -[t: cpu.thread]-> unit
inline void run(descend::sim::Stream &_stream,
    descend::rt::HostBuffer<double> &data,
    descend::rt::HostBuffer<double> &partials,
    descend::rt::HostBuffer<double> &total) {
  run(descend::rt::joinStream(_stream, "run"), data, partials, total);
}

/// fn main(data: &uniq cpu.mem [f64; 2048], partials: &uniq cpu.mem [f64; 8], total: &uniq cpu.mem [f64; 1]) -[t: cpu.thread]-> unit
inline void run(descend::sim::Stream &_stream,
    descend::sim::GraphExec &_graph,
    descend::rt::HostBuffer<double> &data,
    descend::rt::HostBuffer<double> &partials,
    descend::rt::HostBuffer<double> &total) {
  descend::sim::GpuDevice &_dev = _stream.device();
  (void)_dev;
  if (!_graph.instantiated()) {
    _stream.beginCapture();
    auto d_in = descend::rt::allocCopyCapture<double>(_stream, 0, data.size(), "data");
    auto d_out = descend::rt::allocCopyCapture<double>(_stream, 1, partials.size(), "partials");
    _stream.enqueue([=, &_dev] { reduce(_dev, d_in, d_out); });
    descend::rt::copyToHostCapture(_stream, 1, d_out, "partials");
    _graph = _stream.endCapture().instantiate();
  }
  _graph.bind(0, data, "data");
  _graph.bind(1, partials, "partials");
  _graph.launch(_stream);
  _stream.synchronize();
  descend::rt::checkDevice(_dev, "stream synchronize");
  total[0] = 0.0;
  for (long long i = 0; i != 8; ++i) {
    total[0] = (total[0] + partials[i]);
  }
}

} // namespace descend::gen

#include "workload/npb.hpp"

#include <cmath>
#include <stdexcept>

namespace speedbal {

SpmdAppSpec NpbProfile::to_spec(int nthreads,
                                const BarrierConfig& barrier) const {
  SpmdAppSpec spec;
  spec.name = full_name();
  spec.nthreads = nthreads;
  spec.phases = phases;
  // Fixed problem size: the per-thread share shrinks as threads grow.
  spec.work_per_phase_us = work_per_phase_us * 16.0 / nthreads;
  spec.work_jitter = work_jitter;
  spec.barrier = barrier;
  spec.mem_footprint_kb = rss_mb_per_core * 1024.0;
  spec.mem_intensity = mem_intensity;
  spec.mem_bw_demand = mem_bw_demand;
  return spec;
}

namespace npb {
namespace {

/// Work scale factor between NPB classes (roughly 4x per step).
double class_scale(char from, char to) {
  const auto rank = [](char k) {
    switch (k) {
      case 'S': return 0;
      case 'A': return 1;
      case 'B': return 2;
      case 'C': return 3;
      default: throw std::invalid_argument("unknown NPB class");
    }
  };
  return std::pow(4.0, rank(to) - rank(from));
}

NpbProfile scaled(NpbProfile p, char klass) {
  const double s = class_scale(p.klass, klass);
  p.work_per_phase_us *= s;
  p.rss_mb_per_core *= s;
  p.klass = klass;
  return p;
}

}  // namespace

NpbProfile ep(char klass) {
  // Embarrassingly parallel: ~27 s of compute per thread at class C
  // (Section 6.1), negligible memory, synchronization only at the end
  // (modeled as a few coarse phases).
  NpbProfile p;
  p.benchmark = "ep";
  p.klass = 'C';
  p.phases = 4;
  p.work_per_phase_us = 6'750'000.0;
  p.rss_mb_per_core = 1.0;
  p.mem_intensity = 0.0;
  p.mem_bw_demand = 0.0;
  return scaled(p, klass);
}

NpbProfile bt(char klass) {
  // Table 2: rss 0.4 GB/core, speedup ~4.6 (Tigerton) / 10 (Barcelona).
  NpbProfile p;
  p.benchmark = "bt";
  p.klass = 'A';
  p.phases = 400;
  p.work_per_phase_us = 10'000.0;
  p.rss_mb_per_core = 400.0;
  p.mem_intensity = 0.9;
  p.mem_bw_demand = 0.9;
  return scaled(p, klass);
}

NpbProfile ft(char klass) {
  // Table 2: rss 5.6 GB, inter-barrier ~73-206 ms, speedup 5.3 / 10.5.
  NpbProfile p;
  p.benchmark = "ft";
  p.klass = 'B';
  p.phases = 60;
  p.work_per_phase_us = 73'000.0;
  p.rss_mb_per_core = 5600.0 / 16.0;
  p.mem_intensity = 0.85;
  p.mem_bw_demand = 0.85;
  return scaled(p, klass);
}

NpbProfile is(char klass) {
  // Table 2: rss 3.1 GB, inter-barrier ~44-63 ms, speedup 4.8 / 8.4.
  NpbProfile p;
  p.benchmark = "is";
  p.klass = 'C';
  p.phases = 60;
  p.work_per_phase_us = 44'000.0;
  p.rss_mb_per_core = 3100.0 / 16.0;
  p.mem_intensity = 0.9;
  p.mem_bw_demand = 0.9;
  return scaled(p, klass);
}

NpbProfile sp(char klass) {
  // Table 2: rss 0.1 GB, inter-barrier ~2 ms, speedup 7.2 / 12.4.
  NpbProfile p;
  p.benchmark = "sp";
  p.klass = 'A';
  p.phases = 2000;
  p.work_per_phase_us = 2'000.0;
  p.rss_mb_per_core = 100.0 / 16.0;
  p.mem_intensity = 0.6;
  p.mem_bw_demand = 0.6;
  return scaled(p, klass);
}

NpbProfile cg(char klass) {
  // Section 6.2: cg.B synchronizes every ~4 ms.
  NpbProfile p;
  p.benchmark = "cg";
  p.klass = 'B';
  p.phases = 1500;
  p.work_per_phase_us = 4'000.0;
  p.rss_mb_per_core = 50.0;
  p.mem_intensity = 0.7;
  p.mem_bw_demand = 0.7;
  return scaled(p, klass);
}

NpbProfile mg(char klass) {
  NpbProfile p;
  p.benchmark = "mg";
  p.klass = 'B';
  p.phases = 200;
  p.work_per_phase_us = 20'000.0;
  p.rss_mb_per_core = 120.0;
  p.mem_intensity = 0.8;
  p.mem_bw_demand = 0.8;
  return scaled(p, klass);
}

NpbProfile lu(char klass) {
  NpbProfile p;
  p.benchmark = "lu";
  p.klass = 'A';
  p.phases = 1000;
  p.work_per_phase_us = 5'000.0;
  p.rss_mb_per_core = 40.0;
  p.mem_intensity = 0.5;
  p.mem_bw_demand = 0.5;
  return scaled(p, klass);
}

NpbProfile by_name(std::string_view name) {
  const auto dot = name.find('.');
  const std::string_view bench = name.substr(0, dot);
  const char klass = dot == std::string_view::npos ? '\0' : name[dot + 1];
  const auto pick = [&](auto factory) {
    return klass == '\0' ? factory('A') : factory(klass);
  };
  if (bench == "ep") return klass ? ep(klass) : ep();
  if (bench == "bt") return pick(bt);
  if (bench == "ft") return klass ? ft(klass) : ft();
  if (bench == "is") return klass ? is(klass) : is();
  if (bench == "sp") return pick(sp);
  if (bench == "cg") return klass ? cg(klass) : cg();
  if (bench == "mg") return klass ? mg(klass) : mg();
  if (bench == "lu") return pick(lu);
  throw std::invalid_argument("unknown NPB benchmark: " + std::string(name));
}

std::vector<NpbProfile> paper_selection() {
  return {bt('A'), ft('B'), is('C'), sp('A'), cg('B')};
}

}  // namespace npb
}  // namespace speedbal

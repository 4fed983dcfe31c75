#include "hetero/setups.hpp"

#include <cstdio>

#include "topo/presets.hpp"

namespace speedbal::hetero {

std::string clock_ladder(const Topology& t) {
  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  std::string out;
  int run = 0;
  double scale = 0.0;
  const auto flush = [&] {
    if (run == 0) return;
    if (!out.empty()) out += "+";
    if (run > 1) out += std::to_string(run) + "x";
    out += fmt(scale);
  };
  for (const CoreInfo& c : t.cores()) {
    if (run > 0 && c.clock_scale == scale) {
      ++run;
      continue;
    }
    flush();
    run = 1;
    scale = c.clock_scale;
  }
  flush();
  return out;
}

const std::vector<HeteroSetup>& hetero_setups() {
  static const std::vector<HeteroSetup> setups = [] {
    // One setup per policy on the canonical 4 big + 4 LITTLE machine at
    // clock ratio 3 (count-balancing penalty (r+1)/2 = 2.0x there), plus a
    // SHARE run on the 8-step frequency ladder.
    struct Entry {
      const char* name;
      const char* topo;
      HeteroPolicy policy;
    };
    const Entry entries[] = {
        {"HETERO-SHARE", "biglittle4+4x3", HeteroPolicy::Share},
        {"HETERO-SHARE-COUNT", "biglittle4+4x3", HeteroPolicy::ShareCount},
        {"HETERO-SPEED", "biglittle4+4x3", HeteroPolicy::Speed},
        {"HETERO-LOAD", "biglittle4+4x3", HeteroPolicy::Load},
        {"HETERO-PINNED", "biglittle4+4x3", HeteroPolicy::Pinned},
        {"HETERO-LADDER-SHARE", "ladder8", HeteroPolicy::Share},
    };
    std::vector<HeteroSetup> out;
    for (const Entry& e : entries) {
      HeteroSetup s;
      s.name = e.name;
      s.topo = e.topo;
      s.policy = e.policy;
      const Topology t = presets::by_name(e.topo);
      s.description = std::string(to_string(e.policy)) + " on " + e.topo +
                      ": " + std::to_string(t.num_cores()) +
                      " cores, clocks " + clock_ladder(t);
      out.push_back(std::move(s));
    }
    return out;
  }();
  return setups;
}

const HeteroSetup* find_hetero_setup(std::string_view name) {
  for (const HeteroSetup& s : hetero_setups())
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace speedbal::hetero

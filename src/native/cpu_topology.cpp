#include "native/cpu_topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>

namespace speedbal::native {

bool SysTopology::same_numa(int a, int b) const {
  return cpus.at(static_cast<std::size_t>(a)).numa_node ==
         cpus.at(static_cast<std::size_t>(b)).numa_node;
}

SysTopology read_sys_topology(const std::string& root) {
  SysTopology topo;
  std::error_code ec;
  std::vector<int> ids;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cpu", 0) != 0) continue;
    const std::string num = name.substr(3);
    if (num.empty() ||
        !std::all_of(num.begin(), num.end(), [](unsigned char c) { return std::isdigit(c); }))
      continue;
    ids.push_back(static_cast<int>(std::strtol(num.c_str(), nullptr, 10)));
  }
  std::sort(ids.begin(), ids.end());
  if (ids.empty()) ids.push_back(0);  // Degenerate single-CPU fallback.

  for (int id : ids) {
    const std::filesystem::path base = std::filesystem::path(root) / ("cpu" + std::to_string(id));
    SysCpu cpu;
    cpu.cpu = id;
    // NUMA membership: a nodeN symlink/directory under the cpu directory.
    for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) == 0 && name.size() > 4)
        cpu.numa_node = static_cast<int>(std::strtol(name.c_str() + 4, nullptr, 10));
    }
    topo.cpus.push_back(cpu);
  }
  return topo;
}

}  // namespace speedbal::native

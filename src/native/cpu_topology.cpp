#include "native/cpu_topology.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace speedbal::native {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  if (!in) return {};
  std::string s;
  std::getline(in, s);
  return s;
}

int read_int(const std::filesystem::path& p, int def) {
  const std::string s = read_file(p);
  if (s.empty()) return def;
  return static_cast<int>(std::strtol(s.c_str(), nullptr, 10));
}

CpuSet read_cpulist(const std::filesystem::path& p, int self) {
  const std::string s = read_file(p);
  if (s.empty()) return CpuSet::single(self);
  try {
    return CpuSet::parse_list(s);
  } catch (const std::exception&) {
    return CpuSet::single(self);
  }
}

}  // namespace

bool SysTopology::same_cache(int a, int b) const {
  return cpus.at(static_cast<std::size_t>(a)).cache_siblings.contains(b);
}
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
    cpu.package_id = read_int(base / "topology/physical_package_id", 0);
    cpu.thread_siblings =
        read_cpulist(base / "topology/thread_siblings_list", id);
    // The last cache index present is the LLC; probe index3 then index2.
    CpuSet cache = CpuSet::single(id);
    for (const char* idx : {"index3", "index2", "index1"}) {
      const auto p = base / "cache" / idx / "shared_cpu_list";
      if (std::filesystem::exists(p, ec)) {
        cache = read_cpulist(p, id);
        break;
      }
    }
    cpu.cache_siblings = cache;
    // NUMA membership: a nodeN symlink/directory under the cpu directory.
    cpu.numa_node = 0;
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

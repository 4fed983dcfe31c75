#include "native/affinity.hpp"

#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace speedbal::native {

std::vector<int> CpuSet::cpus() const {
  std::vector<int> out;
  for (int c = 0; c < 64; ++c)
    if (contains(c)) out.push_back(c);
  return out;
}

CpuSet CpuSet::parse_list(const std::string& list) {
  CpuSet s;
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long lo = std::strtol(p, &end, 10);
    if (end == p) throw std::invalid_argument("bad cpu list: " + list);
    long hi = lo;
    p = end;
    if (*p == '-') {
      hi = std::strtol(p + 1, &end, 10);
      if (end == p + 1) throw std::invalid_argument("bad cpu list: " + list);
      p = end;
    }
    if (lo < 0 || hi > 63 || hi < lo)
      throw std::invalid_argument("cpu list out of range: " + list);
    for (long c = lo; c <= hi; ++c) s.add(static_cast<int>(c));
    if (*p == ',') ++p;
    while (*p == ' ') ++p;
  }
  return s;
}

namespace {

bool transient_errno(int err) { return err == EINTR || err == EAGAIN; }

}  // namespace

int set_affinity_errno(pid_t tid, const CpuSet& set, const RetryPolicy& retry,
                       perturb::FaultInjector* inject) {
  cpu_set_t cs;
  CPU_ZERO(&cs);
  for (int c : set.cpus()) CPU_SET(c, &cs);
  auto backoff = retry.initial_backoff;
  int err = EINVAL;
  const int attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    err = 0;
    if (inject != nullptr)
      err = inject->next_error(perturb::FaultOp::SetAffinity);
    if (err == 0)
      err = sched_setaffinity(tid, sizeof(cs), &cs) == 0 ? 0 : errno;
    if (err == 0) return 0;
    if (!transient_errno(err)) return err;  // Permanent; retrying cannot help.
  }
  return err;
}

bool set_affinity(pid_t tid, const CpuSet& set) {
  return set_affinity_errno(tid, set) == 0;
}

CpuSet get_affinity(pid_t tid) {
  cpu_set_t cs;
  CPU_ZERO(&cs);
  if (sched_getaffinity(tid, sizeof(cs), &cs) != 0) return {};
  CpuSet out;
  for (int c = 0; c < 64; ++c)
    if (CPU_ISSET(c, &cs)) out.add(c);
  return out;
}

int current_cpu() { return sched_getcpu(); }

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace speedbal::native

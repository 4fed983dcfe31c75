#include "util/log.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include "util/time.hpp"

namespace speedbal {
namespace {

LogLevel initial_level() {
  const char* env = std::getenv("SPEEDBAL_LOG");
  if (env == nullptr) return LogLevel::Warn;
  return parse_log_level(env).value_or(LogLevel::Warn);
}

std::atomic<LogLevel> g_level{initial_level()};
std::atomic<int> g_fd{2};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
  }
  return "?";
}

long current_tid() {
#ifdef __linux__
  static thread_local const long tid = static_cast<long>(syscall(SYS_gettid));
  return tid;
#else
  static std::atomic<long> next{1};
  static thread_local const long tid = next.fetch_add(1);
  return tid;
#endif
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

int set_log_fd(int fd) { return g_fd.exchange(fd); }

std::string format_log_line(LogLevel level, std::string_view msg) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  localtime_r(&secs, &tm);

  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "%02d:%02d:%02d.%03d [%ld] %s ",
                tm.tm_hour, tm.tm_min, tm.tm_sec, static_cast<int>(ms),
                current_tid(), level_name(level));

  std::string line;
  line.reserve(sizeof(prefix) + msg.size() + 1);
  line += prefix;
  line += msg;
  line += '\n';
  return line;
}

void log_message(LogLevel level, const std::string& msg) {
  const std::string line = format_log_line(level, msg);
  // One write(2) per line: POSIX guarantees writes to a pipe of up to
  // PIPE_BUF bytes are atomic, and terminal/file writes from concurrent
  // threads do not interleave within a single call.
  const int fd = g_fd.load(std::memory_order_relaxed);
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Logging must never take the process down.
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string format_time(SimTime t) {
  char buf[64];
  if (t < 0) return "never";
  if (t < kMsec) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(t));
  } else if (t < kSec) {
    std::snprintf(buf, sizeof(buf), "%.2fms", to_msec(t));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", to_sec(t));
  }
  return buf;
}

}  // namespace speedbal

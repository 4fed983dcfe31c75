#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/enum_names.hpp"

namespace speedbal {

/// Log severity; Trace is used for per-event simulator traces and is off by
/// default (it is extremely verbose).
enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4 };

/// Global log threshold; messages below it are dropped. Initialized from the
/// SPEEDBAL_LOG environment variable (trace/debug/info/warn/error) if set,
/// otherwise Warn. Thread-safe to read; set only from single-threaded setup.
LogLevel log_level();
void set_log_level(LogLevel level);

/// The level names `--log-level` and SPEEDBAL_LOG accept.
inline constexpr auto kLogLevelNames = enum_names<LogLevel>(
    "log level", "trace", "debug", "info", "warn", "error");
static_assert(kLogLevelNames.ends_at(LogLevel::Error));

/// Parse a level name ("trace".."error"); nullopt for anything else.
inline std::optional<LogLevel> parse_log_level(std::string_view name) {
  return kLogLevelNames.find(name);
}

/// Core logging entry point. The full line — wall-clock timestamp, thread
/// id, severity, message — is assembled in one buffer and emitted as a
/// single write(2), so lines from concurrent threads (native balancer,
/// SPMD runtime) never interleave mid-line.
void log_message(LogLevel level, const std::string& msg);

/// Render the line exactly as log_message writes it (including the trailing
/// newline): "HH:MM:SS.mmm [tid] LEVEL message\n". Exposed for tests.
std::string format_log_line(LogLevel level, std::string_view msg);

/// Redirect log output to another file descriptor (tests capture through a
/// pipe); returns the previous fd. Default: 2 (stderr).
int set_log_fd(int fd);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace speedbal

/// Usage: SB_LOG(Info) << "migrated task " << id;
#define SB_LOG(severity)                                            \
  if (::speedbal::LogLevel::severity < ::speedbal::log_level()) {   \
  } else                                                            \
    ::speedbal::detail::LogLine(::speedbal::LogLevel::severity)

/**
 * @file
 * Minimal leveled logging used by the runtime and the simulator.
 *
 * Benchmarks set the level to Warn to keep output clean; tests may
 * install a capture sink to assert on emitted diagnostics.
 */

#ifndef HYDRA_COMMON_LOGGING_HH
#define HYDRA_COMMON_LOGGING_HH

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

namespace hydra {

enum class LogLevel { Trace, Debug, Info, Warn, Error, Off };

/**
 * Global logging configuration (process-wide). Thread-safe: the level
 * is an atomic so the fast-path enabled() check stays lock-free, and
 * sink installation/invocation are serialized by a mutex so a sink
 * swap cannot race an in-flight write.
 */
class Log
{
  public:
    using Sink = std::function<void(LogLevel, const std::string &)>;

    static LogLevel
    level()
    {
        return level_.load(std::memory_order_relaxed);
    }
    static void
    setLevel(LogLevel level)
    {
        level_.store(level, std::memory_order_relaxed);
    }

    /** Replace the output sink; pass nullptr to restore stderr. */
    static void setSink(Sink sink);

    static void write(LogLevel level, const std::string &message);

    static bool
    enabled(LogLevel level)
    {
        const LogLevel current = Log::level();
        return level >= current && current != LogLevel::Off;
    }

  private:
    static std::atomic<LogLevel> level_;
    static Sink sink_;
};

namespace detail {

/** Stream-style one-shot log statement helper. */
class LogLine
{
  public:
    explicit LogLine(LogLevel level) : level_(level) {}

    ~LogLine() { Log::write(level_, stream_.str()); }

    template <typename T>
    LogLine &
    operator<<(const T &value)
    {
        stream_ << value;
        return *this;
    }

  private:
    LogLevel level_;
    std::ostringstream stream_;
};

} // namespace detail

} // namespace hydra

// A one-pass loop, not an if/else: an `else` after the statement
// cannot bind to it (no -Wdangling-else under an unbraced `if`).
#define HYDRA_LOG(level)                                                    \
    for (bool hydraLogOn = ::hydra::Log::enabled(level); hydraLogOn;        \
         hydraLogOn = false)                                                \
        ::hydra::detail::LogLine(level)

#define LOG_TRACE HYDRA_LOG(::hydra::LogLevel::Trace)
#define LOG_DEBUG HYDRA_LOG(::hydra::LogLevel::Debug)
#define LOG_INFO HYDRA_LOG(::hydra::LogLevel::Info)
#define LOG_WARN HYDRA_LOG(::hydra::LogLevel::Warn)
#define LOG_ERROR HYDRA_LOG(::hydra::LogLevel::Error)

#endif // HYDRA_COMMON_LOGGING_HH

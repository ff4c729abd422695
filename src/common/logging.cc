#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace smt {

namespace {

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list measure;
    va_copy(measure, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);
    if (n <= 0)
        return {};
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

void
vreport(const char *level, const char *fmt, std::va_list args)
{
    // Format the whole "level: message\n" line first and emit it
    // with a single write: --chip-jobs worker threads report
    // concurrently, and the old fprintf triplet interleaved
    // mid-line. (One stdio call per line is atomic in practice —
    // POSIX requires stdio functions to be thread-safe — and keeps
    // this path lock-free.)
    std::string line(level);
    line += ": ";
    line += vformat(fmt, args);
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // anonymous namespace

std::string
strFormat(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

} // namespace smt

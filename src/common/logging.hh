/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * Two error levels exist and they are not interchangeable:
 *
 *  - panic()  -- an internal simulator invariant was violated (a bug in
 *                this code base, never the user's fault). Aborts so a
 *                debugger or core dump can capture the state.
 *  - fatal()  -- the simulation cannot continue because of a user error
 *                (bad configuration, impossible parameter combination).
 *                Exits with status 1.
 *
 * warn() and inform() emit non-fatal diagnostics to stderr.
 */

#ifndef DCRA_SMT_COMMON_LOGGING_HH
#define DCRA_SMT_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace smt {

/**
 * Report an internal simulator bug and abort().
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit a warning about questionable but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emit an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf into a string (the texts of problem() checks). */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Verify a simulator invariant; calls panic() with location info when
 * the condition does not hold. Active in all build types, unlike
 * assert(), because silent state corruption in a simulator produces
 * wrong numbers rather than crashes.
 */
#define SMT_ASSERT(cond, fmt, ...)                                    \
    do {                                                              \
        if (!(cond)) {                                                \
            ::smt::panic("assertion '%s' failed at %s:%d: " fmt,      \
                         #cond, __FILE__, __LINE__,                   \
                         ##__VA_ARGS__);                              \
        }                                                             \
    } while (0)

} // namespace smt

#endif // DCRA_SMT_COMMON_LOGGING_HH

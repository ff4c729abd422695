/**
 * @file
 * Observe a panic (SMT_ASSERT, panic()) from a unit test. The gtest
 * shim has no death-test support, so the body runs in a forked child
 * and the parent reads the child's exit status.
 */

#ifndef DCRA_SMT_TESTS_SUPPORT_DIES_WITH_ABORT_HH
#define DCRA_SMT_TESTS_SUPPORT_DIES_WITH_ABORT_HH

#include <csignal>
#include <cstdio>

#include <sys/wait.h>
#include <unistd.h>

namespace smt {

/**
 * Run @p fn in a forked child (stderr silenced) and report whether
 * it died with SIGABRT.
 */
template <typename Fn>
bool
diesWithAbort(Fn fn)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        if (!std::freopen("/dev/null", "w", stderr))
            _exit(97);
        fn();
        _exit(0); // survived: the assertion did not fire
    }
    if (pid < 0)
        return false;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return false;
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
}

} // namespace smt

#endif // DCRA_SMT_TESTS_SUPPORT_DIES_WITH_ABORT_HH

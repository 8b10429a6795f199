// A SIGSEGV/SIGBUS handler that prints the faulting thread's stack before
// the process dies. Included by the torture binaries (stress_test,
// chaos_test), whose rare crashes under load otherwise leave no trace: the
// suites run without a core dump, and gtest prints nothing for a signal.
#ifndef AQUILA_TESTS_CRASH_BACKTRACE_H_
#define AQUILA_TESTS_CRASH_BACKTRACE_H_

#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

namespace aquila {
namespace testing_internal {

inline void CrashBacktraceHandler(int signo) {
  // Only async-signal-safe calls: write(2) and backtrace_symbols_fd, which
  // writes straight to the descriptor without allocating.
  const char* name = signo == SIGSEGV ? "SIGSEGV" : "SIGBUS";
  const char prefix[] = "\n*** caught ";
  const char suffix[] = "; stack of the faulting thread:\n";
  (void)!write(STDERR_FILENO, prefix, sizeof(prefix) - 1);
  (void)!write(STDERR_FILENO, name, strlen(name));
  (void)!write(STDERR_FILENO, suffix, sizeof(suffix) - 1);
  void* frames[64];
  int depth = backtrace(frames, 64);
  backtrace_symbols_fd(frames, depth, STDERR_FILENO);
  // SA_RESETHAND restored the default disposition: die of the same signal.
  raise(signo);
}

struct CrashBacktraceInstaller {
  CrashBacktraceInstaller() {
    // The first backtrace() call may load libgcc, which allocates: do it
    // here, not inside the handler.
    void* warm[1];
    (void)backtrace(warm, 1);
    struct sigaction action {};
    action.sa_handler = CrashBacktraceHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESETHAND | SA_NODEFER;
    sigaction(SIGSEGV, &action, nullptr);
    sigaction(SIGBUS, &action, nullptr);
  }
};

inline CrashBacktraceInstaller crash_backtrace_installer;

}  // namespace testing_internal
}  // namespace aquila

#endif  // AQUILA_TESTS_CRASH_BACKTRACE_H_

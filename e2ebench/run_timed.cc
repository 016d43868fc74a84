/**
 * @file
 * run_timed: run one command, report its wall time and peak RSS.
 *
 *   run_timed <timeout_s> <stdout_path> <stderr_path> <program> [args...]
 *
 * Prints "<exit code> <wall seconds> <peak RSS KiB>" on its own stdout.
 * The exit code is the child's, or minus the signal that ended it.  The
 * peak RSS is wait4's ru_maxrss: the largest of the child and every
 * descendant it reaped, which for `diablo_run --processes` is the
 * largest rank.
 *
 * run.py spawns children through this small program rather than from
 * Python because Linux carries a process's RSS high-water mark across
 * exec: a child forked from the Python interpreter would report at
 * least the interpreter's RSS.  A child running past @p timeout_s is
 * killed with its process group and reported as -9.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

int
main(int argc, char **argv)
{
    if (argc < 5) {
        std::fprintf(stderr, "usage: %s <timeout_s> <stdout> <stderr> "
                     "<program> [args...]\n", argv[0]);
        return 2;
    }
    const double timeout_s = std::atof(argv[1]);
    const int out = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(argv[3], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0) {
        std::perror("run_timed: open");
        return 2;
    }
    // SIGCHLD stays blocked so sigtimedwait can wait for it with a
    // deadline; the child unblocks it before exec.
    sigset_t chld;
    sigemptyset(&chld);
    sigaddset(&chld, SIGCHLD);
    sigprocmask(SIG_BLOCK, &chld, nullptr);

    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("run_timed: fork");
        return 2;
    }
    if (pid == 0) {
        setpgid(0, 0);
        sigprocmask(SIG_UNBLOCK, &chld, nullptr);
        dup2(out, STDOUT_FILENO);
        dup2(err, STDERR_FILENO);
        execv(argv[4], argv + 4);
        std::perror("run_timed: execv");
        _exit(127);
    }
    close(out);
    close(err);

    const auto deadline =
        t0 + std::chrono::duration<double>(timeout_s);
    int status = 0;
    struct rusage ru = {};
    for (;;) {
        const pid_t r = wait4(pid, &status, WNOHANG, &ru);
        if (r == pid) {
            break;
        }
        if (r < 0 && errno != EINTR) {
            std::perror("run_timed: wait4");
            return 2;
        }
        const auto left = deadline - std::chrono::steady_clock::now();
        if (left <= std::chrono::steady_clock::duration::zero()) {
            kill(-pid, SIGKILL);
            wait4(pid, &status, 0, &ru);
            break;
        }
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                .count();
        const struct timespec ts = {static_cast<time_t>(ns / 1000000000),
                                    static_cast<long>(ns % 1000000000)};
        sigtimedwait(&chld, nullptr, &ts);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : -WTERMSIG(status);
    std::printf("%d %.9f %ld\n", code, wall, ru.ru_maxrss);
    return 0;
}

/**
 * @file
 * qcspawn: starts, times and reaps the benchmark's child processes for
 * run.py, one at a time.
 *
 * Linux charges a child's peak RSS (ru_maxrss) with the peak RSS of
 * the process it was forked from. run.py parses multi-megabyte
 * documents, so children it forked itself would report its peak
 * instead of their own. This small process forks them instead, which
 * keeps the floor of every child's figure at its own few megabytes.
 *
 * One request per stdin line, tab-separated:
 *
 *     TIMEOUT_S  STDERR_FILE_OR_-  PROGRAM  ARG...
 *
 * One reply per stdout line: wall seconds from fork to exit, user+sys
 * CPU seconds, ru_maxrss in KiB, and the exit code (minus the signal
 * number for a child killed by a signal). A child still running when
 * the timeout passes is killed. Exits at end of input.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

std::vector<std::string>
split(const std::string &line)
{
    std::vector<std::string> fields;
    std::istringstream in(line);
    std::string field;
    while (std::getline(in, field, '\t'))
        fields.push_back(field);
    return fields;
}

[[noreturn]] void
execChild(const std::vector<std::string> &fields)
{
    const int devnull = open("/dev/null", O_RDWR);
    const int err = fields[1] == "-"
        ? devnull
        : open(fields[1].c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    dup2(devnull, 0);
    dup2(devnull, 1);
    dup2(err < 0 ? devnull : err, 2);
    std::vector<char *> argv;
    for (std::size_t i = 2; i < fields.size(); ++i)
        argv.push_back(const_cast<char *>(fields[i].c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
}

double
seconds(const timeval &t)
{
    return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6;
}

} // namespace

int
main()
{
    std::string line;
    while (std::getline(std::cin, line)) {
        const std::vector<std::string> fields = split(line);
        if (fields.size() < 3) {
            std::cerr << "qcspawn: bad request\n";
            return 2;
        }
        const double timeout = std::stod(fields[0]);
        const auto start = std::chrono::steady_clock::now();
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("qcspawn: fork");
            return 1;
        }
        if (pid == 0)
            execChild(fields);

        // The watchdog kills the child once the timeout passes.
        std::mutex mutex;
        std::condition_variable done;
        bool reaped = false;
        std::thread watchdog([&] {
            std::unique_lock<std::mutex> lock(mutex);
            if (!done.wait_for(lock, std::chrono::duration<double>(timeout),
                               [&] { return reaped; }))
                kill(pid, SIGKILL);
        });
        int status = 0;
        rusage usage{};
        while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        {
            std::lock_guard<std::mutex> lock(mutex);
            reaped = true;
        }
        done.notify_one();
        watchdog.join();

        const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                           : -WTERMSIG(status);
        std::printf("%.9f %.6f %ld %d\n", wall,
                    seconds(usage.ru_utime) + seconds(usage.ru_stime),
                    usage.ru_maxrss, code);
        std::fflush(stdout);
    }
    return 0;
}

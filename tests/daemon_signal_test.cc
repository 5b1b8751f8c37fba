// Start-up signal handling of the shipped daemon: a SIGTERM that lands
// while hmmm_serverd is still building its archive must drain the daemon
// (exit 0), never kill it by the default signal action.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace {

TEST(DaemonSignalTest, SigtermDuringStartupExitsCleanly) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: keep the test's output clean, then become the daemon. A
    // 1000-video synthetic archive takes hundreds of milliseconds to
    // build, so the signal below lands before LISTENING.
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      dup2(devnull, STDERR_FILENO);
    }
    execl(HMMM_SERVERD_PATH, "hmmm_serverd", "--synthetic", "--videos", "1000",
          "--port", "0", static_cast<char*>(nullptr));
    _exit(127);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(status))
      << "killed by signal " << WTERMSIG(status);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace

// Spawning and accounting of the daemons under test, from outside: the
// LISTENING handshake, /proc/<pid> CPU / memory / thread figures and the
// Prometheus scrape every daemon serves.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "loadgen.h"

extern char** environ;

namespace hmmm::loadgen {
namespace {

constexpr auto kTerminateGrace = std::chrono::seconds(20);

std::string LogTail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (text.size() > 400) text = text.substr(text.size() - 400);
  return text;
}

std::string RealPath(const std::string& path) {
  char resolved[PATH_MAX];
  return ::realpath(path.c_str(), resolved) != nullptr ? resolved : path;
}

}  // namespace

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

Status Daemon::Spawn(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path) {
  log_path_ = log_path;
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    return Status::IOError("spawn " + binary + ": " + std::strerror(rc));
  }
  stdout_fd_ = pipe_fds[0];
  return Status::OK();
}

StatusOr<uint16_t> Daemon::WaitListening() {
  static const std::string kPrefix = "LISTENING port=";
  for (;;) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (line.rfind(kPrefix, 0) == 0) {
        port_ = static_cast<uint16_t>(std::atoi(line.c_str() + kPrefix.size()));
        return port_;
      }
      continue;
    }
    char buffer[256];
    const ssize_t got = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (got > 0) {
      pending_.append(buffer, static_cast<size_t>(got));
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      return Status::IOError("daemon exited before LISTENING: " +
                             LogTail(log_path_));
    }
  }
}

Status Daemon::Terminate() {
  if (pid_ <= 0) return Status::FailedPrecondition("daemon not running");
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + kTerminateGrace;
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return Status::Internal("daemon ignored SIGTERM for 20 s");
  }
  pid_ = -1;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
  return Status::Internal(
      WIFSIGNALED(status)
          ? "daemon died from signal " + std::to_string(WTERMSIG(status))
          : "daemon exited " + std::to_string(WEXITSTATUS(status)) + ": " +
                LogTail(log_path_));
}

StatusOr<ProcSample> Daemon::ReadProc() const {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid_);
  std::ifstream stat_file(base + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return Status::IOError("unreadable " + base + "/stat");
  }
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15, in clock ticks.
  std::istringstream fields(stat.substr(close_paren + 2));
  std::vector<std::string> tokens;
  for (std::string token; fields >> token;) tokens.push_back(token);
  if (tokens.size() < 13) return Status::IOError("short " + base + "/stat");
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  sample.cpu_ms = (std::stod(tokens[11]) + std::stod(tokens[12])) * 1000.0 /
                  ticks;
  std::ifstream status_file(base + "/status");
  for (std::string line; std::getline(status_file, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample.vm_hwm_mb = std::stod(line.substr(6)) / 1024.0;
    } else if (line.rfind("Threads:", 0) == 0) {
      sample.threads = std::stoi(line.substr(8));
    }
  }
  return sample;
}

double Daemon::MappedMb(const std::string& path) const {
  const std::string target = RealPath(path);
  std::ifstream maps("/proc/" + std::to_string(pid_) + "/maps");
  double bytes = 0.0;
  for (std::string line; std::getline(maps, line);) {
    if (line.size() < target.size() ||
        line.compare(line.size() - target.size(), target.size(), target) != 0) {
      continue;
    }
    const size_t dash = line.find('-');
    const size_t space = line.find(' ');
    if (dash == std::string::npos || space == std::string::npos) continue;
    const unsigned long long begin =
        std::strtoull(line.substr(0, dash).c_str(), nullptr, 16);
    const unsigned long long end =
        std::strtoull(line.substr(dash + 1, space - dash - 1).c_str(), nullptr, 16);
    bytes += static_cast<double>(end - begin);
  }
  return bytes / (1024.0 * 1024.0);
}

std::vector<Daemon*> Deployment::all() {
  std::vector<Daemon*> out;
  if (coordinator) out.push_back(coordinator.get());
  for (auto& backend : backends) out.push_back(backend.get());
  return out;
}

int Deployment::TerminateAll() {
  int unclean = 0;
  for (Daemon* daemon : all()) {
    const Status stopped = daemon->Terminate();
    if (!stopped.ok()) {
      std::fprintf(stderr, "unclean daemon exit: %s\n",
                   stopped.ToString().c_str());
      ++unclean;
    }
  }
  return unclean;
}

StatusOr<double> StartDeployment(const WorkloadSpec& spec, const Inputs& inputs,
                                 const std::string& bin_dir,
                                 const std::string& log_dir,
                                 Deployment* deployment) {
  const std::string serverd = bin_dir + "/hmmm/hmmm_serverd";
  const auto start = Clock::now();
  std::vector<std::string> snapshots = inputs.shard_snapshots;
  if (snapshots.empty()) snapshots.push_back(inputs.archive_snapshot);
  for (size_t s = 0; s < snapshots.size(); ++s) {
    auto daemon = std::make_unique<Daemon>();
    HMMM_RETURN_IF_ERROR(daemon->Spawn(
        serverd, {"--snapshot", snapshots[s], "--port", "0"},
        log_dir + "/serverd" + std::to_string(s) + ".log"));
    deployment->backends.push_back(std::move(daemon));
  }
  for (auto& backend : deployment->backends) {
    HMMM_RETURN_IF_ERROR(backend->WaitListening().status());
  }
  if (spec.shards > 0) {
    std::vector<std::string> args = {"--shard-map", inputs.shard_map};
    for (auto& backend : deployment->backends) {
      args.push_back("--shard");
      args.push_back("127.0.0.1:" + std::to_string(backend->port()));
    }
    args.push_back("--port");
    args.push_back("0");
    deployment->coordinator = std::make_unique<Daemon>();
    HMMM_RETURN_IF_ERROR(deployment->coordinator->Spawn(
        bin_dir + "/hmmm_coordd", args, log_dir + "/coordd.log"));
    HMMM_RETURN_IF_ERROR(deployment->coordinator->WaitListening().status());
  }
  for (Daemon* daemon : deployment->all()) {
    QueryClientOptions options;
    options.port = daemon->port();
    QueryClient client(options);
    HMMM_RETURN_IF_ERROR(client.Health().status());
  }
  return MsBetween(start, Clock::now()) / 1000.0;
}

double Scrape::Sum(const std::string& name, const std::string& label,
                   bool skip_sharded) const {
  double sum = 0.0;
  for (const auto& [series, value] : series) {
    const size_t brace = series.find('{');
    if (series.substr(0, brace) != name) continue;
    const std::string labels =
        brace == std::string::npos ? std::string() : series.substr(brace);
    if (!label.empty() && labels.find(label) == std::string::npos) continue;
    if (skip_sharded && labels.find("shard=\"") != std::string::npos) continue;
    sum += value;
  }
  return sum;
}

Scrape ParsePrometheus(const std::string& text) {
  Scrape scrape;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape.series[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return scrape;
}

StatusOr<Scrape> ScrapeDaemon(uint16_t port) {
  QueryClientOptions options;
  options.port = port;
  QueryClient client(options);
  HMMM_ASSIGN_OR_RETURN(MetricsResponse response, client.Metrics());
  return ParsePrometheus(response.prometheus_text);
}

}  // namespace hmmm::loadgen

#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, 1.0 * values.size())) - 1;
  return values[index];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

double batch_median(const std::vector<double>& values, std::size_t batch) {
  std::vector<double> means;
  for (std::size_t at = 0; batch > 0 && at + batch <= values.size(); at += batch) {
    double total = 0.0;
    for (std::size_t i = at; i < at + batch; ++i) {
      total += values[i];
    }
    means.push_back(total / static_cast<double>(batch));
  }
  return median(means);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Report::e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Report::layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

void print_result(const Report& report, bool trace) {
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char number[64];
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << number << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

std::vector<int> online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Taken once, before the harness pins anything.
const std::vector<int>& initial_cpus() {
  static const std::vector<int> cpus = online_cpus();
  return cpus;
}

}  // namespace

std::vector<int> program_cpus() {
  const auto& cpus = initial_cpus();
  if (cpus.size() < 4) {
    return {};
  }
  return {cpus[cpus.size() - 2], cpus[cpus.size() - 1]};
}

std::vector<int> client_cpus() {
  const auto& cpus = initial_cpus();
  if (cpus.size() < 4) {
    return {};
  }
  return std::vector<int>(cpus.begin(), cpus.end() - 2);
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path, const std::vector<int>& cpus) {
  (void)initial_cpus();
  // Everything the child needs is prepared before fork: between fork and
  // exec only async-signal-safe calls are made.
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const std::string out = out_path.empty() ? "/dev/null" : out_path;
  const std::string err = err_path.empty() ? "/dev/null" : err_path;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int out_fd = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err_fd = open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out_fd < 0 || err_fd < 0) {
      _exit(126);
    }
    dup2(out_fd, STDOUT_FILENO);
    dup2(err_fd, STDERR_FILENO);
    if (!cpus.empty()) {
      sched_setaffinity(0, sizeof(set), &set);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

ChildExit wait_child(pid_t pid) {
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4 failed: ") + std::strerror(errno));
    }
  }
  ChildExit result;
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
  return result;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace perfbench

#include "process.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/jsonl.hpp"

extern char** environ;

namespace divbench {

namespace fs = std::filesystem;

namespace {

// Owns the descriptors a child inherits as its stdin/stdout/stderr.
class ChildFiles {
 public:
  ChildFiles(const std::string& stdout_path, const std::string& stderr_path)
      : fds_{open("/dev/null", O_RDONLY | O_CLOEXEC),
             open(stdout_path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644),
             open(stderr_path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)} {
    for (const int fd : fds_) {
      if (fd < 0) {
        close_all();
        throw std::runtime_error("cannot open " + stdout_path + " / " +
                                 stderr_path);
      }
    }
  }
  ~ChildFiles() { close_all(); }
  ChildFiles(const ChildFiles&) = delete;
  ChildFiles& operator=(const ChildFiles&) = delete;

  int fd(int stdio) const { return fds_[stdio]; }

 private:
  void close_all() {
    for (int& fd : fds_) {
      if (fd >= 0) {
        close(fd);
      }
      fd = -1;
    }
  }
  int fds_[3];
};

}  // namespace

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& stdout_path,
                      const std::string& stderr_path, int cpu) {
  cpu_set_t pin;
  CPU_ZERO(&pin);
  if (cpu >= 0) {
    CPU_SET(cpu, &pin);
  }
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const ChildFiles files(stdout_path, stderr_path);

  // fork, not posix_spawn: glibc's posix_spawn shares the parent's address
  // space until exec (CLONE_VM), and exec folds that space's high-water
  // RSS into the child's ru_maxrss -- every child would report at least
  // divbench's own peak.  A forked child starts from a copy whose high
  // water is divbench's *current* anonymous RSS, which malloc_trim keeps
  // well below any divsim's.
  malloc_trim(0);
  ChildResult result;
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Async-signal-safe calls only between fork and exec.
    if (cpu >= 0) {
      sched_setaffinity(0, sizeof(pin), &pin);
    }
    for (int stdio = 0; stdio < 3; ++stdio) {
      if (dup2(files.fd(stdio), stdio) < 0) {
        _exit(127);
      }
    }
    execve(args[0], args.data(), environ);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
  result.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

void fresh_directory(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

void remove_tree(const std::string& path) { fs::remove_all(path); }

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

namespace {

std::string first_line(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// HEAD of the repository holding the benchmark, read from .git directly so
// no git process runs and nothing outside the checkout is consulted.
std::string git_rev() {
  const fs::path git = fs::path(DIVBENCH_ROOT) / ".git";
  const std::string head = first_line(git / "HEAD");
  if (head.rfind("ref: ", 0) != 0) {
    return head.empty() ? "unknown" : head;
  }
  const std::string ref = head.substr(5);
  const std::string loose = first_line(git / ref);
  if (!loose.empty()) {
    return loose;
  }
  std::ifstream packed(git / "packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

// Size in KiB of cpu0's cache at `level` (data or unified), 0 when sysfs
// does not say.
long cache_kib(int level) {
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(base, error)) {
    if (first_line(entry.path() / "level") != std::to_string(level) ||
        first_line(entry.path() / "type") == "Instruction") {
      continue;
    }
    const std::string size = first_line(entry.path() / "size");
    const long value = std::atol(size.c_str());
    if (!size.empty() && size.back() == 'M') {
      return value * 1024;
    }
    return value;
  }
  return 0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return hex.str();
    }
  }
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : 0.0;
}

}  // namespace

bool HostContext::noisy() const {
  const auto cpus = static_cast<double>(nproc);
  return load_before > cpus || load_after > cpus;
}

std::string HostContext::to_json() const {
  divlib::JsonObject object;
  object.field("git_rev", git_rev)
      .field("build_type", build_type)
      .field("codegen", codegen)
      .field("nproc", static_cast<std::int64_t>(nproc))
      .field("l2_kib", static_cast<std::int64_t>(l2_kib))
      .field("l3_kib", static_cast<std::int64_t>(l3_kib))
      .field("scratch_fs", scratch_fs)
      .field("load_before", load_before)
      .field("load_after", load_after)
      .field("noisy", noisy());
  return object.str();
}

HostContext start_host_context(const std::string& scratch_dir) {
  HostContext host;
  host.git_rev = git_rev();
  host.build_type = DIVBENCH_BUILD_TYPE;
  host.codegen = DIVBENCH_CODEGEN;
  host.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  host.l2_kib = cache_kib(2);
  host.l3_kib = cache_kib(3);
  host.scratch_fs = filesystem_type(scratch_dir);
  host.load_before = load_average();
  return host;
}

void finish_host_context(HostContext& host) {
  host.load_after = load_average();
}

}  // namespace divbench

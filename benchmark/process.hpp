// Child processes and host facts for divbench.
//
// Every load-generating process is forked and exec'd from divbench and
// reaped with wait4, so its peak RSS comes from the kernel's own accounting
// (wait4 folds in the descendants the child reaped itself, e.g. the fork
// fleet of `divsim queue run`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace divbench {

struct ChildResult {
  int exit_code = -1;       // WEXITSTATUS, or 128 + signal number
  double wall_s = 0.0;      // fork -> wait4 return
  double max_rss_mib = 0.0; // ru_maxrss
};

// Runs argv[0] (a path) with stdout and stderr redirected to the given
// files (truncated), and blocks until it exits; pinned to `cpu` when it is
// not -1.  Throws std::runtime_error when the spawn itself fails.
ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& stdout_path,
                      const std::string& stderr_path, int cpu = -1);

// The CPUs this process may run on.
std::vector<int> allowed_cpus();

std::string read_text(const std::string& path);
// Lines of a text file, without their newlines.
std::vector<std::string> read_lines(const std::string& path);
// Removes `path` recursively when present, then creates it empty.
void fresh_directory(const std::string& path);
void remove_tree(const std::string& path);
std::uint64_t file_size(const std::string& path);

// The facts a result needs to be comparable: what was built, on what host,
// and how loaded the host was while it ran.
struct HostContext {
  std::string git_rev;     // HEAD of the checkout, "unknown" outside git
  std::string build_type;  // CMAKE_BUILD_TYPE of the library
  std::string codegen;     // the C++ flags the library was compiled with
  long nproc = 0;
  long l2_kib = 0;         // per-core L2, from sysfs
  long l3_kib = 0;         // last-level cache, from sysfs
  std::string scratch_fs;  // filesystem type under the scratch directory
  double load_before = 0.0;
  double load_after = 0.0;
  // Load average above nproc at either end: the numbers carry contention
  // from other work (the same rule perf_smoke.cmake applies before minting).
  bool noisy() const;
  std::string to_json() const;
};

// Stamps everything but load_after; call finish_host_context at the end.
HostContext start_host_context(const std::string& scratch_dir);
void finish_host_context(HostContext& host);

}  // namespace divbench

#include "engine/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/liveness.hpp"
#include "engine/montecarlo.hpp"
#include "engine/scheduler.hpp"
#include "io/wire.hpp"
#include "obs/heartbeat.hpp"

namespace divlib {

namespace {

using Clock = std::chrono::steady_clock;

// Parent poll timeout, matching the thread executor's monitor: the tick for
// liveness and deadlines.  Frames and worker exits wake the poll at once.
constexpr std::chrono::milliseconds kFleetPoll{5};

// ---------------------------------------------------------------------------
// Worker (child) side.
//
// Signal flow: the parent sends SIGUSR1 for a deadline kill and SIGTERM for
// an operator drain.  Handlers only touch a lock-free CancelToken pointer
// and a sig_atomic_t flag -- both async-signal-safe.  SIGINT is ignored:
// a terminal ^C reaches the whole process group, and drain authority
// belongs to the parent (which translates its own SIGINT into SIGTERMs).

std::atomic<CancelToken*> g_worker_token{nullptr};
volatile std::sig_atomic_t g_worker_drain = 0;

void worker_on_sigterm(int) {
  g_worker_drain = 1;
  CancelToken* token = g_worker_token.load(std::memory_order_relaxed);
  if (token != nullptr) {
    token->request(CancelReason::kUser);
  }
}

void worker_on_sigusr1(int) {
  CancelToken* token = g_worker_token.load(std::memory_order_relaxed);
  if (token != nullptr) {
    token->request(CancelReason::kDeadline);
  }
}

bool worker_draining() { return g_worker_drain != 0; }

void install_worker_signals() {
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGINT, &ignore, nullptr);

  // Deliberately no SA_RESTART: the drain signal must be able to interrupt
  // the blocking work-pipe read (wire_read_frame resumes on EINTR unless the
  // drain flag is up).
  struct sigaction term {};
  term.sa_handler = worker_on_sigterm;
  sigemptyset(&term.sa_mask);
  ::sigaction(SIGTERM, &term, nullptr);

  struct sigaction usr1 {};
  usr1.sa_handler = worker_on_sigusr1;
  sigemptyset(&usr1.sa_mask);
  ::sigaction(SIGUSR1, &usr1, nullptr);
}

// The forked child's whole life.  Never returns; always _exit (exit() would
// run atexit handlers and double-flush stdio buffers inherited from the
// parent).  Worker exit codes are diagnostics only -- the parent treats any
// death with an unreported attempt as a crash regardless of the code.
[[noreturn]] void worker_main(int work_fd, int result_fd,
                              const SupervisorOptions& options,
                              std::chrono::milliseconds heartbeat_interval,
                              const SupervisedTask& task) {
  install_worker_signals();

  // Beats ride the same pipe as results, written from the Heartbeat thread;
  // the mutex keeps a beat from interleaving into the middle of a large
  // result frame (pipe writes are only atomic up to PIPE_BUF).  The cadence
  // arrives pre-clamped against the liveness thresholds (see FleetRun).
  std::mutex write_mu;
  BatchProgress progress;
  Heartbeat heartbeat(
      progress,
      [&](const HeartbeatRecord&) {
        std::lock_guard<std::mutex> lock(write_mu);
        wire_write_frame(result_fd, "beat");
      },
      heartbeat_interval);

  int code = 0;
  while (true) {
    std::optional<std::string> frame;
    try {
      frame = wire_read_frame(work_fd, worker_draining);
    } catch (...) {
      code = 3;  // corrupt work stream: the channel is unusable
      break;
    }
    if (!frame.has_value() || *frame == "quit") {
      break;  // parent closed the pipe, drained us, or dismissed us
    }
    std::istringstream header(*frame);
    std::string verb;
    std::size_t replica = 0;
    unsigned attempt = 0;
    header >> verb >> replica >> attempt;
    if (verb != "work") {
      code = 3;
      break;
    }

    CancelToken token;
    if (g_worker_drain != 0) {
      token.request(CancelReason::kUser);  // drain raced the assignment
    }
    g_worker_token.store(&token, std::memory_order_relaxed);
    std::optional<std::string> payload;
    const std::optional<AttemptFailure> failure =
        catch_attempt_failure(options, [&] {
          Rng rng(Rng::retry_seed(options.master_seed, replica, attempt));
          payload = task(replica, rng, token);
        });
    g_worker_token.store(nullptr, std::memory_order_relaxed);

    std::string reply;
    if (payload.has_value()) {
      reply = "ok " + std::to_string(replica) + " " +
              std::to_string(attempt) + " " + *payload;
    } else if (failure.has_value()) {
      reply = "err " + std::to_string(replica) + " " +
              std::to_string(attempt) + " " + to_string(failure->failure) +
              " " + failure->message;
    } else {
      reply = "drain " + std::to_string(replica) + " " +
              std::to_string(attempt) + " " + to_string(token.reason());
    }
    {
      std::lock_guard<std::mutex> lock(write_mu);
      if (!wire_write_frame(result_fd, reply)) {
        code = 2;  // parent gone; nothing left to serve
        break;
      }
    }
    if (g_worker_drain != 0) {
      break;
    }
  }
  heartbeat.stop();
  ::_exit(code);
}

// ---------------------------------------------------------------------------
// Parent side: the process executor.

using ExecutionId = ReplicaScheduler::ExecutionId;

struct Worker {
  Worker(std::int64_t id_, const LivenessOptions& liveness_options,
         Clock::time_point spawn)
      : id(id_), reader(-1), liveness(liveness_options, spawn) {}

  std::int64_t id = 0;
  pid_t pid = -1;
  int work_fd = -1;    // parent -> child assignments
  int result_fd = -1;  // child -> parent beats/results (O_NONBLOCK)
  int pidfd = -1;      // readable once the child has exited
  WireReader reader;
  LivenessTracker liveness;
  bool busy = false;
  ReplicaScheduler::Launch launch;  // the in-flight attempt while busy
  bool deadline_signaled = false;   // SIGUSR1 sent for the current attempt
  Clock::time_point kill_at;        // SIGKILL escalation when still no drain
  bool kill_sent = false;
  bool quit_sent = false;
  bool reaped = false;
};

// Scoped SIGPIPE suppression: a write to a crashed worker's pipe must fail
// with EPIPE, not kill the campaign.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_ {};
};

// Forks the worker pool, speaks the wire protocol, tracks liveness, polls
// and reaps, escalates SIGUSR1 -> SIGKILL, and sizes the pool to the
// scheduler's width cap.  Every policy decision comes from the
// ReplicaScheduler; this class launches, signals and collects.
class FleetRun {
 public:
  FleetRun(std::span<const std::size_t> replica_ids, const SupervisedTask& task,
           const std::function<void(std::size_t, std::string&&)>& on_success,
           const SupervisorOptions& options)
      : task_(task),
        options_(options),
        target_workers_(std::min<std::size_t>(
            resolve_thread_count(options.fleet.workers != 0
                                     ? options.fleet.workers
                                     : options.num_threads),
            replica_ids.size())),
        scheduler_(replica_ids, options, on_success, target_workers_,
                   Isolation::kProcess, Clock::now()) {
    // A heartbeat cadence at or above suspect_after would make every healthy
    // worker flap Alive -> Suspect between beats (and at dead_after, get
    // SIGKILLed mid-work).  Clamp loudly rather than run a fleet whose
    // liveness signal is all noise.
    fleet_ = options_.fleet;
    bool clamped = false;
    fleet_.heartbeat_interval = clamp_heartbeat_cadence(
        fleet_.heartbeat_interval, fleet_.suspect_after, &clamped);
    if (clamped) {
      std::fprintf(
          stderr,
          "divlib fleet: heartbeat interval %lldms >= suspect-after %lldms "
          "would flap liveness; clamped to %lldms\n",
          static_cast<long long>(options_.fleet.heartbeat_interval.count()),
          static_cast<long long>(fleet_.suspect_after.count()),
          static_cast<long long>(fleet_.heartbeat_interval.count()));
    }
  }

  SupervisorReport run() {
    if (scheduler_.finished()) {
      return scheduler_.finish(false);  // empty batch
    }
    if (options_.cancel != nullptr && options_.cancel->requested()) {
      scheduler_.cancel();  // preset cancel: fork nothing
      return scheduler_.finish(true);
    }
    SigpipeGuard sigpipe;
    try {
      monitor_loop();
      shutdown_fleet();
    } catch (...) {
      // A throwing callback (a dead journal, say) or a failed spawn ends
      // the run: no worker, pipe or pidfd may outlive it.
      kill_fleet();
      throw;
    }
    return scheduler_.finish(options_.cancel != nullptr &&
                             options_.cancel->requested());
  }

 private:

  // Publishes liveness transitions as events + report counters; annotates
  // with the worker's current assignment so operators can see what a dying
  // worker was holding.
  void emit_transitions(Worker& worker,
                        const std::vector<LivenessTransition>& transitions) {
    for (const LivenessTransition& transition : transitions) {
      SupervisionEvent event;
      event.worker = worker.id;
      if (worker.busy) {
        event.replica = worker.launch.replica;
        event.attempt = worker.launch.attempt;
      }
      event.detail = std::string(to_string(transition.from)) + "->" +
                     to_string(transition.to) + " (" +
                     to_string(transition.cause) + ")";
      switch (transition.to) {
        case WorkerLiveness::kAlive:
          event.kind = SupervisionEvent::Kind::kWorkerAlive;
          break;
        case WorkerLiveness::kSuspect:
          event.kind = SupervisionEvent::Kind::kWorkerSuspect;
          break;
        case WorkerLiveness::kDead:
          event.kind = SupervisionEvent::Kind::kWorkerDead;
          break;
        case WorkerLiveness::kUnknown:
          continue;  // no transition enters Unknown
      }
      scheduler_.emit(event);
    }
  }

  static void kill_worker(Worker& worker) {
    if (!worker.kill_sent) {
      ::kill(worker.pid, SIGKILL);
      worker.kill_sent = true;
    }
  }

  void spawn_worker(Clock::time_point now) {
    int work_pipe[2] = {-1, -1};
    int result_pipe[2] = {-1, -1};
    if (::pipe(work_pipe) != 0) {
      throw std::runtime_error(std::string("fleet: pipe failed: ") +
                               std::strerror(errno));
    }
    if (::pipe(result_pipe) != 0) {
      ::close(work_pipe[0]);
      ::close(work_pipe[1]);
      throw std::runtime_error(std::string("fleet: pipe failed: ") +
                               std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(work_pipe[0]);
      ::close(work_pipe[1]);
      ::close(result_pipe[0]);
      ::close(result_pipe[1]);
      throw std::runtime_error(std::string("fleet: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: keep only its own two pipe ends; every other inherited fleet
      // fd would pin siblings' pipes open past their death.
      ::close(work_pipe[1]);
      ::close(result_pipe[0]);
      for (const auto& other : workers_) {
        if (other->work_fd >= 0) ::close(other->work_fd);
        if (other->result_fd >= 0) ::close(other->result_fd);
        if (other->pidfd >= 0) ::close(other->pidfd);
      }
      worker_main(work_pipe[0], result_pipe[1], options_,
                  fleet_.heartbeat_interval, task_);
    }
    // Parent.  pidfd_open through syscall(): glibc 2.36's <sys/pidfd.h>
    // declares it without C linkage, so a C++ call to it does not link.
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    ::close(work_pipe[0]);
    ::close(result_pipe[1]);
    if (pidfd < 0) {
      const int error = errno;
      ::close(work_pipe[1]);
      ::close(result_pipe[0]);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      throw std::runtime_error(std::string("fleet: pidfd_open failed: ") +
                               std::strerror(error));
    }
    ::fcntl(result_pipe[0], F_SETFL,
            ::fcntl(result_pipe[0], F_GETFL) | O_NONBLOCK);
    LivenessOptions liveness;
    liveness.suspect_after = fleet_.suspect_after;
    liveness.dead_after = fleet_.dead_after;
    auto worker = std::make_unique<Worker>(next_worker_id_++, liveness, now);
    worker->pid = pid;
    worker->work_fd = work_pipe[1];
    worker->result_fd = result_pipe[0];
    worker->pidfd = pidfd;
    worker->reader = WireReader(result_pipe[0]);
    SupervisionEvent event;
    event.kind = SupervisionEvent::Kind::kWorkerSpawn;
    event.worker = worker->id;
    event.detail = "forked pid " + std::to_string(pid);
    workers_.push_back(std::move(worker));
    scheduler_.emit(event);
  }

  // Live workers still part of the pool: a dismissed (quit_sent) worker is
  // on its way out and counts for neither growing nor shrinking decisions.
  std::size_t pool_size() const {
    std::size_t size = 0;
    for (const auto& worker : workers_) {
      if (!worker->reaped && !worker->quit_sent &&
          worker->liveness.state() != WorkerLiveness::kDead) {
        ++size;
      }
    }
    return size;
  }

  // Retires one idle worker gracefully: a "quit" frame plus a closed work
  // pipe, the same drain path shutdown_fleet uses.  Never touches a busy
  // worker -- in-flight attempts always finish or fail on their own merits.
  void dismiss_worker(Worker& worker) {
    if (worker.work_fd >= 0) {
      wire_write_frame(worker.work_fd, "quit");
      ::close(worker.work_fd);
      worker.work_fd = -1;
    }
    worker.quit_sent = true;
    SupervisionEvent event;
    event.kind = SupervisionEvent::Kind::kWorkerDismiss;
    event.worker = worker.id;
    event.detail = "breaker open: pool shrunk to " +
                   std::to_string(scheduler_.width_cap()) + " of " +
                   std::to_string(target_workers_) + " workers";
    scheduler_.emit(event);
  }

  void maintain_fleet(Clock::time_point now) {
    if (scheduler_.cancelled()) {
      return;  // draining: never grow the fleet during shutdown
    }
    // Backpressure: while the breaker holds the width cap below the target,
    // the POOL ITSELF shrinks to it -- surplus idle workers are dismissed
    // outright, not merely left unreplaced -- so a failure spike stops
    // burning fork+memory on capacity the retry backoff cannot feed anyway.
    // Busy workers are never dismissed; if every surplus worker is busy the
    // shrink completes as their attempts drain.  When the breaker closes the
    // cap recovers and the pool regrows below.
    const std::size_t cap = scheduler_.width_cap();
    const std::size_t wanted =
        std::min({target_workers_, scheduler_.remaining(), cap});
    if (cap < target_workers_) {
      for (const auto& worker : workers_) {
        if (pool_size() <= wanted) {
          break;
        }
        if (!worker->reaped && !worker->quit_sent && !worker->busy &&
            worker->liveness.state() != WorkerLiveness::kDead) {
          dismiss_worker(*worker);
        }
      }
    }
    while (pool_size() < wanted) {
      spawn_worker(now);
    }
  }

  // One frame from a worker's result pipe.  Every frame proves the process
  // is scheduling, so all of them count as beats.
  void handle_frame(Worker& worker, const std::string& frame,
                    Clock::time_point now) {
    emit_transitions(worker, worker.liveness.beat(now));
    if (frame == "beat") {
      return;
    }
    std::istringstream header(frame);
    std::string verb;
    std::size_t replica = 0;
    unsigned attempt = 0;
    header >> verb >> replica >> attempt;
    if (!worker.busy || worker.launch.replica != replica ||
        worker.launch.attempt != attempt) {
      return;  // stale frame from a superseded assignment
    }
    if (verb != "ok" && verb != "err" && verb != "drain") {
      kill_worker(worker);  // off-protocol: the reap path fails the attempt
      return;
    }
    const ExecutionId execution = worker.launch.execution;
    worker.busy = false;
    worker.deadline_signaled = false;
    worker.kill_sent = false;
    // The body starts after the third space: "<verb> <replica> <attempt> ".
    std::size_t body = 0;
    for (int spaces = 0; body < frame.size(); ++body) {
      if (frame[body] == ' ' && ++spaces == 3) {
        ++body;
        break;
      }
    }
    if (verb == "ok") {
      scheduler_.succeeded(execution, now, frame.substr(body));
    } else if (verb == "err") {
      std::string failure_name;
      header >> failure_name;
      FailureClass failure = FailureClass::kTransient;
      try {
        failure = parse_failure_class(failure_name);
      } catch (const std::invalid_argument&) {
      }
      std::string message;
      const std::size_t message_at = frame.find(' ', body);
      if (message_at != std::string::npos) {
        message = frame.substr(message_at + 1);
      }
      scheduler_.failed(execution, now, failure, std::move(message));
    } else {
      std::string reason;
      header >> reason;
      scheduler_.drained(execution, now,
                         reason == to_string(CancelReason::kDeadline)
                             ? CancelReason::kDeadline
                             : CancelReason::kUser);
    }
  }

  void drain_reader(Worker& worker, Clock::time_point now) {
    worker.reader.pump();
    std::string frame;
    while (worker.reader.next(frame)) {
      handle_frame(worker, frame, now);
    }
    if (worker.reader.corrupt() && !worker.reaped) {
      // A corrupted stream gets no benefit of the doubt: the memory behind
      // the worker's writer is suspect, so the worker is too.
      kill_worker(worker);
    }
  }

  // Hands ready attempts to idle workers, as far as the scheduler's width
  // cap allows.  A Dead worker awaiting its reap no longer occupies width.
  void assign_work(Clock::time_point now) {
    while (true) {
      Worker* idle = nullptr;
      std::size_t busy = 0;
      for (const auto& worker : workers_) {
        if (worker->reaped ||
            worker->liveness.state() == WorkerLiveness::kDead) {
          continue;
        }
        if (worker->busy) {
          ++busy;
        } else if (idle == nullptr && !worker->quit_sent) {
          idle = worker.get();
        }
      }
      if (idle == nullptr) {
        return;  // every live worker is busy; try next poll round
      }
      const std::optional<ReplicaScheduler::Launch> launch =
          scheduler_.claim(now, busy);
      if (!launch.has_value()) {
        return;
      }
      const std::string assignment = "work " +
                                     std::to_string(launch->replica) + " " +
                                     std::to_string(launch->attempt);
      if (!wire_write_frame(idle->work_fd, assignment)) {
        // The worker died between polls; hand the attempt back untouched
        // (no budget consumed) and let the reap path recycle the worker.
        scheduler_.unclaim(launch->execution, now);
        kill_worker(*idle);
        idle->quit_sent = true;  // never reuse this channel
        return;
      }
      idle->busy = true;
      idle->launch = *launch;
      idle->deadline_signaled = false;
      idle->kill_sent = false;
    }
  }

  // Deadlines are cooperative first: SIGUSR1 makes the worker fire its
  // attempt token with kDeadline, draining at a step boundary.  A worker
  // that keeps beating but never drains never reached a cancellation point,
  // so after the dead_after grace the crash barrier is the only kill left.
  // The ladder also covers an attempt already told to drain by SIGTERM: the
  // scheduler still issues its deadline kill after an operator cancel.
  void enforce_deadlines(const std::vector<ReplicaScheduler::Kill>& kills,
                         Clock::time_point now) {
    for (const ReplicaScheduler::Kill& kill : kills) {
      for (const auto& worker : workers_) {
        if (worker->busy && worker->launch.execution == kill.execution) {
          ::kill(worker->pid, SIGUSR1);
          worker->deadline_signaled = true;
          worker->kill_at = now + fleet_.dead_after;
        }
      }
    }
    for (const auto& worker : workers_) {
      if (worker->busy && worker->deadline_signaled && now >= worker->kill_at) {
        kill_worker(*worker);
      }
    }
  }

  void tick_liveness(Clock::time_point now) {
    for (const auto& worker : workers_) {
      if (worker->reaped) {
        continue;
      }
      const WorkerLiveness before = worker->liveness.state();
      emit_transitions(*worker, worker->liveness.tick(now));
      if (before != WorkerLiveness::kDead &&
          worker->liveness.state() == WorkerLiveness::kDead) {
        // dead_after with no beat: the process is wedged beyond even its
        // heartbeat thread (stopped, swapped to death, or zombied).
        kill_worker(*worker);
      }
    }
  }

  // The worker's process is gone: its channels and pidfd go with it.
  static void mark_reaped(Worker& worker) {
    worker.reaped = true;
    for (int* fd : {&worker.work_fd, &worker.result_fd, &worker.pidfd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
  }

  // Waits up to kFleetPoll in one poll over the open result pipes and every
  // unreaped worker's pidfd, then drains the pipes that woke it.  A pidfd
  // turns readable when its worker exits, so an exit wakes the parent at
  // once for the reap; the timeout is only the liveness and deadline tick.
  void poll_workers() {
    std::vector<pollfd> fds;
    std::vector<Worker*> readers;  // the worker of a pipe, null for a pidfd
    for (const auto& worker : workers_) {
      if (worker->reaped) {
        continue;
      }
      if (worker->result_fd >= 0 && !worker->reader.closed() &&
          !worker->reader.corrupt()) {
        fds.push_back({worker->result_fd, POLLIN, 0});
        readers.push_back(worker.get());
      }
      fds.push_back({worker->pidfd, POLLIN, 0});
      readers.push_back(nullptr);
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
           static_cast<int>(kFleetPoll.count()));
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (readers[i] != nullptr &&
          (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain_reader(*readers[i], Clock::now());
      }
    }
  }

  void handle_worker_exit(Worker& worker, int status, Clock::time_point now) {
    // Late frames first: a worker that crashed AFTER writing its result
    // still produced a perfectly good result.
    drain_reader(worker, now);
    emit_transitions(worker, worker.liveness.exited(now));
    mark_reaped(worker);
    if (!worker.busy) {
      return;  // idle death costs nothing; maintain_fleet refills
    }
    worker.busy = false;
    const ExecutionId execution = worker.launch.execution;
    if (worker.deadline_signaled) {
      // The deadline escalation (or the crash it provoked) ate the worker.
      scheduler_.drained(execution, now, CancelReason::kDeadline,
                         "; worker " + std::to_string(worker.id) + " killed");
      return;
    }
    std::string detail;
    if (WIFSIGNALED(status)) {
      detail = "worker " + std::to_string(worker.id) + " killed by signal " +
               std::to_string(WTERMSIG(status));
    } else {
      detail = "worker " + std::to_string(worker.id) + " exited with status " +
               std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    }
    detail += " while running attempt " + std::to_string(worker.launch.attempt);
    scheduler_.worker_died(execution, now, std::move(detail));
  }

  void reap_workers(Clock::time_point now) {
    for (const auto& worker : workers_) {
      if (worker->reaped) {
        continue;
      }
      int status = 0;
      const pid_t got = ::waitpid(worker->pid, &status, WNOHANG);
      if (got == worker->pid) {
        handle_worker_exit(*worker, status, now);
      }
    }
  }

  void propagate_cancel() {
    if (scheduler_.cancelled() || options_.cancel == nullptr ||
        !options_.cancel->requested()) {
      return;
    }
    // Queued work becomes unfinished for resume, and in-flight attempts
    // drain cooperatively via SIGTERM (idle workers simply exit on it).
    scheduler_.cancel();
    for (const auto& worker : workers_) {
      if (!worker->reaped) {
        ::kill(worker->pid, SIGTERM);
      }
    }
  }

  void monitor_loop() {
    while (!scheduler_.finished()) {
      const auto now = Clock::now();
      propagate_cancel();
      maintain_fleet(now);
      assign_work(now);
      poll_workers();
      const auto after = Clock::now();
      tick_liveness(after);
      enforce_deadlines(scheduler_.tick(after), after);
      reap_workers(after);
    }
  }

  // SIGKILLs and reaps every worker still standing: the end of the shutdown
  // ladder, and the whole of it when the run ends in an exception.
  void kill_fleet() {
    for (const auto& worker : workers_) {
      if (!worker->reaped) {
        ::kill(worker->pid, SIGKILL);
        ::waitpid(worker->pid, nullptr, 0);
        mark_reaped(*worker);
      }
    }
  }

  // All work is terminal: dismiss the fleet.  EOF on the work pipe is the
  // normal quit signal; SIGTERM and finally SIGKILL cover workers that
  // stopped reading.
  void shutdown_fleet() {
    for (const auto& worker : workers_) {
      if (worker->reaped) {
        continue;
      }
      if (worker->work_fd >= 0) {
        wire_write_frame(worker->work_fd, "quit");
        ::close(worker->work_fd);
        worker->work_fd = -1;
      }
    }
    const auto grace_end = Clock::now() + std::chrono::seconds(5);
    bool all_reaped = false;
    bool term_sent = false;
    while (!all_reaped) {
      all_reaped = true;
      for (const auto& worker : workers_) {
        if (worker->reaped) {
          continue;
        }
        int status = 0;
        const pid_t got = ::waitpid(worker->pid, &status, WNOHANG);
        if (got == worker->pid) {
          drain_reader(*worker, Clock::now());
          mark_reaped(*worker);
          continue;
        }
        all_reaped = false;
      }
      if (all_reaped) {
        break;
      }
      const auto now = Clock::now();
      if (now >= grace_end) {
        kill_fleet();
        break;
      }
      if (!term_sent && now >= grace_end - std::chrono::seconds(2)) {
        term_sent = true;
        for (const auto& worker : workers_) {
          if (!worker->reaped) {
            ::kill(worker->pid, SIGTERM);
          }
        }
      }
      poll_workers();
    }
  }

  const SupervisedTask& task_;
  const SupervisorOptions& options_;
  const std::size_t target_workers_;
  ReplicaScheduler scheduler_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::int64_t next_worker_id_ = 0;
  // Validated copy of options_.fleet (heartbeat cadence clamped against the
  // liveness thresholds); every parent/child consumer reads this one.
  FleetOptions fleet_;
};

}  // namespace

SupervisorReport run_fleet_set(
    std::span<const std::size_t> replica_ids, const SupervisedTask& task,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    const SupervisorOptions& options) {
  return FleetRun(replica_ids, task, on_success, options).run();
}

}  // namespace divlib

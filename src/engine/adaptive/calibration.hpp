// Persistent calibration for the completion-time estimator.
//
// A campaign that resumes after a crash should not re-learn its deadline
// from scratch: the checkpoint directory already pins the exact
// configuration (campaign.meta), so completion-time samples observed before
// the crash are still valid evidence after it.  The calibration log stores
// every accepted estimator observation as a CRC-framed record (io/journal
// framing, the same torn-tail-tolerant format as results.journal) in
// <dir>/calibration.journal.
//
// Records are keyed to one configuration by a fingerprint -- crc32 of the
// campaign.meta text.  A log whose header names a different fingerprint is
// discarded and restarted: stale calibration (a different graph, k, or
// replica count) is worse than a cold start, because it would arm deadlines
// learned for the wrong distribution.  A malformed or torn log degrades the
// same way; calibration is an optimization, never a correctness input.
// So the log is written through to the OS at every append but never
// fsynced (JournalSync::kWriteThrough): a killed process keeps every
// sample, and a machine crash that loses some costs only a colder start.
//
// run_supervised_campaign (engine/campaign) owns the log of its checkpoint
// directory whenever the caller arms an estimator: it opens the log after
// the meta check, warms the estimator, and wires its observer to append().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive/estimator.hpp"
#include "io/journal.hpp"

namespace divlib {

class CalibrationLog {
 public:
  // Opens (creating, recovering, or -- on fingerprint mismatch --
  // restarting) <directory>/calibration.journal.  Throws std::runtime_error
  // only when the directory itself is unusable.
  CalibrationLog(const std::string& directory, std::uint32_t fingerprint);

  // Replays the observations recovered at open (oldest first) into
  // `estimator`; returns how many were replayed.  Call before wiring the
  // estimator's observer back to append(), or every warm sample would be
  // re-persisted.
  std::size_t warm(CompletionEstimator& estimator) const;

  // Appends one observation and writes it through to the OS at once, so a
  // reader -- or a resume after this process is killed -- sees it.  It runs
  // as the estimator's observer, under the executor's lock.  Thread-safe.
  void append(double wall_seconds);

  // Observations recovered from disk at open time.
  std::size_t loaded() const { return loaded_.size(); }

  const std::string& path() const { return path_; }

  static const char* file_name() { return "calibration.journal"; }

 private:
  std::string path_;
  std::uint32_t fingerprint_ = 0;
  std::vector<double> loaded_;
  std::unique_ptr<JournalWriter> writer_;
};

}  // namespace divlib

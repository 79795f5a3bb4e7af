#include "engine/adaptive/calibration.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string_view>

namespace divlib {
namespace {

constexpr std::string_view kHeaderPrefix = "divcalib 1 ";
constexpr std::string_view kObsPrefix = "obs ";

std::string encode_header(std::uint32_t fingerprint) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "divcalib 1 %08" PRIx32, fingerprint);
  return buf;
}

std::string encode_observation(double wall_seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "obs %.17g", wall_seconds);
  return buf;
}

// Parses the recovered records into `out` when they form a well-keyed log:
// a header naming `fingerprint` followed by observation records.  Any
// malformed record poisons the whole log -- calibration is advisory, so the
// safe response to surprise is a cold start.
bool parse_records(const std::vector<std::string>& records,
                   std::uint32_t fingerprint, std::vector<double>* out) {
  if (records.empty()) return false;
  if (records.front() != encode_header(fingerprint)) return false;
  for (std::size_t i = 1; i < records.size(); ++i) {
    const std::string& record = records[i];
    if (record.compare(0, kObsPrefix.size(), kObsPrefix) != 0) return false;
    char* end = nullptr;
    const double value = std::strtod(record.c_str() + kObsPrefix.size(), &end);
    if (end == nullptr || *end != '\0') return false;
    if (!std::isfinite(value) || value <= 0.0) return false;
    out->push_back(value);
  }
  return true;
}

}  // namespace

CalibrationLog::CalibrationLog(const std::string& directory,
                               std::uint32_t fingerprint)
    : fingerprint_(fingerprint) {
  const auto dir = std::filesystem::path(directory);
  path_ = (dir / file_name()).string();

  bool fresh = true;
  if (std::filesystem::exists(path_)) {
    try {
      const JournalRecovery recovery = recover_journal(path_);
      if (parse_records(recovery.records, fingerprint_, &loaded_)) {
        fresh = false;  // well-keyed log: keep it and append after its tail
      } else {
        loaded_.clear();
      }
    } catch (const std::runtime_error&) {
      // Unreadable or not a journal at all; restart below.
    }
    if (fresh) std::filesystem::remove(path_);
  }

  writer_ = std::make_unique<JournalWriter>(path_, JournalSync::kWriteThrough);
  if (fresh) {
    writer_->append(encode_header(fingerprint_));
    writer_->publish();
  }
}

std::size_t CalibrationLog::warm(CompletionEstimator& estimator) const {
  for (const double seconds : loaded_) estimator.observe(seconds);
  return loaded_.size();
}

void CalibrationLog::append(double wall_seconds) {
  if (!std::isfinite(wall_seconds) || wall_seconds <= 0.0) return;
  writer_->append(encode_observation(wall_seconds));
  writer_->publish();
}

}  // namespace divlib

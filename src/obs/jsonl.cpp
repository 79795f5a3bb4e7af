#include "obs/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#ifndef _WIN32
#include <cerrno>
#include <unistd.h>
#endif

namespace {

#ifndef _WIN32
// fsync on a pipe, tty, or character device (streaming telemetry through
// /dev/stdout) fails with EINVAL/ENOTSUP/ROFS; only real I/O errors on
// syncable files should be fatal.
bool fsync_best_effort(int fd) {
  if (fsync(fd) == 0) {
    return true;
  }
  return errno == EINVAL || errno == ENOTSUP || errno == EROFS ||
         errno == ENOTTY;
}
#endif

}  // namespace

namespace divlib {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  const auto [end, errc] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (errc != std::errc{}) {
    return "null";
  }
  return std::string(buffer, end);
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view rendered) {
  if (!body_.empty()) {
    body_.push_back(',');
  }
  body_.push_back('"');
  body_.append(json_escape(key));
  body_.append("\":");
  body_.append(rendered);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  std::string quoted(1, '"');
  quoted += json_escape(value);
  quoted.push_back('"');
  return raw(key, quoted);
}

JsonObject& JsonObject::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

JsonObject& JsonObject::field(std::string_view key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::field(std::string_view key, std::int64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::field(std::string_view key, double value) {
  return raw(key, json_double(value));
}

JsonObject& JsonObject::field(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::raw_field(std::string_view key, std::string_view json) {
  return raw(key, json);
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

JsonlWriter::JsonlWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("JsonlWriter: cannot create '" + path + "'");
  }
}

JsonlWriter::~JsonlWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
#ifndef _WIN32
    fsync_best_effort(fileno(file_));
#endif
    std::fclose(file_);
  }
}

void JsonlWriter::emit(std::string_view json) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), file_) == json.size() &&
      std::fputc('\n', file_) != EOF;
  // Per-record fflush keeps every completed line on its way to the kernel,
  // so a crash tears at most the line in flight (cf. the journal's cadence).
  if (!wrote || std::fflush(file_) != 0) {
    throw std::runtime_error("JsonlWriter: write to '" + path_ + "' failed");
  }
  ++lines_;
}

void JsonlWriter::sync() {
  const std::lock_guard<std::mutex> lock(mutex_);
  bool ok = std::fflush(file_) == 0;
#ifndef _WIN32
  ok = ok && fsync_best_effort(fileno(file_));
#endif
  if (!ok) {
    throw std::runtime_error("JsonlWriter: sync of '" + path_ + "' failed");
  }
}

}  // namespace divlib

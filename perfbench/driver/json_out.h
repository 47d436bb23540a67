#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

/// Minimal ordered JSON object writer for the driver's one-line results.
/// Values are emitted in insertion order; doubles with full precision so
/// run.py sees every digit that was measured.
namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& u64(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  JsonObject& nums(std::string_view key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",",
                    values[i]);
      out += buf;
    }
    return raw(key, out + "]");
  }
  JsonObject& u64s(std::string_view key,
                   const std::vector<std::uint64_t>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(values[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& object(std::string_view key, const JsonObject& value) {
    return raw(key, value.str());
  }
  /// Appends an already-encoded JSON value.
  JsonObject& raw(std::string_view key, std::string_view encoded) {
    if (!body_.empty()) body_ += ",";
    body_ += quote(key);
    body_ += ":";
    body_ += encoded;
    return *this;
  }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  std::string body_;
};

}  // namespace perfbench

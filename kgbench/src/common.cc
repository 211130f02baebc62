#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace kgb {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

void SpinNs(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

double PeakRssMib() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
    a = a.substr(2);
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      values_[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[a] = argv[++i];
    } else {
      values_[a] = "1";
    }
  }
}

std::string Flags::Str(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::Int(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::Double(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "null");
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  fields_.emplace_back(key, buf);
}

void JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonEscape(value));
}

void JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonObject::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonEscape(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void CheckLog::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++check_failures_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

}  // namespace kgb

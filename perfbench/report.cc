#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace {

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Fixed(const std::string& name, const std::string& value) {
  fixed_.emplace_back(name, "\"" + value + "\"");
}

void Report::Fixed(const std::string& name, double value) {
  fixed_.emplace_back(name, FormatNumber(value));
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Print() const {
  std::string fixed = "fixed {";
  for (size_t i = 0; i < fixed_.size(); ++i) {
    fixed += (i > 0 ? ", \"" : "\"") + fixed_[i].first + "\": " +
             fixed_[i].second;
  }
  std::printf("%s}\n", fixed.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Layers::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Report::Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Layers::EmitTo(Report* report) const {
  for (const Report::Entry& e : entries_) {
    report->Metric(e.name, e.value, e.unit);
  }
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

size_t SpanLog::Open(const char* name) {
  spans_.push_back({name, tune_, current_, NowNs(), -1});
  current_ = static_cast<int64_t>(spans_.size()) - 1;
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  current_ = spans_[index].parent;
}

std::vector<std::pair<std::string, double>> SpanLog::SelfTimes(
    const std::string& root, double* root_s) const {
  // Children open after and close before their parent on the one caller
  // thread, so the covered part of a span is the sum of its children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  std::vector<bool> under_root(spans_.size(), false);
  size_t roots = 0;
  int64_t root_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    if (s.name == root) {
      under_root[i] = true;
      ++roots;
      root_ns += s.end_ns - s.start_ns;
    } else if (s.parent >= 0) {
      under_root[i] = under_root[static_cast<size_t>(s.parent)];
    }
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!under_root[i]) continue;
    const Rec& s = spans_[i];
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& e) { return e.first == s.name; });
    if (it == out.end()) {
      out.emplace_back(s.name, self);
    } else {
      it->second += self;
    }
  }
  const double n = roots > 0 ? static_cast<double>(roots) : 1.0;
  for (auto& entry : out) entry.second /= n;
  if (root_s != nullptr) *root_s = static_cast<double>(root_ns) * 1e-9 / n;
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %lld, \"tune\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.tune), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

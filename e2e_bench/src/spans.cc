#include "spans.h"

#include <cstdio>
#include <fstream>
#include <map>

namespace e2e {

Spans::Scope::Scope(Spans* spans, const char* name, uint64_t req)
    : spans_(spans), id_(static_cast<int>(spans->spans_.size())) {
  Span s;
  s.name = name;
  s.parent = spans->open_.empty() ? -1 : spans->open_.back();
  s.req = req;
  s.start_us = spans->NowUs();
  spans->spans_.push_back(std::move(s));
  spans->open_.push_back(id_);
}

Spans::Scope::~Scope() {
  spans_->spans_[static_cast<size_t>(id_)].end_us = spans_->NowUs();
  spans_->open_.pop_back();
}

std::vector<double> Spans::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

std::vector<double> Spans::SelfTimes(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(spans_[i].end_us - spans_[i].start_us - child[i]);
    }
  }
  return out;
}

std::vector<double> Spans::SumsByReq(const std::string& name) const {
  std::map<uint64_t, double> sums;
  for (const Span& s : spans_) {
    if (s.name == name) sums[s.req] += s.end_us - s.start_us;
  }
  std::vector<double> out;
  for (const auto& [req, sum] : sums) out.push_back(sum);
  return out;
}

void Spans::PrintSummary() const {
  std::map<std::string, int> names;
  for (const Span& s : spans_) ++names[s.name];
  std::printf("trace: %-26s %8s %12s %14s\n", "span", "count", "self_ms",
              "median_self_us");
  for (const auto& [name, count] : names) {
    const std::vector<double> self = SelfTimes(name);
    double total = 0;
    for (double x : self) total += x;
    std::printf("trace: %-26s %8d %12.3f %14.2f\n", name.c_str(), count,
                total / 1e3, Median(self));
  }
}

bool Spans::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e

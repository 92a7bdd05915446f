#include "trace.hpp"

#include <chrono>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::int32_t Tracer::begin(std::uint32_t name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  const auto index = static_cast<std::int32_t>(spans_.size());
  open_.push_back(index);
  spans_.push_back(span);
  spans_.back().start_ns = clock_ns();
  return index;
}

void Tracer::end(std::int32_t index, std::uint64_t work, std::uint64_t items) {
  if (index < 0) return;
  const std::uint64_t t = clock_ns();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = t;
  span.work = work;
  span.items = items == 0 ? 1 : items;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::merge(const Tracer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    span.name = intern(other.names_[span.name]);
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::vector<const Span*> Tracer::find(std::string_view name) const {
  std::vector<const Span*> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == it->second) out.push_back(&span);
  }
  return out;
}

double Tracer::median_ns(std::string_view name) const {
  std::vector<double> per_call;
  for (const Span* span : find(name)) {
    per_call.push_back(span->duration_ns() / static_cast<double>(span->items));
  }
  return median(per_call);
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const Span* span : find(name)) total += span->duration_ns();
  return total;
}

double Tracer::mean_work(std::string_view name) const {
  const auto spans = find(name);
  if (spans.empty()) return 0.0;
  return total_work(name) / static_cast<double>(spans.size());
}

double Tracer::total_work(std::string_view name) const {
  double total = 0.0;
  for (const Span* span : find(name)) total += static_cast<double>(span->work);
  return total;
}

std::vector<double> Tracer::self_ns() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  // Children of one parent ran one after another on the parent's thread,
  // so the part of the parent they cover is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration_ns();
    }
  }
  return self;
}

std::vector<std::string> Tracer::summary_lines() const {
  const auto self = self_ns();
  std::vector<std::uint64_t> count(names_.size(), 0);
  std::vector<double> total(names_.size(), 0.0);
  std::vector<double> self_total(names_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto n = spans_[i].name;
    ++count[n];
    total[n] += spans_[i].duration_ns();
    self_total[n] += self[i];
  }
  std::vector<std::string> lines;
  char buf[256];
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (count[n] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-36s spans %7llu  total %10.3f ms  self %10.3f ms",
                  names_[n].c_str(), static_cast<unsigned long long>(count[n]),
                  total[n] * 1e-6, self_total[n] * 1e-6);
    lines.emplace_back(buf);
  }
  return lines;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto self = self_ns();
  std::fprintf(f, "{\"names\":[");
  for (std::size_t n = 0; n < names_.size(); ++n) {
    std::fprintf(f, "%s\"%s\"", n == 0 ? "" : ",", names_[n].c_str());
  }
  // One row per span: name id, parent index, request, start and end (ns,
  // steady clock), self time (ns), work, items.
  std::fprintf(f, "],\n\"columns\":[\"name\",\"parent\",\"request\",\"start_ns\","
                  "\"end_ns\",\"self_ns\",\"work\",\"items\"],\n\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u,%d,%llu,%llu,%llu,%.0f,%llu,%llu]", i == 0 ? "" : ",\n",
                 s.name, s.parent, static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), self[i],
                 static_cast<unsigned long long>(s.work),
                 static_cast<unsigned long long>(s.items));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

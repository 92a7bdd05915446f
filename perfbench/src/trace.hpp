// In-memory span recorder for the traced run.
//
// A span covers one call the benchmark makes into a layer: its name, start
// and end, the span that was open when it began (its parent), a request id
// (the solve seed or the served job), and two counts — `work`, the amount
// of work the call did (moved cells, nets, NetChanges, ...), and `items`,
// how many calls the span wraps (per-call time is duration / items; tiny
// calls are timed in groups so the clock read does not dominate).
//
// One Tracer belongs to one thread. Spans stay in memory until the run
// ends; merge() folds other threads' tracers in, and write_json() dumps
// everything together with per-name totals and self times (a span's
// duration minus the time its child spans cover).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  ///< index in the owning tracer; -1 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t work = 0;
  std::uint64_t items = 1;

  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

std::uint64_t clock_ns();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    // Growing the span buffer inside a timed parent would bill the copy to
    // that parent; reserve the common case up front.
    if (enabled_) spans_.reserve(1u << 17);
  }

  bool enabled() const { return enabled_; }

  /// Interns a span name; call outside timed code.
  std::uint32_t intern(std::string_view name);

  /// Opens a span (no-op returning -1 when disabled).
  std::int32_t begin(std::uint32_t name, std::uint64_t request = 0);
  /// Closes the innermost open span, which must be `index`.
  void end(std::int32_t index, std::uint64_t work = 0, std::uint64_t items = 1);

  /// Appends another tracer's spans (names re-interned, parents re-based).
  void merge(const Tracer& other);

  /// Median per-call time (duration / items) of the named spans, ns.
  double median_ns(std::string_view name) const;
  /// Summed duration of the named spans, ns.
  double total_ns(std::string_view name) const;
  /// Mean `work` per span of the named spans.
  double mean_work(std::string_view name) const;
  /// Summed `work` of the named spans.
  double total_work(std::string_view name) const;

  /// Per-name count, total and self time, one line each.
  std::vector<std::string> summary_lines() const;

  /// Writes every span plus the per-name summary as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  /// Spans of one name, in recording order (empty if the name is unknown).
  std::vector<const Span*> find(std::string_view name) const;
  std::vector<double> self_ns() const;

  bool enabled_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; set work/items before it closes.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~Scope() { tracer_.end(index_, work_, items_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_work(std::uint64_t work) { work_ = work; }
  void set_items(std::uint64_t items) { items_ = items; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
  std::uint64_t work_ = 0;
  std::uint64_t items_ = 1;
};

}  // namespace perfbench

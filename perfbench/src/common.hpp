#pragma once
// Shared plumbing for the perfbench program: clocks, order statistics, the
// result line, the span recorder of the traced runs, and small file helpers.
// Nothing here calls into parcfl; the workload files do that.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] inline void fail(const std::string& message) {
  throw std::runtime_error(message);
}

/// Run fn(item, worker) for every item in [0, count) on `workers` threads,
/// handing items out in order. The first exception a worker throws stops
/// the hand-out and is rethrown here once every worker has joined.
template <class Fn>
void parallel_for(std::size_t count, unsigned workers, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w)
    threads.emplace_back([&, w] {
      try {
        for (std::size_t i = next++; i < count; i = next++) fn(i, w);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
        next = count;
      }
    });
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Joins a thread when its scope ends, on exception paths too.
class JoinGuard {
 public:
  explicit JoinGuard(std::thread& t) : t_(t) {}
  ~JoinGuard() {
    if (t_.joinable()) t_.join();
  }
  JoinGuard(const JoinGuard&) = delete;
  JoinGuard& operator=(const JoinGuard&) = delete;

 private:
  std::thread& t_;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

/// Median (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Peak resident set of a process in MiB (VmHWM), 0 when unreadable.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Operation kinds the benchmark attempts, and why one failed.
enum class Op : int { kQuery, kAlias, kTaint, kDepends, kUpdate, kCount };
inline const char* op_name(Op op) {
  static const char* names[] = {"query", "alias", "taint", "depends", "update"};
  return names[static_cast<int>(op)];
}
enum class Cause : int { kShed, kProtocol, kWrong, kCount };
inline const char* cause_name(Cause c) {
  static const char* names[] = {"shed", "protocol_error", "wrong_answer"};
  return names[static_cast<int>(c)];
}

/// Attempted/failed tallies per operation kind, failures split by cause.
struct Tally {
  std::uint64_t attempted[static_cast<int>(Op::kCount)] = {};
  std::uint64_t failed[static_cast<int>(Op::kCount)]
                      [static_cast<int>(Cause::kCount)] = {};

  void attempt(Op op, std::uint64_t n = 1) {
    attempted[static_cast<int>(op)] += n;
  }
  void fail(Op op, Cause cause, std::uint64_t n = 1) {
    failed[static_cast<int>(op)][static_cast<int>(cause)] += n;
  }
  std::uint64_t total_attempted() const {
    std::uint64_t n = 0;
    for (const auto a : attempted) n += a;
    return n;
  }
  std::uint64_t total_failed() const {
    std::uint64_t n = 0;
    for (const auto& per_op : failed)
      for (const auto f : per_op) n += f;
    return n;
  }
  /// Human-readable per-kind lines (stdout, before the result line).
  void print() const {
    for (int op = 0; op < static_cast<int>(Op::kCount); ++op) {
      if (attempted[op] == 0) continue;
      std::uint64_t f = 0;
      std::string causes;
      for (int c = 0; c < static_cast<int>(Cause::kCount); ++c) {
        f += failed[op][c];
        if (failed[op][c] != 0)
          causes += std::string(" ") + cause_name(static_cast<Cause>(c)) +
                    "=" + std::to_string(failed[op][c]);
      }
      std::printf("ops %-8s attempted=%llu failed=%llu%s\n",
                  op_name(static_cast<Op>(op)),
                  static_cast<unsigned long long>(attempted[op]),
                  static_cast<unsigned long long>(f), causes.c_str());
    }
  }
};

/// Metrics of one run, each set once, in order. set() puts a metric in the
/// result line, which must hold exactly the metrics BENCHMARK.json lists for
/// the run's mode, on every workload. print_only() puts one in the table
/// alone: a figure that applies to some workloads only, or is not steady
/// enough to gate.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit, true});
  }
  void print_only(const std::string& name, double value,
                  const std::string& unit) {
    items_.push_back({name, value, unit, false});
  }

  void print_table() const {
    for (const auto& m : items_)
      std::printf("metric %-34s %16.6f %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.in_result ? "" : " (printed only)");
  }

  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& m : items_) {
      if (!m.in_result) continue;
      if (!first) os << ", ";
      first = false;
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      os << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
         << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
    bool in_result;
  };
  std::vector<Item> items_;
};

/// In-memory span recorder for the traced runs. A span has a name (its
/// layer is the part before the first '.'), a start and end, the span that
/// caused it, and the id of the request or unit of work it belongs to.
/// Spans are appended under a mutex (traced runs only; untraced runs never
/// construct one) and written out as JSON lines when the run ends.
class Tracer {
 public:
  using SpanId = std::uint64_t;
  static constexpr SpanId kNoParent = 0;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  SpanId record(const std::string& name, Clock::time_point start,
                Clock::time_point end, SpanId parent, std::uint64_t request) {
    std::lock_guard lock(mu_);
    spans_.push_back({spans_.size() + 1, parent, request, name, start, end});
    return spans_.size();
  }

  /// Reserve an id for a span whose end is not known yet (a parent that is
  /// opened before its children); finish() fills it in.
  SpanId open(const std::string& name, Clock::time_point start, SpanId parent,
              std::uint64_t request) {
    return record(name, start, start, parent, request);
  }
  void finish(SpanId id, Clock::time_point end) {
    std::lock_guard lock(mu_);
    spans_[id - 1].end = end;
  }

  /// Parent every unparented span to the span named `root_name` that shares
  /// its request id (spans recorded on both ends of a connection).
  void link_to_request_root(const std::string& root_name) {
    std::lock_guard lock(mu_);
    std::map<std::uint64_t, SpanId> roots;
    for (const Span& s : spans_)
      if (s.name == root_name) roots[s.request] = s.id;
    for (Span& s : spans_) {
      if (s.parent != kNoParent || s.name == root_name) continue;
      const auto it = roots.find(s.request);
      if (it != roots.end()) s.parent = it->second;
    }
  }

  /// Self time per layer in ms: each span's duration minus the part of it
  /// its children cover.
  std::map<std::string, double> layer_self_ms() const {
    std::lock_guard lock(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Union of child intervals clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const std::size_t c : children[s.id]) {
        const auto a = std::max(spans_[c].start, s.start);
        const auto b = std::min(spans_[c].end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      Clock::time_point cur_a{}, cur_b{};
      bool have = false;
      for (const auto& [a, b] : iv) {
        if (have && a <= cur_b) {
          cur_b = std::max(cur_b, b);
        } else {
          if (have) covered += ms_between(cur_a, cur_b);
          cur_a = a;
          cur_b = b;
          have = true;
        }
      }
      if (have) covered += ms_between(cur_a, cur_b);
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] += std::max(0.0, ms_between(s.start, s.end) - covered);
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  void write_jsonl(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\"" << s.name
          << "\",\"start_us\":"
          << std::chrono::duration<double, std::micro>(s.start - origin_).count()
          << ",\"end_us\":"
          << std::chrono::duration<double, std::micro>(s.end - origin_).count()
          << "}\n";
    }
  }

 private:
  struct Span {
    SpanId id, parent;
    std::uint64_t request;
    std::string name;
    Clock::time_point start, end;
  };
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot write " + path);
  out << text;
  if (!out.flush()) fail("short write to " + path);
}

/// Whitespace-separated unsigned integers from a file.
inline std::vector<std::uint32_t> read_ids(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<std::uint32_t> out;
  std::uint64_t v = 0;
  while (in >> v) out.push_back(static_cast<std::uint32_t>(v));
  return out;
}

}  // namespace perfbench

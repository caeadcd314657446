// The serving workloads.
//
// serve-hot: the shipped parcfl_serve binary in its own process, driven over
// loopback TCP by kHotConnections closed-loop connections from this process.
// Measured after a warm-up that mines every root into the index and after
// the server has gone idle (prefilter ready, no index work, no CPU burn).
// The traced run serves through an in-process TcpServer whose per-connection
// handler times parse_request, QueryService::call and format_reply apart.
//
// serve-churn: an in-process QueryService fed open loop by one sender thread
// at kChurnRate, with `update` deltas that add an edge set and later remove
// it interleaved into the request stream. Requests are timed from their
// scheduled send time, so a stall behind an update shows in every request
// queued behind it.
//
// Both configure the service as parcfl_serve does by default (budget 100000,
// tau_F 100, tau_U 10000, batch 64, linger 500us, reduction, prefilter and
// index on), except engine threads (kEngineThreads).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <deque>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "check.hpp"
#include "common.hpp"
#include "parcfl.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parcfl;
using AliasAnswer = cfl::Solver::AliasAnswer;

namespace {

// ---------------------------------------------------------------------------
// Requests, replies and their checks
// ---------------------------------------------------------------------------

struct Request {
  Op op = Op::kQuery;
  std::string line;       // as sent on the wire / parsed in-process
  std::uint32_t a = 0, b = 0;
  std::string delta;      // update: delta file name
  bool round_start = false;
};

Request classify(const std::string& line) {
  Request r;
  r.line = line;
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (verb == "query") r.op = Op::kQuery;
  else if (verb == "alias") r.op = Op::kAlias;
  else if (verb == "taint") r.op = Op::kTaint;
  else if (verb == "depends") r.op = Op::kDepends;
  else if (verb == "update") r.op = Op::kUpdate;
  else fail("bad schedule line: " + line);
  if (r.op == Op::kUpdate) {
    in >> r.delta;
  } else {
    in >> r.a;
    if (r.op != Op::kQuery) in >> r.b;
  }
  return r;
}

/// Rounds of the schedule, flattened; every round has the same make-up.
struct Schedule {
  std::vector<Request> requests;
  std::size_t round_len = 0;
};

Schedule load_schedule(const std::string& path) {
  Schedule s;
  std::istringstream in(read_file(path));
  std::string line;
  std::size_t rounds = 0;
  bool next_starts = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "round") {
      ++rounds;
      next_starts = true;
      continue;
    }
    s.requests.push_back(classify(line));
    s.requests.back().round_start = next_starts;
    next_starts = false;
  }
  if (rounds == 0 || s.requests.size() % rounds != 0)
    fail("schedule rounds are not uniform");
  s.round_len = s.requests.size() / rounds;
  return s;
}

/// A reply reduced to what the checks need (charged steps dropped: they
/// legitimately differ between warm and cold).
struct Outcome {
  enum Kind { kOk, kShed, kError } kind = kError;
  cfl::QueryStatus status = cfl::QueryStatus::kComplete;
  AliasAnswer answer = AliasAnswer::kUnknown;
  std::vector<std::uint32_t> objects;
  std::string text;  // error text

  std::string key() const {
    std::string k = std::to_string(kind) + ":" +
                    std::to_string(static_cast<int>(status)) + ":" +
                    std::to_string(static_cast<int>(answer)) + ":" + text;
    for (const auto o : objects) k += "," + std::to_string(o);
    return k;
  }
};

Outcome from_reply(const service::Reply& r) {
  Outcome o;
  using S = service::Reply::Status;
  if (r.status == S::kShedOverload || r.status == S::kShedDeadline) {
    o.kind = Outcome::kShed;
    return o;
  }
  if (r.status == S::kError) {
    o.text = r.text;
    return o;
  }
  o.kind = Outcome::kOk;
  o.status = r.query_status;
  o.answer = r.alias;
  for (const auto n : r.objects) o.objects.push_back(n.value());
  return o;
}

/// Parse a wire reply line of a data-plane verb.
Outcome from_wire(Op op, const std::string& line) {
  Outcome o;
  std::istringstream in(line);
  std::string head, word;
  in >> head >> word;
  if (head == "shed") {
    o.kind = Outcome::kShed;
    return o;
  }
  if (head != "ok") {
    o.text = line;
    return o;
  }
  o.kind = Outcome::kOk;
  if (op == Op::kQuery) {
    o.status = word == "complete" ? cfl::QueryStatus::kComplete
               : word == "partial" ? cfl::QueryStatus::kOutOfBudget
                                   : cfl::QueryStatus::kEarlyTermination;
    std::uint64_t charged = 0, n = 0;
    in >> charged >> n;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string id;
      in >> id;
      o.objects.push_back(static_cast<std::uint32_t>(
          std::strtoul(id.c_str() + (id[0] == 'v'), nullptr, 10)));
    }
    if (!in) return Outcome{Outcome::kError, {}, {}, {}, "truncated: " + line};
  } else {
    o.answer = (word == "may" || word == "tainted" || word == "depends")
                   ? AliasAnswer::kMay
               : (word == "no" || word == "clean" || word == "independent")
                   ? AliasAnswer::kNo
                   : AliasAnswer::kUnknown;
    if (word != "may" && word != "tainted" && word != "depends" &&
        word != "no" && word != "clean" && word != "independent" &&
        word != "unknown")
      return Outcome{Outcome::kError, {}, {}, {}, "unparsed: " + line};
  }
  return o;
}

/// Distinct (graph state, request, outcome) triples with their counts.
class AnswerLog {
 public:
  /// `weight` 0 records an answer that is checked but not counted (warm-up).
  void add(unsigned state, const Request& r, Outcome o,
           std::uint64_t weight = 1) {
    std::string key = std::to_string(state) + "|" + r.line + "|" + o.key();
    auto it = entries_.find(key);
    if (it == entries_.end())
      it = entries_.emplace(std::move(key), Entry{state, r, std::move(o), 0})
               .first;
    it->second.count += weight;
  }

  /// Check every entry against refs[state]; returns false on any failure
  /// other than the known flow-verb fault.
  bool check(std::vector<std::unique_ptr<GraphRefs>>& refs, Tally& tally,
             std::uint64_t& known_fault_requests) {
    bool correct = true;
    std::map<std::string, int> printed;
    for (auto& [key, e] : entries_) {
      const Outcome& o = e.outcome;
      if (o.kind == Outcome::kShed) {
        tally.fail(e.request.op, Cause::kShed, e.count);
        continue;
      }
      if (o.kind == Outcome::kError) {
        tally.fail(e.request.op, Cause::kProtocol, e.count);
        correct = false;
        std::printf("error reply to '%s': %s\n", e.request.line.c_str(),
                    o.text.c_str());
        continue;
      }
      if (e.request.op == Op::kUpdate) continue;
      GraphRefs& g = *refs.at(e.state);
      std::string why;
      Verdict v = Verdict::kOk;
      switch (e.request.op) {
        case Op::kQuery:
          v = g.check_query(e.request.a, o.status, o.objects, &why);
          break;
        case Op::kAlias:
          v = g.check_alias(e.request.a, e.request.b, o.answer, &why);
          break;
        case Op::kTaint:
        case Op::kDepends:
          v = g.check_flow(e.request.op == Op::kTaint ? cfl::QueryKind::kTaint
                                                      : cfl::QueryKind::kDepends,
                           e.request.a, e.request.b, o.answer, &why);
          break;
        default:
          break;
      }
      if (v == Verdict::kOk) continue;
      tally.fail(e.request.op, Cause::kWrong, e.count);
      if (v == Verdict::kKnownFault) {
        ++known_fault_requests;
      } else {
        correct = false;
      }
      const std::string kind = v == Verdict::kKnownFault ? "known-fault" : "wrong";
      if (printed[kind]++ < 8)
        std::printf("%s (state %u, x%llu): %s\n", kind.c_str(), e.state,
                    static_cast<unsigned long long>(e.count), why.c_str());
    }
    return correct;
  }

 private:
  struct Entry {
    unsigned state;
    Request request;
    Outcome outcome;
    std::uint64_t count;
  };
  std::unordered_map<std::string, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Service configuration and warm-up
// ---------------------------------------------------------------------------

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.session.engine.threads = kEngineThreads;
  o.session.engine.solver.budget = kBudget;
  o.session.engine.solver.tau_finished = kTauFinished;
  o.session.engine.solver.tau_unfinished = kTauUnfinished;
  return o;
}

pag::Pag read_graph(const std::string& path) {
  std::ifstream in(path);
  std::string error;
  auto g = pag::read_pag(in, &error);
  if (!g) fail(path + ": " + error);
  return std::move(*g);
}

/// Warm-up lines: every root kWarmupRepeats times, in rounds.
std::vector<std::string> warmup_lines(const std::string& dir) {
  const auto roots = read_ids(dir + "/roots");
  std::vector<std::string> out;
  for (unsigned r = 0; r < kWarmupRepeats; ++r)
    for (const auto v : roots) out.push_back("query " + std::to_string(v));
  return out;
}

std::string join_numbers(const std::vector<double>& xs) {
  std::string out;
  for (const double x : xs) out += (out.empty() ? "" : " ") + std::to_string(x);
  return out;
}

std::vector<std::unique_ptr<GraphRefs>> base_refs(const pag::Pag& base) {
  std::vector<std::unique_ptr<GraphRefs>> refs;
  refs.push_back(std::make_unique<GraphRefs>(base));
  return refs;
}

/// Latency metrics of a serving phase. p99 is printed, not gated: on
/// serve-hot ten runs spread 0.45 (Q3-Q1 over the median); on serve-churn it
/// flips between ~5 and ~10 ms from run to run with the update mode below.
/// The flow-verb p50 is printed too: batch-table1 sends no flow verbs, and
/// the result line holds only metrics every workload measures.
void add_latency_metrics(Metrics& m, const std::vector<double>& all_ms,
                         const std::vector<double>& flow_ms) {
  m.set("latency_p50_ms", percentile(all_ms, 0.50), "ms");
  m.print_only("latency_p99_ms", percentile(all_ms, 0.99), "ms");
  m.print_only("flow_latency_p50_ms", percentile(flow_ms, 0.50), "ms");
}

/// Service-side counters sampled around a measured phase.
struct ServiceSample {
  service::ServiceStats stats;
  service::Session::IndexInfo index;
};

ServiceSample sample(service::QueryService& svc) {
  return {svc.stats(), svc.session().index_info()};
}

/// Layer metrics of a traced serving phase. The result line holds the
/// solver's counters, which batch-table1 reports too; the prefilter, index
/// and service figures have no batch counterpart and are printed only.
void service_layer_metrics(const ServiceSample& before,
                           const ServiceSample& after, service::QueryService& svc,
                           Metrics& m) {
  const auto e = after.stats.engine.since(before.stats.engine);
  m.print_only("pag.reduce_edges_removed",
               svc.session().reduce_stats().edges_removed, "count");
  m.print_only("andersen.hits", static_cast<double>(e.prefilter_hits), "count");
  m.print_only("andersen.misses", static_cast<double>(e.prefilter_misses),
               "count");
  m.set("cfl.solver_queries", static_cast<double>(e.queries), "count");
  m.set("cfl.traversed_steps", static_cast<double>(e.traversed_steps), "count");
  m.set("cfl.charged_steps", static_cast<double>(e.charged_steps), "count");
  m.set("cfl.out_of_budget", static_cast<double>(e.out_of_budget), "count");
  m.set("cfl.early_terminations", static_cast<double>(e.early_terminations),
        "count");
  m.set("cfl.jmps_added_finished", static_cast<double>(e.jmps_added_finished),
        "count");
  m.set("cfl.jmps_added_unfinished",
        static_cast<double>(e.jmps_added_unfinished), "count");
  m.set("cfl.jmps_suppressed", static_cast<double>(e.jmps_suppressed), "count");
  m.set("cfl.jmp_hit_ratio",
        e.jmp_lookups ? static_cast<double>(e.jmps_taken) /
                            static_cast<double>(e.jmp_lookups)
                      : 0.0,
        "ratio");
  std::printf("base cfl.jmp_hit_ratio: %llu jmps taken / %llu lookups\n",
              static_cast<unsigned long long>(e.jmps_taken),
              static_cast<unsigned long long>(e.jmp_lookups));
  m.set("cfl.contexts", static_cast<double>(after.stats.context_count), "count");
  m.set("cfl.jmp_store_bytes", static_cast<double>(after.stats.jmp_store_bytes),
        "bytes");
  m.print_only("cfl.index.hits",
               static_cast<double>(after.index.hits - before.index.hits),
               "count");
  m.print_only("cfl.index.misses",
               static_cast<double>(after.index.misses - before.index.misses),
               "count");
  m.print_only("cfl.index.entries", static_cast<double>(after.index.entries),
               "count");
  m.print_only("cfl.index.memory_bytes",
               static_cast<double>(after.index.memory_bytes), "bytes");
  const double batches =
      static_cast<double>(after.stats.batches - before.stats.batches);
  const double units =
      after.stats.mean_batch_size * static_cast<double>(after.stats.batches) -
      before.stats.mean_batch_size * static_cast<double>(before.stats.batches);
  m.print_only("service.batches", batches, "count");
  m.print_only("service.batch_size_mean", batches > 0 ? units / batches : 0.0,
               "count");
}

/// In-process set-up: read the graph, build the service, warm it with
/// `clients` closed-loop threads, and wait until the prefilter is ready and
/// the compactor has drained. Fills the set-up layer timings.
struct InProcess {
  std::unique_ptr<service::QueryService> svc;
  double setup_s = 0, read_ms = 0, prefilter_ready_ms = 0, index_build_ms = 0;
};

InProcess set_up_in_process(const std::string& dir) {
  InProcess p;
  const auto t0 = Clock::now();
  pag::Pag graph = read_graph(dir + "/serve.pag");
  p.read_ms = ms_between(t0, Clock::now());
  p.svc = std::make_unique<service::QueryService>(std::move(graph),
                                                  service_options());
  std::thread prefilter_watch([&] {
    p.svc->session().wait_for_prefilter();
    p.prefilter_ready_ms = ms_between(t0, Clock::now());
  });
  const JoinGuard join_watch(prefilter_watch);
  const auto lines = warmup_lines(dir);
  parallel_for(lines.size(), kHotConnections, [&](std::size_t i, unsigned) {
    service::Request req;
    std::string error;
    if (!service::parse_request(lines[i], p.svc->node_count(), req, error))
      fail("warm-up request rejected: " + error);
    p.svc->call(std::move(req));
  });
  const auto warm = Clock::now();
  prefilter_watch.join();
  p.svc->session().wait_for_index();
  p.index_build_ms = ms_between(warm, Clock::now());
  p.setup_s = seconds_between(t0, Clock::now());
  return p;
}

// ---------------------------------------------------------------------------
// TCP client and the parcfl_serve child process
// ---------------------------------------------------------------------------

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fail("connect to 127.0.0.1:" + std::to_string(port) + " failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line and return its (single-line) reply.
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (w <= 0) fail("send failed");
      sent += static_cast<std::size_t>(w);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) fail("connection closed by server");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// parcfl_serve in its own process; killed and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& pag_path,
                const std::string& log_path) {
    write_file(log_path, "");  // never read a previous server's log
    pid_ = ::fork();
    if (pid_ < 0) fail("fork failed");
    if (pid_ == 0) {
      // Die with the benchmark, even if it is killed without unwinding.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() == 1) ::_exit(127);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      const std::string threads = std::to_string(kEngineThreads);
      const std::string budget = std::to_string(kBudget);
      ::execl(binary.c_str(), binary.c_str(), pag_path.c_str(), "--port", "0",
              "--threads", threads.c_str(), "--budget", budget.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const auto start = Clock::now();
    static const std::string kListening = "listening on 127.0.0.1:";
    for (;;) {
      // Only a complete line counts: the log may be caught mid-write.
      std::ifstream in(log_path);
      std::stringstream text;
      text << in.rdbuf();
      const std::string log = text.str();
      const auto at = log.find(kListening);
      if (at != std::string::npos &&
          log.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::atoi(log.c_str() + at + kListening.size()));
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        fail("parcfl_serve exited during start-up (see " + log_path + ")");
      }
      if (seconds_between(start, Clock::now()) > 60) fail("parcfl_serve start timed out");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  std::string pid() const { return std::to_string(pid_); }

  /// CPU time (user + system) the server has used, in clock ticks.
  long cpu_ticks() const {
    std::ifstream in("/proc/" + pid() + "/stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(stat.substr(close + 2));
    std::string f;
    long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::atol(f.c_str());
      if (i == 15) stime = std::atol(f.c_str());
    }
    return utime + stime;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto start = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(start, Clock::now()) > 20) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Closed-loop warm-up over `conns`, then wait until the server is idle:
/// prefilter ready, no index keys pending and no CPU burned for a while.
void warm_up_over_tcp(std::vector<std::unique_ptr<Connection>>& conns,
                      const std::vector<std::string>& lines,
                      const std::function<long()>& cpu_ticks) {
  parallel_for(lines.size(), static_cast<unsigned>(conns.size()),
               [&](std::size_t i, unsigned c) {
                 const std::string reply = conns[c]->call(lines[i]);
                 if (reply.rfind("ok", 0) != 0) fail("warm-up reply: " + reply);
               });
  Connection& control = *conns.front();
  const auto start = Clock::now();
  for (;;) {
    const long before = cpu_ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const bool ready =
        control.call("stats").find("\"prefilter\":{\"ready\":true") !=
        std::string::npos;
    const bool drained =
        control.call("index").find("\"pending\":0,") != std::string::npos;
    if (ready && drained && cpu_ticks() - before <= 2) return;
    if (seconds_between(start, Clock::now()) > 150) fail("server never went idle");
  }
}

/// One closed-loop measured phase: connections pull requests from the
/// shared schedule until `seconds` have passed, then finish the round.
struct ClosedLoopResult {
  std::vector<std::size_t> index;       // schedule position (mod cycle)
  std::vector<std::string> replies;
  std::vector<double> rtt_ms;
  std::vector<double> done_s;           // reply time since the phase start
  std::size_t kept = 0;                 // requests in whole rounds
  double wall_s = 0;

  /// Replies per second: the median over the phase's whole one-second
  /// windows, so a stall of a second or two moves it less than a total.
  double throughput() const {
    std::vector<double> per_window(static_cast<std::size_t>(wall_s), 0.0);
    for (const double t : done_s)
      if (t < static_cast<double>(per_window.size()))
        per_window[static_cast<std::size_t>(t)] += 1.0;
    return per_window.empty() ? static_cast<double>(kept) / wall_s
                              : median(per_window);
  }
};

template <class Call>
ClosedLoopResult closed_loop(const Schedule& s, unsigned connections,
                             double seconds, Call call /* (conn, line) */) {
  const std::size_t n = s.requests.size();
  std::atomic<std::uint64_t> cursor{0};
  std::atomic<std::uint64_t> stop_at{~0ull};
  struct Rec {
    std::uint64_t i;
    std::string reply;
    double ms, done_s;
  };
  std::vector<std::vector<Rec>> per_conn(connections);
  const auto start = Clock::now();
  // One item per connection: each runs its closed loop over the shared
  // schedule until the stop slot.
  parallel_for(connections, connections, [&](std::size_t c, unsigned) {
      for (;;) {
        const std::uint64_t i = cursor++;
        if (i >= stop_at.load()) break;
        if (i % s.round_len == 0 && seconds_between(start, Clock::now()) >= seconds) {
          std::uint64_t cur = stop_at.load();
          while (i < cur && !stop_at.compare_exchange_weak(cur, i)) {}
          break;
        }
        const auto t0 = Clock::now();
        std::string reply = call(c, s.requests[i % n].line);
        const auto t1 = Clock::now();
        per_conn[c].push_back(
            {i, std::move(reply), ms_between(t0, t1), seconds_between(start, t1)});
      }
  });
  ClosedLoopResult out;
  out.wall_s = seconds_between(start, Clock::now());
  const std::uint64_t limit = stop_at.load();
  for (auto& recs : per_conn)
    for (auto& r : recs) {
      if (r.i >= limit) continue;  // ran past the last whole round
      out.index.push_back(static_cast<std::size_t>(r.i % n));
      out.replies.push_back(std::move(r.reply));
      out.rtt_ms.push_back(r.ms);
      out.done_s.push_back(r.done_s);
    }
  out.kept = out.index.size();
  if (out.kept != limit) fail("closed loop lost requests");
  return out;
}

void record_closed_loop(const Schedule& s, const ClosedLoopResult& r,
                        Tally& tally, AnswerLog& log,
                        std::vector<double>& all_ms,
                        std::vector<double>& flow_ms) {
  for (std::size_t k = 0; k < r.kept; ++k) {
    const Request& req = s.requests[r.index[k]];
    tally.attempt(req.op);
    log.add(0, req, from_wire(req.op, r.replies[k]));
    all_ms.push_back(r.rtt_ms[k]);
    if (req.op == Op::kTaint || req.op == Op::kDepends)
      flow_ms.push_back(r.rtt_ms[k]);
  }
}

int finish(Metrics& metrics, Tally& tally, AnswerLog& log,
           std::vector<std::unique_ptr<GraphRefs>>& refs) {
  std::uint64_t known = 0;
  const bool correct = log.check(refs, tally, known);
  if (known != 0)
    std::printf("known fault: %llu distinct flow requests answered without a "
                "flow the unreduced graph has (reduced serving graph)\n",
                static_cast<unsigned long long>(known));
  tally.print();
  metrics.print_table();
  std::printf("%s\n", metrics.json(correct, tally.total_attempted(),
                                   tally.total_failed()).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

int serve_hot_untraced(const RunArgs& args) {
  const Schedule schedule = load_schedule(args.dir + "/schedule");
  const auto warm = warmup_lines(args.dir);
  const std::string binary = args.bin_dir + "/parcfl_serve";
  std::vector<double> setups;
  Metrics metrics;
  Tally tally;
  AnswerLog log;
  for (unsigned s = 0; s < kServeSetups; ++s) {
    const auto t0 = Clock::now();
    ServerProcess server(binary, args.dir + "/serve.pag",
                         args.dir + "/server.log");
    std::vector<std::unique_ptr<Connection>> conns;
    for (unsigned c = 0; c < kHotConnections; ++c)
      conns.push_back(std::make_unique<Connection>(server.port()));
    warm_up_over_tcp(conns, warm, [&] { return server.cpu_ticks(); });
    setups.push_back(seconds_between(t0, Clock::now()));
    if (s + 1 < kServeSetups) continue;  // only the last set-up serves

    const ClosedLoopResult r = closed_loop(
        schedule, kHotConnections, args.seconds,
        [&](unsigned c, const std::string& line) {
          return conns[c]->call(line);
        });
    const double rss = peak_rss_mb(server.pid());
    std::vector<double> all_ms, flow_ms;
    record_closed_loop(schedule, r, tally, log, all_ms, flow_ms);
    metrics.set("setup_s", median(setups), "s");
    // Like p99, throughput follows the latency tail in a closed loop: three
    // sets of ten runs spread 0.16-0.21, too near the 0.25 ceiling to gate.
    metrics.print_only("throughput_qps", r.throughput(), "1/s");
    add_latency_metrics(metrics, all_ms, flow_ms);
    metrics.set("peak_rss_mb", rss, "MiB");
    std::printf("serve-hot: %zu requests in %zu rounds over %.2f s; set-ups %s\n",
                r.kept, r.kept / schedule.round_len, r.wall_s,
                join_numbers(setups).c_str());
  }
  const pag::Pag base = read_graph(args.dir + "/serve.pag");
  auto refs = base_refs(base);
  return finish(metrics, tally, log, refs);
}

/// Per-connection handler of the traced serve-hot run: the same steps as
/// service::WireSession for the data-plane verbs, with parse_request,
/// QueryService::call and format_reply timed apart.
struct WireTimes {
  std::mutex mu;
  std::vector<double> parse_ns, call_us, format_ns;
};

int serve_hot_traced(const RunArgs& args) {
  const Schedule schedule = load_schedule(args.dir + "/schedule");
  InProcess p = set_up_in_process(args.dir);
  service::QueryService& svc = *p.svc;
  Tracer tracer(Clock::now());
  WireTimes times;
  std::atomic<bool> tracing{false};
  std::atomic<unsigned> handler_ordinal{0};
  std::string error;
  service::TcpServer server(
      [&]() -> service::TcpServer::LineHandler {
        const std::uint64_t conn = handler_ordinal++;
        auto seq = std::make_shared<std::uint64_t>(0);
        return [&, conn, seq](const std::string& line, std::string& reply) {
          const std::uint64_t request = (conn << 32) | (*seq)++;
          const bool traced = tracing.load(std::memory_order_relaxed);
          const auto t0 = Clock::now();
          service::Request req;
          std::string err;
          const bool parsed = service::parse_request(line, svc.node_count(), req, err);
          const auto t1 = Clock::now();
          if (!parsed) {
            svc.note_protocol_error();
            service::Reply bad;
            bad.status = service::Reply::Status::kError;
            bad.text = err;
            reply = service::format_reply(bad) + "\n";
            return true;
          }
          const bool keep_open = req.verb != service::Verb::kQuit;
          const service::Reply answer = svc.call(std::move(req));
          const auto t2 = Clock::now();
          reply = service::format_reply(answer) + "\n";
          const auto t3 = Clock::now();
          if (traced) {
            tracer.record("wire.parse", t0, t1, 0, request);
            tracer.record("service.call", t1, t2, 0, request);
            tracer.record("wire.format", t2, t3, 0, request);
            std::lock_guard lock(times.mu);
            times.parse_ns.push_back(ms_between(t0, t1) * 1e6);
            times.call_us.push_back(ms_between(t1, t2) * 1e3);
            times.format_ns.push_back(ms_between(t2, t3) * 1e6);
          }
          return keep_open;
        };
      },
      0, &error);
  if (!server.ok()) fail("in-process server: " + error);
  std::thread acceptor([&] { server.serve(); });
  struct Stop {
    service::TcpServer& s;
    std::thread& t;
    ~Stop() {
      s.shutdown();
      t.join();
    }
  } stop{server, acceptor};

  // Connect one at a time: handler ordinal k then serves connection k.
  std::vector<std::unique_ptr<Connection>> conns;
  for (unsigned c = 0; c < kHotConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(server.port()));
    conns.back()->call("ping");
  }
  std::vector<std::uint64_t> client_seq(kHotConnections, 1);  // after ping

  Tally tally;
  AnswerLog log;
  std::vector<double> untraced_ms, untraced_flow, traced_ms, traced_flow;
  const ClosedLoopResult plain = closed_loop(
      schedule, kHotConnections, args.seconds,
      [&](unsigned c, const std::string& line) {
        ++client_seq[c];
        return conns[c]->call(line);
      });
  record_closed_loop(schedule, plain, tally, log, untraced_ms, untraced_flow);

  const ServiceSample before = sample(svc);
  tracing = true;
  const ClosedLoopResult traced = closed_loop(
      schedule, kHotConnections, args.seconds,
      [&](unsigned c, const std::string& line) {
        const std::uint64_t request =
            (static_cast<std::uint64_t>(c) << 32) | client_seq[c]++;
        const auto t0 = Clock::now();
        std::string reply = conns[c]->call(line);
        tracer.record("client.request", t0, Clock::now(), 0, request);
        return reply;
      });
  tracing = false;
  const ServiceSample after = sample(svc);
  record_closed_loop(schedule, traced, tally, log, traced_ms, traced_flow);

  Metrics metrics;
  metrics.set("pag.read_ms", p.read_ms, "ms");
  service_layer_metrics(before, after, svc, metrics);
  metrics.print_only("andersen.ready_ms", p.prefilter_ready_ms, "ms");
  metrics.print_only("cfl.index.build_ms", p.index_build_ms, "ms");
  const double rtt_us = percentile(traced.rtt_ms, 0.5) * 1e3;
  const double call_us = percentile(times.call_us, 0.5);
  metrics.print_only("service.call_us.p50", call_us, "us");
  metrics.print_only("service.call_us.p99", percentile(times.call_us, 0.99),
                     "us");
  metrics.print_only("service.wire.rtt_us", rtt_us, "us");
  metrics.print_only("service.wire.parse_ns", percentile(times.parse_ns, 0.5),
                     "ns");
  metrics.print_only("service.wire.format_ns", percentile(times.format_ns, 0.5),
                     "ns");
  metrics.print_only("service.wire.overhead_us", rtt_us - call_us, "us");

  tracer.link_to_request_root("client.request");
  for (const auto& [layer, ms] : tracer.layer_self_ms())
    std::printf("self %-10s %12.3f ms (traced phase)\n", layer.c_str(), ms);
  const double qps_plain = plain.throughput();
  const double qps_traced = traced.throughput();
  std::printf("trace overhead (in-process server): throughput_qps %.1f traced "
              "vs %.1f untraced (%+.2f%%), latency_p50_ms %.4f vs %.4f, "
              "latency_p99_ms %.4f vs %.4f\n",
              qps_traced, qps_plain, 100.0 * (qps_traced / qps_plain - 1.0),
              percentile(traced_ms, 0.5), percentile(untraced_ms, 0.5),
              percentile(traced_ms, 0.99), percentile(untraced_ms, 0.99));
  tracer.write_jsonl(args.dir + "/spans.jsonl");
  std::printf("spans: %zu written to %s/spans.jsonl\n", tracer.size(),
              args.dir.c_str());
  const pag::Pag base = read_graph(args.dir + "/serve.pag");
  auto refs = base_refs(base);
  return finish(metrics, tally, log, refs);
}

// ---------------------------------------------------------------------------
// serve-churn
// ---------------------------------------------------------------------------

struct ChurnPhase {
  std::vector<double> all_ms, flow_ms, update_ms, call_us, lateness_ms,
      rebuild_ms;
  std::uint64_t updates = 0;
  std::size_t requests = 0;
  double wall_s = 0;
};

/// Graph state after applying delta file `name`: k + 1 = base + S_k.
unsigned state_after(const std::string& name) {
  if (name == "init.delta") return kDeltaSets;
  if (name.rfind("swap_", 0) != 0) fail("unknown delta " + name);
  return 1 + static_cast<unsigned>(std::atoi(name.c_str() + 5));
}

/// One open-loop phase. The sender submits schedule slot j at
/// start + j / kChurnRate and stops at the first round boundary past
/// `seconds`; a waiter thread takes replies in submission order (batches
/// complete in that order: the collector runs them one at a time).
ChurnPhase churn_phase(service::QueryService& svc, const Schedule& s,
                       const std::string& dir, double seconds, Tracer* tracer,
                       Tally& tally, AnswerLog& log, bool measured = true) {
  struct InFlight {
    std::size_t index;
    unsigned state;
    Clock::time_point due, submitted;
    std::future<service::Reply> reply;
  };
  const std::size_t n = s.requests.size();
  // Parse the schedule and track the graph state up front: nothing may
  // throw once the waiter threads run.
  std::vector<service::Request> wire(n);
  std::vector<unsigned> states(n);
  unsigned state = 0;  // 0 = base graph, k + 1 = base + edge set k
  for (std::size_t j = 0; j < n; ++j) {
    const Request& req = s.requests[j];
    const std::string line =
        req.op == Op::kUpdate ? "update " + dir + "/" + req.delta : req.line;
    std::string error;
    if (!service::parse_request(line, svc.node_count(), wire[j], error))
      fail("schedule line rejected: " + line + ": " + error);
    if (req.op == Op::kUpdate) state = state_after(req.delta);
    states[j] = state;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;
  ChurnPhase out;

  // Traced runs time the prefilter rebuild after each update reply.
  std::mutex rb_mu;
  std::condition_variable rb_cv;
  std::deque<Clock::time_point> rebuilds;
  bool rb_done = false;
  std::thread rebuild_watch;
  if (tracer)
    rebuild_watch = std::thread([&] {
      for (;;) {
        std::unique_lock lock(rb_mu);
        rb_cv.wait(lock, [&] { return rb_done || !rebuilds.empty(); });
        if (rebuilds.empty()) return;
        const auto replied = rebuilds.front();
        rebuilds.pop_front();
        lock.unlock();
        svc.session().wait_for_prefilter();
        out.rebuild_ms.push_back(ms_between(replied, Clock::now()));
      }
    });

  std::thread waiter([&] {
    for (;;) {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return done || !queue.empty(); });
      if (queue.empty()) return;
      InFlight f = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      const service::Reply reply = f.reply.get();
      const auto now = Clock::now();
      const Request& req = s.requests[f.index];
      const double ms = ms_between(f.due, now);
      out.call_us.push_back(ms_between(f.submitted, now) * 1e3);
      if (req.op == Op::kUpdate) {
        out.update_ms.push_back(ms_between(f.submitted, now));
        ++out.updates;
        if (tracer) {
          std::lock_guard rb(rb_mu);
          rebuilds.push_back(now);
          rb_cv.notify_one();
        }
      } else {
        out.all_ms.push_back(ms);
        if (req.op == Op::kTaint || req.op == Op::kDepends)
          out.flow_ms.push_back(ms);
      }
      if (tracer) {
        const std::uint64_t id = f.index;
        const auto root = tracer->record("bench.request", f.due, now, 0, id);
        tracer->record(req.op == Op::kUpdate ? "service.update" : "service.call",
                       f.submitted, now, root, id);
      }
      if (measured) tally.attempt(req.op);
      log.add(f.state, req, from_reply(reply), measured ? 1 : 0);
    }
  });

  const auto start = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / kChurnRate);
  for (std::size_t j = 0;; ++j) {
    const Request& req = s.requests[j % n];
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(j));
    if (req.round_start && seconds_between(start, due) >= seconds) break;
    std::this_thread::sleep_until(due);
    const auto submitted = Clock::now();
    out.lateness_ms.push_back(ms_between(due, submitted));
    InFlight f{j % n, states[j % n], due, submitted, svc.submit(wire[j % n])};
    {
      std::lock_guard lock(mu);
      queue.push_back(std::move(f));
    }
    cv.notify_one();
    ++out.requests;
  }
  {
    std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_one();
  waiter.join();
  out.wall_s = seconds_between(start, Clock::now());
  if (tracer) {
    {
      std::lock_guard rb(rb_mu);
      rb_done = true;
    }
    rb_cv.notify_one();
    rebuild_watch.join();
  }
  return out;
}

/// References for the base graph and for base + each edge set.
std::vector<std::unique_ptr<GraphRefs>> churn_refs(
    const std::string& dir, std::vector<std::unique_ptr<pag::Pag>>& graphs) {
  graphs.push_back(std::make_unique<pag::Pag>(read_graph(dir + "/serve.pag")));
  // Replay init, then swap_0..swap_(n-1): graph k + 1 is base + S_k.
  std::vector<std::unique_ptr<pag::Pag>> states(kDeltaSets + 1);
  const pag::Pag* current = graphs.front().get();
  for (unsigned step = 0; step <= kDeltaSets; ++step) {
    const std::string name =
        step == 0 ? "init.delta" : "swap_" + std::to_string(step - 1) + ".delta";
    std::ifstream in(dir + "/" + name);
    std::string error;
    const auto delta = pag::read_delta(in, *current, &error);
    if (!delta) fail(name + ": " + error);
    auto g = pag::apply_delta(*current, *delta, nullptr, &error);
    if (!g) fail("apply " + name + ": " + error);
    auto owned = std::make_unique<pag::Pag>(std::move(*g));
    current = owned.get();
    states[state_after(name)] = std::move(owned);
  }
  for (unsigned k = 1; k <= kDeltaSets; ++k) graphs.push_back(std::move(states[k]));
  std::vector<std::unique_ptr<GraphRefs>> refs(graphs.size());
  parallel_for(graphs.size(), kEngineThreads, [&](std::size_t i, unsigned) {
    refs[i] = std::make_unique<GraphRefs>(*graphs[i]);
  });
  return refs;
}

void churn_end_to_end(const ChurnPhase& ph, Metrics& m) {
  add_latency_metrics(m, ph.all_ms, ph.flow_ms);
  // Update latency is bimodal (~2 ms, or ~4-7 ms when the update finds the
  // index compactor mid-pass) and the mix moves with the host's load: one
  // set of ten runs read p50 1.75-1.90 ms, the next 4.0-7.4 ms (spread
  // 0.50), so both percentiles are printed, not gated.
  m.print_only("update_p50_ms", percentile(ph.update_ms, 0.50), "ms");
  m.print_only("update_p90_ms", percentile(ph.update_ms, 0.90), "ms");
}

}  // namespace

int run_serve_hot(const RunArgs& args) {
  return args.trace ? serve_hot_traced(args) : serve_hot_untraced(args);
}

int run_serve_churn(const RunArgs& args) {
  const Schedule schedule = load_schedule(args.dir + "/schedule");
  std::vector<double> setups;
  InProcess p;
  for (unsigned s = 0; s < (args.trace ? 1u : kServeSetups); ++s) {
    p = InProcess{};  // the previous service shuts down first
    p = set_up_in_process(args.dir);
    setups.push_back(p.setup_s);
  }
  service::QueryService& svc = *p.svc;
  Tally tally;
  AnswerLog log;
  Metrics metrics;
  // Move to base + S_last, where every round starts, then run one round
  // unmeasured: the first updates after warm-up prune a fully built index,
  // later ones a churned one.
  {
    service::Request init;
    std::string error;
    if (!service::parse_request("update " + args.dir + "/init.delta",
                                svc.node_count(), init, error))
      fail("init delta rejected: " + error);
    const service::Reply reply = svc.call(std::move(init));
    if (reply.status != service::Reply::Status::kOk)
      fail("init delta failed: " + reply.text);
  }
  churn_phase(svc, schedule, args.dir, 1e-9, nullptr, tally, log, false);
  if (!args.trace) {
    const ChurnPhase ph =
        churn_phase(svc, schedule, args.dir, args.seconds, nullptr, tally, log);
    metrics.set("setup_s", median(setups), "s");
    churn_end_to_end(ph, metrics);
    metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    std::printf("serve-churn: %zu sends (%llu updates) in %.2f s; "
                "sender lateness p99 %.3f ms; set-ups %s\n",
                ph.requests, static_cast<unsigned long long>(ph.updates),
                ph.wall_s, percentile(ph.lateness_ms, 0.99),
                join_numbers(setups).c_str());
  } else {
    const ChurnPhase plain =
        churn_phase(svc, schedule, args.dir, args.seconds, nullptr, tally, log);
    Tracer tracer(Clock::now());
    const ServiceSample before = sample(svc);
    const ChurnPhase ph =
        churn_phase(svc, schedule, args.dir, args.seconds, &tracer, tally, log);
    const ServiceSample after = sample(svc);
    metrics.set("pag.read_ms", p.read_ms, "ms");
    service_layer_metrics(before, after, svc, metrics);
    metrics.print_only("andersen.ready_ms", p.prefilter_ready_ms, "ms");
    metrics.print_only("andersen.rebuild_ms", median(ph.rebuild_ms), "ms");
    metrics.print_only("cfl.index.build_ms", p.index_build_ms, "ms");
    const double updates = std::max<double>(1.0, static_cast<double>(ph.updates));
    metrics.print_only("cfl.jmp_evicted_per_update",
                       static_cast<double>(after.stats.jmp_evicted -
                                           before.stats.jmp_evicted) / updates,
                       "count");
    metrics.print_only("cfl.index.invalidated_per_update",
                       static_cast<double>(after.index.invalidated -
                                           before.index.invalidated) / updates,
                       "count");
    metrics.print_only("service.call_us.p50", percentile(ph.call_us, 0.5), "us");
    metrics.print_only("service.call_us.p99", percentile(ph.call_us, 0.99),
                       "us");
    metrics.print_only("service.update_p50_ms", percentile(ph.update_ms, 0.5),
                       "ms");
    metrics.print_only("service.update_p90_ms", percentile(ph.update_ms, 0.9),
                       "ms");
    metrics.print_only("bench.sender_lateness_p99_ms",
                       percentile(ph.lateness_ms, 0.99), "ms");
    for (const auto& [layer, ms] : tracer.layer_self_ms())
      std::printf("self %-10s %12.3f ms (traced phase)\n", layer.c_str(), ms);
    std::printf("trace overhead: latency_p50_ms %.4f traced vs %.4f untraced, "
                "latency_p99_ms %.4f vs %.4f, update_p50_ms %.3f vs %.3f\n",
                percentile(ph.all_ms, 0.5), percentile(plain.all_ms, 0.5),
                percentile(ph.all_ms, 0.99), percentile(plain.all_ms, 0.99),
                percentile(ph.update_ms, 0.5), percentile(plain.update_ms, 0.5));
    tracer.write_jsonl(args.dir + "/spans.jsonl");
    std::printf("spans: %zu written to %s/spans.jsonl\n", tracer.size(),
                args.dir.c_str());
  }
  p.svc.reset();
  std::vector<std::unique_ptr<pag::Pag>> graphs;
  auto refs = churn_refs(args.dir, graphs);
  return finish(metrics, tally, log, refs);
}

}  // namespace perfbench

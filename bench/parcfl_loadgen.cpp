// parcfl_loadgen — open-loop load generator for the parcfl query service.
//
// Drives a synthetic Table-I workload through service::QueryService in two
// phases over the *same* request sequence:
//
//   cold:  fresh session, empty JmpStore — every query pays full traversal;
//   warm:  same session, same requests — queries ride the jmp shortcuts the
//          cold phase minted (§III-B data sharing, amortised across phases).
//
// Arrivals are open-loop: request i is injected at `start + i/rate`
// regardless of how the service is keeping up, so measured latency includes
// queueing delay under saturation (each of the --clients worker threads
// does block on its own in-flight request, making this the standard
// partly-open approximation). --rate 0 disables pacing.
//
// Results go to BENCH_service.json (same schema style as BENCH_micro.json:
// a "context" object plus a "benchmarks" array) — throughput, latency
// percentiles, per-phase traversed steps, and the cold-vs-warm jmp-hit
// ratio that is the service's whole reason to exist.
//
//   parcfl_loadgen [--benchmark NAME] [--scale S] [--threads N]
//                  [--clients N] [--requests N] [--rate QPS]
//                  [--alias-every K] [--batch N] [--linger-us N]
//                  [--queue N] [--out FILE] [--connect PORT]
//                  [--scrape FILE] [--answers-out FILE]
//                  [--tenants N] [--tenant-skew S] [--max-sessions N]
//                  [--max-resident-mb N] [--spill-dir DIR]
//                  [--tenants-out FILE]
//
// --connect PORT skips the in-process service and replays the request
// sequence against a running `parcfl_serve` on 127.0.0.1:PORT over TCP
// (request-plane metrics only; engine counters stay on the server). The
// same flag drives a `parcfl_route` front-end — the protocol is identical.
// --answers-out FILE (connect mode) replays the request sequence once more
// on a single connection after the phases and writes one normalized
// `<request> -> <reply>` line per request (charged-steps token blanked, the
// one field legitimately differing between engines). Dumps from a router
// fleet and from a single-node server over the same graph must be
// byte-identical — CI diffs them (see README "Scaling out").
// --scrape FILE saves the service's Prometheus exposition after the warm
// phase (in connect mode via the `metrics` wire verb).
//
// --tenants N switches on the mixed-tenant fleet mode (in-process only):
// the base graph is written to disk once, N tenants `open` it, and every
// request is assigned a tenant by a Zipf(S) draw — a few hot tenants, a
// long cold tail, which under a small --max-sessions cap exercises the
// LRU evict / mmap-reopen cycle under live traffic. Results (per-tenant
// qps, fleet eviction/reopen counters, peak RSS, and a cold-solve vs
// warm-mmap-reopen micro-measure) go to BENCH_tenants.json.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "andersen/prefilter.hpp"
#include "bench_util.hpp"
#include "pag/pag_io.hpp"
#include "service/service.hpp"
#include "support/stats.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace parcfl;

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string benchmark = "avrora";
  double scale = 1.0;
  unsigned threads = 4;       // engine workers
  unsigned clients = 8;       // load-generating threads
  /// 0 = one request per distinct query variable. Larger values cycle over
  /// the variables — note that repeats self-warm the cold phase, shrinking
  /// the reported cold-vs-warm gap (the steady state arrives early).
  std::uint64_t requests = 0;
  double rate = 0.0;          // arrivals per second; 0 = unpaced
  std::uint64_t alias_every = 8;  // every K-th request is an alias query
  std::uint64_t taint_every = 0;    // every K-th request is a taint query (0 = off)
  std::uint64_t depends_every = 0;  // every K-th request is a depends query
  std::uint32_t batch = 64;
  long linger_us = 500;
  std::uint32_t queue = 4096;
  std::string out = "BENCH_service.json";
  std::string scrape;       // empty = no metrics scrape
  std::string answers_out;  // empty = no answer dump (connect mode only)
  long connect_port = -1;
  bool reduce = true;     // serve the reduced graph (in-process mode)
  bool prefilter = true;  // Andersen prefilter short-circuit (in-process mode)
  bool index = true;      // background index compactor (in-process mode)

  // Mixed-tenant fleet mode (0 = off).
  unsigned tenants = 0;
  double tenant_skew = 1.0;  // Zipf exponent of the tenant draw
  std::size_t max_sessions = 2;
  std::uint64_t max_resident_mb = 0;
  std::string spill_dir = ".";
  std::string tenants_out = "BENCH_tenants.json";
};

int usage() {
  std::fprintf(stderr,
               "usage: parcfl_loadgen [--benchmark NAME] [--scale S]\n"
               "  [--threads N] [--clients N] [--requests N] [--rate QPS]\n"
               "  [--alias-every K] [--taint-every K] [--depends-every K]\n"
               "  [--batch N] [--linger-us N] [--queue N]\n"
               "  [--out FILE] [--connect PORT] [--scrape FILE]\n"
               "  [--answers-out FILE]\n"
               "  [--no-reduce] [--no-prefilter] [--index] [--no-index]\n"
               "  [--tenants N] [--tenant-skew S] [--max-sessions N]\n"
               "  [--max-resident-mb N] [--spill-dir DIR] [--tenants-out F]\n");
  return 2;
}

struct PhaseResult {
  double wall_seconds = 0.0;
  std::vector<double> latencies_ms;  // completed requests only
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t incomplete = 0;  // partial / early-terminated answers
  support::QueryCounters delta;  // engine work this phase (in-process only)
};

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

double hit_ratio(const support::QueryCounters& c) {
  return c.jmp_lookups == 0 ? 0.0
                            : static_cast<double>(c.jmps_taken) /
                                  static_cast<double>(c.jmp_lookups);
}

double prefilter_hit_rate(const support::QueryCounters& c) {
  const std::uint64_t probes = c.prefilter_hits + c.prefilter_misses;
  return probes == 0 ? 0.0
                     : static_cast<double>(c.prefilter_hits) /
                           static_cast<double>(probes);
}

/// The verb of request i. Each two-node verb owns its own slot within its
/// stride — taint the last (K-1), depends the middle (K/2), alias the first
/// (0) — so equal or overlapping strides do not shadow one another. Where
/// two slots still coincide, taint wins over depends and depends over alias,
/// so a mixed scenario always carries flow traffic.
constexpr service::Verb verb_for(std::uint64_t i, std::uint64_t alias_every,
                                 std::uint64_t taint_every,
                                 std::uint64_t depends_every) {
  if (taint_every != 0 && i % taint_every == taint_every - 1)
    return service::Verb::kTaint;
  if (depends_every != 0 && i % depends_every == depends_every / 2)
    return service::Verb::kDepends;
  if (alias_every != 0 && i % alias_every == 0) return service::Verb::kAlias;
  return service::Verb::kQuery;
}

/// Requests of `verb` among the first n under the given strides.
constexpr std::uint64_t verb_count(service::Verb verb, std::uint64_t n,
                                   std::uint64_t alias_every,
                                   std::uint64_t taint_every,
                                   std::uint64_t depends_every) {
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < n; ++i)
    if (verb_for(i, alias_every, taint_every, depends_every) == verb) ++count;
  return count;
}

// The mixed-traffic arm (--taint-every 8 --depends-every 12, alias at its
// default 8) sends 16 query, 3 alias, 3 taint and 2 depends per 24.
static_assert(verb_count(service::Verb::kQuery, 24, 8, 8, 12) == 16);
static_assert(verb_count(service::Verb::kAlias, 24, 8, 8, 12) == 3);
static_assert(verb_count(service::Verb::kTaint, 24, 8, 8, 12) == 3);
static_assert(verb_count(service::Verb::kDepends, 24, 8, 8, 12) == 2);

/// The fixed request sequence both phases replay. Cycles over the workload's
/// deduplicated query variables in a splitmix-shuffled order.
std::vector<service::Request> build_requests(const bench::Workload& w,
                                             const Config& cfg) {
  std::vector<pag::NodeId> vars = w.queries;
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = vars.size(); i > 1; --i) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    std::swap(vars[i - 1], vars[(z ^ (z >> 31)) % i]);
  }
  std::vector<service::Request> requests;
  requests.reserve(cfg.requests);
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    service::Request r;
    // Two-node verbs pair with the next variable (all roots are query
    // variables, as the flow grammars require).
    r.verb = verb_for(i, cfg.alias_every, cfg.taint_every, cfg.depends_every);
    r.a = vars[i % vars.size()];
    if (r.verb != service::Verb::kQuery) r.b = vars[(i + 1) % vars.size()];
    requests.push_back(r);
  }
  return requests;
}

/// Replay `requests` with open-loop pacing; `issue(i)` performs request i and
/// returns true when the reply was a shed, recording incomplete answers via
/// the second flag.
template <class Issue>
PhaseResult run_phase(const std::vector<service::Request>& requests,
                      const Config& cfg, Issue&& issue) {
  PhaseResult phase;
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<double>> lat(cfg.clients);
  std::vector<std::array<std::uint64_t, 3>> counts(cfg.clients,
                                                   {0, 0, 0});  // ok/shed/inc
  const auto start = Clock::now();
  const double period_s = cfg.rate > 0 ? 1.0 / cfg.rate : 0.0;

  auto client = [&](unsigned id) {
    for (;;) {
      const std::uint64_t i =
          next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) break;
      const auto arrival =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period_s *
                                                    static_cast<double>(i)));
      if (cfg.rate > 0) std::this_thread::sleep_until(arrival);
      const auto issued = cfg.rate > 0 ? arrival : Clock::now();
      bool shed = false, incomplete = false;
      issue(i, shed, incomplete);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - issued)
              .count();
      if (shed) {
        ++counts[id][1];
      } else {
        lat[id].push_back(ms);
        ++counts[id][incomplete ? 2 : 0];
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  for (unsigned c = 0; c < cfg.clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();

  phase.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (unsigned c = 0; c < cfg.clients; ++c) {
    phase.latencies_ms.insert(phase.latencies_ms.end(), lat[c].begin(),
                              lat[c].end());
    phase.ok += counts[c][0];
    phase.shed += counts[c][1];
    phase.incomplete += counts[c][2];
  }
  return phase;
}

void emit_phase(std::FILE* f, const char* name, const Config& cfg,
                PhaseResult& p, bool with_engine) {
  const double qps =
      p.wall_seconds > 0
          ? static_cast<double>(p.latencies_ms.size()) / p.wall_seconds
          : 0.0;
  std::fprintf(f,
               "    {\"name\": \"service/%s\", \"run_type\": \"aggregate\", "
               "\"iterations\": %llu, \"real_time\": %.3f, \"time_unit\": "
               "\"ms\", \"qps\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
               "\"p99_ms\": %.4f, \"max_ms\": %.4f, \"ok\": %llu, "
               "\"incomplete\": %llu, \"shed\": %llu",
               name,
               static_cast<unsigned long long>(cfg.requests),
               p.wall_seconds * 1e3, qps, percentile(p.latencies_ms, 0.50),
               percentile(p.latencies_ms, 0.95),
               percentile(p.latencies_ms, 0.99),
               p.latencies_ms.empty()
                   ? 0.0
                   : *std::max_element(p.latencies_ms.begin(),
                                       p.latencies_ms.end()),
               static_cast<unsigned long long>(p.ok),
               static_cast<unsigned long long>(p.incomplete),
               static_cast<unsigned long long>(p.shed));
  if (with_engine)
    std::fprintf(f,
                 ", \"traversed_steps\": %llu, \"charged_steps\": %llu, "
                 "\"jmps_taken\": %llu, \"jmp_hit_ratio\": %.4f, "
                 "\"prefilter_hits\": %llu, \"prefilter_misses\": %llu, "
                 "\"prefilter_hit_rate\": %.4f",
                 static_cast<unsigned long long>(p.delta.traversed_steps),
                 static_cast<unsigned long long>(p.delta.charged_steps),
                 static_cast<unsigned long long>(p.delta.jmps_taken),
                 hit_ratio(p.delta),
                 static_cast<unsigned long long>(p.delta.prefilter_hits),
                 static_cast<unsigned long long>(p.delta.prefilter_misses),
                 prefilter_hit_rate(p.delta));
  std::fprintf(f, "}");
}

#ifndef _WIN32
/// Minimal blocking line client for --connect mode.
class TcpClient {
 public:
  explicit TcpClient(long port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// Send one request line, return the reply line (empty on error).
  std::string roundtrip(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t w = ::send(fd_, line.data() + sent, line.size() - sent, 0);
      if (w <= 0) return {};
      sent += static_cast<std::size_t>(w);
    }
    bool got = false;
    return read_line(got);
  }

  /// Fetch the server's Prometheus exposition through the counted multi-line
  /// frame (`ok metrics <n>` header, then n payload lines). False on
  /// transport or framing errors.
  bool scrape(std::string& out) {
    const std::string header = roundtrip("metrics\n");
    const char kPrefix[] = "ok metrics ";
    if (header.rfind(kPrefix, 0) != 0) return false;
    const unsigned long lines =
        std::strtoul(header.c_str() + sizeof(kPrefix) - 1, nullptr, 10);
    out.clear();
    for (unsigned long i = 0; i < lines; ++i) {
      bool got = false;
      const std::string line = read_line(got);
      if (!got) return false;
      out += line;
      out += '\n';
    }
    return true;
  }

 private:
  std::string read_line(bool& got) {
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        got = true;
        return reply;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        got = false;
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string format_request_line(const service::Request& r) {
  if (r.verb == service::Verb::kAlias || r.verb == service::Verb::kTaint ||
      r.verb == service::Verb::kDepends) {
    const char* verb = r.verb == service::Verb::kAlias    ? "alias"
                       : r.verb == service::Verb::kTaint  ? "taint"
                                                          : "depends";
    return std::string(verb) + " " + std::to_string(r.a.value()) + " " +
           std::to_string(r.b.value()) + "\n";
  }
  return "query " + std::to_string(r.a.value()) + "\n";
}

/// Blank the charged-steps token (third field of ok frames) — it reflects
/// which engine answered and how warm it was, not what the answer is.
std::string normalize_reply(const std::string& reply) {
  if (reply.rfind("ok ", 0) != 0) return reply;
  const std::size_t status_end = reply.find(' ', 3);
  if (status_end == std::string::npos) return reply;
  std::size_t charged_end = reply.find(' ', status_end + 1);
  if (charged_end == std::string::npos) charged_end = reply.size();
  return reply.substr(0, status_end + 1) + "_" + reply.substr(charged_end);
}

/// Deterministic answer dump for cross-engine identity diffs: the request
/// sequence replayed sequentially on one fresh connection.
bool dump_answers(const std::vector<service::Request>& requests,
                  const Config& cfg) {
  TcpClient conn(cfg.connect_port);
  if (!conn.ok()) {
    std::fprintf(stderr, "parcfl_loadgen: answers-out: cannot connect\n");
    return false;
  }
  std::FILE* f = std::fopen(cfg.answers_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parcfl_loadgen: cannot write %s\n",
                 cfg.answers_out.c_str());
    return false;
  }
  for (const service::Request& r : requests) {
    std::string line = format_request_line(r);
    line.pop_back();  // newline
    const std::string reply = conn.roundtrip(line + "\n");
    std::fprintf(f, "%s -> %s\n", line.c_str(),
                 normalize_reply(reply).c_str());
  }
  std::fclose(f);
  std::printf("wrote %s (%zu answers)\n", cfg.answers_out.c_str(),
              requests.size());
  return true;
}
#endif  // _WIN32

void write_scrape(const std::string& path, const std::string& exposition);

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Peak resident set in MiB from /proc/self/status (0 where unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Mixed-tenant fleet mode: N tenants over one shared base graph file, Zipf
/// tenant draw per request, cold + warm phases, then a cold-solve vs
/// warm-mmap-reopen micro-measure on a probe tenant.
int run_tenant_mode(const Config& cfg, const bench::Workload& workload,
                    std::vector<service::Request> requests) {
  const std::string base_pag_path = cfg.spill_dir + "/loadgen_base.pag";
  {
    std::ofstream os(base_pag_path);
    pag::write_pag(os, workload.pag);
    if (!os) {
      std::fprintf(stderr, "parcfl_loadgen: cannot write %s\n",
                   base_pag_path.c_str());
      return 1;
    }
  }

  service::ServiceOptions options;
  options.session.engine.threads = cfg.threads;
  options.session.engine.solver = bench::solver_options();
  options.session.engine.solver.tau_finished = 1;
  options.session.engine.solver.tau_unfinished = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, options.session.engine.solver.budget / 8));
  options.max_batch = cfg.batch;
  options.max_linger = std::chrono::microseconds(cfg.linger_us);
  options.max_queue = cfg.queue;
  options.session.reduce_graph = cfg.reduce;
  options.session.prefilter = cfg.prefilter;
  options.session.index = cfg.index;
  options.max_sessions = cfg.max_sessions;
  options.max_resident_bytes = cfg.max_resident_mb * 1024ull * 1024ull;
  options.spill_dir = cfg.spill_dir;
  service::QueryService svc(workload.pag, options);

  std::vector<std::string> names;
  names.reserve(cfg.tenants);
  for (unsigned t = 0; t < cfg.tenants; ++t) {
    names.push_back("t" + std::to_string(t));
    service::Request open;
    open.verb = service::Verb::kOpen;
    open.tenant = names.back();
    open.path = base_pag_path;
    const service::Reply r = svc.call(std::move(open));
    if (r.status != service::Reply::Status::kOk) {
      std::fprintf(stderr, "parcfl_loadgen: open %s failed: %s\n",
                   names.back().c_str(), r.text.c_str());
      return 1;
    }
  }

  // Zipf(S) tenant draw, deterministic in the request index: weight of
  // tenant k is 1/(k+1)^S, sampled through the CDF.
  std::vector<double> cdf(cfg.tenants);
  double total = 0.0;
  for (unsigned t = 0; t < cfg.tenants; ++t) {
    total += 1.0 / std::pow(static_cast<double>(t + 1), cfg.tenant_skew);
    cdf[t] = total;
  }
  std::vector<std::uint32_t> tenant_of(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double u =
        static_cast<double>(splitmix64(i) >> 11) / 9007199254740992.0 * total;
    tenant_of[i] = static_cast<std::uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (tenant_of[i] >= cfg.tenants) tenant_of[i] = cfg.tenants - 1;
    requests[i].tenant = names[tenant_of[i]];
  }

  struct TenantCount {
    std::atomic<std::uint64_t> ok{0}, shed{0};
  };
  std::unique_ptr<TenantCount[]> per_tenant(new TenantCount[cfg.tenants]);
  auto issue = [&](std::uint64_t i, bool& shed, bool& incomplete) {
    const service::Reply r = svc.call(requests[i]);
    shed = r.status != service::Reply::Status::kOk;
    incomplete = !shed && r.query_status != cfl::QueryStatus::kComplete;
    (shed ? per_tenant[tenant_of[i]].shed : per_tenant[tenant_of[i]].ok)
        .fetch_add(1, std::memory_order_relaxed);
  };
  PhaseResult cold = run_phase(requests, cfg, issue);
  PhaseResult warm = run_phase(requests, cfg, issue);

  // Cold solve vs warm mmap reopen, measured at the session layer so the
  // ratio isolates what the evict/spill/reopen cycle actually changes:
  // re-running the traversals that mint the sharing state, versus mapping
  // the spilled v3 image back in and answering from it. Graph parse and the
  // service's per-query dispatch are paid identically on both sides of a
  // real reopen, so they are excluded from both measurements.
  std::vector<service::Session::Item> probe_items;
  for (const service::Request& r : requests) {
    if (r.verb != service::Verb::kQuery || !r.a.valid()) continue;
    probe_items.push_back({r.a, 0});
    if (probe_items.size() >= 512) break;
  }
  const std::string probe_state = cfg.spill_dir + "/loadgen_probe.state";
  double cold_ms = 0.0, reopen_ms = 0.0;
  {
    pag::Pag probe_pag = workload.pag;
    const auto t0 = Clock::now();
    service::Session cold_session(std::move(probe_pag), options.session);
    (void)cold_session.run_batch(probe_items);
    cold_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
    bool wrote_pag = false;
    std::string spill_error;
    if (!cold_session.spill(probe_state, cfg.spill_dir + "/loadgen_probe.pag",
                            &wrote_pag, &spill_error)) {
      std::fprintf(stderr, "parcfl_loadgen: probe spill failed: %s\n",
                   spill_error.c_str());
      return 1;
    }
  }
  {
    pag::Pag probe_pag = workload.pag;
    service::Session::Options reopen_opts = options.session;
    reopen_opts.state_path = probe_state;
    const auto t0 = Clock::now();
    service::Session warm_session(std::move(probe_pag), reopen_opts);
    (void)warm_session.run_batch(probe_items);
    reopen_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
  }
  const double reopen_speedup = reopen_ms > 0 ? cold_ms / reopen_ms : 0.0;

  const service::ServiceStats stats = svc.stats();
  std::fprintf(stderr, "parcfl_loadgen: fleet stats %s\n",
               stats.to_json().c_str());
  if (!cfg.scrape.empty()) write_scrape(cfg.scrape, svc.metrics_text());

  std::FILE* f = std::fopen(cfg.tenants_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parcfl_loadgen: cannot write %s\n",
                 cfg.tenants_out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"context\": {%s, \"benchmark\": \"%s\", \"scale\": %.2f, "
               "\"tenants\": %u, \"tenant_skew\": %.2f, \"max_sessions\": "
               "%zu, \"max_resident_mb\": %llu, \"requests\": %llu, "
               "\"clients\": %u, \"engine_threads\": %u},\n"
               "  \"benchmarks\": [\n",
               bench::json_context_stamp().c_str(), workload.name.c_str(),
               cfg.scale, cfg.tenants, cfg.tenant_skew,
               cfg.max_sessions,
               static_cast<unsigned long long>(cfg.max_resident_mb),
               static_cast<unsigned long long>(cfg.requests), cfg.clients,
               cfg.threads);
  emit_phase(f, "tenants_cold", cfg, cold, /*with_engine=*/false);
  std::fprintf(f, ",\n");
  emit_phase(f, "tenants_warm", cfg, warm, /*with_engine=*/false);
  const double warm_wall = warm.wall_seconds > 0 ? warm.wall_seconds : 1.0;
  for (unsigned t = 0; t < cfg.tenants; ++t) {
    const std::uint64_t ok = per_tenant[t].ok.load();
    const std::uint64_t shed = per_tenant[t].shed.load();
    std::fprintf(f,
                 ",\n    {\"name\": \"tenant/%s\", \"run_type\": "
                 "\"aggregate\", \"ok\": %llu, \"shed\": %llu, "
                 "\"warm_qps\": %.1f}",
                 names[t].c_str(), static_cast<unsigned long long>(ok),
                 static_cast<unsigned long long>(shed),
                 static_cast<double>(ok) / 2.0 / warm_wall);
    }
  std::fprintf(f,
               ",\n    {\"name\": \"fleet\", \"run_type\": \"aggregate\", "
               "\"evictions\": %llu, \"reopens\": %llu, \"loads\": %llu, "
               "\"resident\": %llu, \"resident_bytes\": %llu, "
               "\"peak_rss_mb\": %.1f}",
               static_cast<unsigned long long>(stats.session_evictions),
               static_cast<unsigned long long>(stats.session_reopens),
               static_cast<unsigned long long>(stats.tenant_loads),
               static_cast<unsigned long long>(stats.resident_sessions),
               static_cast<unsigned long long>(stats.resident_bytes),
               peak_rss_mb());
  std::fprintf(f,
               ",\n    {\"name\": \"reopen_vs_cold\", \"run_type\": "
               "\"aggregate\", \"cold_ms\": %.3f, \"reopen_ms\": %.3f, "
               "\"speedup\": %.2f}\n  ]\n}\n",
               cold_ms, reopen_ms, reopen_speedup);
  std::fclose(f);
  std::printf(
      "wrote %s (%u tenants, %llu evictions, %llu reopens, reopen %.2fx "
      "faster than cold)\n",
      cfg.tenants_out.c_str(), cfg.tenants,
      static_cast<unsigned long long>(stats.session_evictions),
      static_cast<unsigned long long>(stats.session_reopens), reopen_speedup);
  return 0;
}

void write_scrape(const std::string& path, const std::string& exposition) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parcfl_loadgen: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(exposition.c_str(), f);
  if (!exposition.empty() && exposition.back() != '\n') std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "parcfl_loadgen: scraped metrics to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.threads = bench::env_unsigned("PARCFL_THREADS", cfg.threads);
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--benchmark") == 0 && (v = value())) cfg.benchmark = v;
    else if (std::strcmp(arg, "--scale") == 0 && (v = value())) cfg.scale = std::atof(v);
    else if (std::strcmp(arg, "--threads") == 0 && (v = value())) cfg.threads = static_cast<unsigned>(std::atol(v));
    else if (std::strcmp(arg, "--clients") == 0 && (v = value())) cfg.clients = std::max(1u, static_cast<unsigned>(std::atol(v)));
    else if (std::strcmp(arg, "--requests") == 0 && (v = value())) cfg.requests = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(arg, "--rate") == 0 && (v = value())) cfg.rate = std::atof(v);
    else if (std::strcmp(arg, "--alias-every") == 0 && (v = value())) cfg.alias_every = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(arg, "--taint-every") == 0 && (v = value())) cfg.taint_every = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(arg, "--depends-every") == 0 && (v = value())) cfg.depends_every = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(arg, "--batch") == 0 && (v = value())) cfg.batch = static_cast<std::uint32_t>(std::atol(v));
    else if (std::strcmp(arg, "--linger-us") == 0 && (v = value())) cfg.linger_us = std::atol(v);
    else if (std::strcmp(arg, "--queue") == 0 && (v = value())) cfg.queue = static_cast<std::uint32_t>(std::atol(v));
    else if (std::strcmp(arg, "--out") == 0 && (v = value())) cfg.out = v;
    else if (std::strcmp(arg, "--scrape") == 0 && (v = value())) cfg.scrape = v;
    else if (std::strcmp(arg, "--answers-out") == 0 && (v = value())) cfg.answers_out = v;
    else if (std::strcmp(arg, "--connect") == 0 && (v = value())) cfg.connect_port = std::atol(v);
    else if (std::strcmp(arg, "--no-reduce") == 0) cfg.reduce = false;
    else if (std::strcmp(arg, "--no-prefilter") == 0) cfg.prefilter = false;
    else if (std::strcmp(arg, "--index") == 0) cfg.index = true;
    else if (std::strcmp(arg, "--no-index") == 0) cfg.index = false;
    else if (std::strcmp(arg, "--tenants") == 0 && (v = value())) cfg.tenants = static_cast<unsigned>(std::atol(v));
    else if (std::strcmp(arg, "--tenant-skew") == 0 && (v = value())) cfg.tenant_skew = std::atof(v);
    else if (std::strcmp(arg, "--max-sessions") == 0 && (v = value())) cfg.max_sessions = static_cast<std::size_t>(std::atol(v));
    else if (std::strcmp(arg, "--max-resident-mb") == 0 && (v = value())) cfg.max_resident_mb = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(arg, "--spill-dir") == 0 && (v = value())) cfg.spill_dir = v;
    else if (std::strcmp(arg, "--tenants-out") == 0 && (v = value())) cfg.tenants_out = v;
    else return usage();
  }
  if (cfg.tenants != 0 && cfg.connect_port >= 0) {
    std::fprintf(stderr,
                 "parcfl_loadgen: --tenants is in-process only (drop "
                 "--connect)\n");
    return 2;
  }

  const auto workload =
      bench::build_workload(synth::benchmark_spec(cfg.benchmark), cfg.scale);
  if (cfg.requests == 0)
    cfg.requests = static_cast<std::uint64_t>(workload.queries.size());
  const auto requests = build_requests(workload, cfg);
  std::fprintf(stderr,
               "parcfl_loadgen: %s scale %.2f — %u nodes, %u edges, %zu query "
               "vars; %llu requests x 2 phases, %u clients, rate %s\n",
               workload.name.c_str(), cfg.scale, workload.pag.node_count(),
               workload.pag.edge_count(), workload.queries.size(),
               static_cast<unsigned long long>(cfg.requests), cfg.clients,
               cfg.rate > 0 ? (std::to_string(cfg.rate) + "/s").c_str()
                            : "unpaced");

  if (cfg.tenants != 0) return run_tenant_mode(cfg, workload, requests);

  PhaseResult cold, warm;
  bool with_engine = false;

  if (cfg.connect_port >= 0) {
#ifndef _WIN32
    // Replay against a live parcfl_serve: each client owns one connection.
    std::vector<std::unique_ptr<TcpClient>> conns;
    for (unsigned c = 0; c < cfg.clients; ++c) {
      conns.push_back(std::make_unique<TcpClient>(cfg.connect_port));
      if (!conns.back()->ok()) {
        std::fprintf(stderr, "parcfl_loadgen: cannot connect to 127.0.0.1:%ld\n",
                     cfg.connect_port);
        return 1;
      }
    }
    std::atomic<unsigned> conn_ids{0};
    thread_local TcpClient* conn = nullptr;
    auto issue = [&](std::uint64_t i, bool& shed, bool& incomplete) {
      if (conn == nullptr)
        conn = conns[conn_ids.fetch_add(1) % conns.size()].get();
      const std::string reply = conn->roundtrip(format_request_line(requests[i]));
      shed = reply.rfind("shed", 0) == 0 || reply.empty();
      // Definite replies per verb; "unknown" (flow verbs) and "partial"
      // (query) count as incomplete.
      incomplete = reply.rfind("ok complete", 0) != 0 &&
                   reply.rfind("ok no", 0) != 0 &&
                   reply.rfind("ok may", 0) != 0 &&
                   reply.rfind("ok tainted", 0) != 0 &&
                   reply.rfind("ok clean", 0) != 0 &&
                   reply.rfind("ok depends", 0) != 0 &&
                   reply.rfind("ok independent", 0) != 0;
    };
    cold = run_phase(requests, cfg, issue);
    warm = run_phase(requests, cfg, issue);
    if (!cfg.scrape.empty()) {
      std::string exposition;
      if (conns[0]->scrape(exposition))
        write_scrape(cfg.scrape, exposition);
      else
        std::fprintf(stderr, "parcfl_loadgen: metrics scrape failed\n");
    }
    if (!cfg.answers_out.empty() && !dump_answers(requests, cfg)) return 1;
#else
    std::fprintf(stderr, "parcfl_loadgen: --connect is POSIX-only\n");
    return 1;
#endif
  } else {
    service::ServiceOptions options;
    options.session.engine.threads = cfg.threads;
    options.session.engine.solver = bench::solver_options();
    // A resident session amortises every shortcut over an unbounded query
    // stream, so publish aggressively: the paper's τF guards a *batch* from
    // storing shortcuts it will never reuse, a pressure a service lacks.
    options.session.engine.solver.tau_finished = 1;
    options.session.engine.solver.tau_unfinished = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, options.session.engine.solver.budget / 8));
    options.max_batch = cfg.batch;
    options.max_linger = std::chrono::microseconds(cfg.linger_us);
    options.max_queue = cfg.queue;
    options.session.reduce_graph = cfg.reduce;
    options.session.prefilter = cfg.prefilter;
    options.session.index = cfg.index;
    service::QueryService svc(workload.pag, options);
    with_engine = true;
    // Both phases should measure the steady state, not the background
    // solve racing the first requests: wait for the prefilter up front.
    if (cfg.prefilter && svc.session().wait_for_prefilter()) {
      const auto pf = svc.session().prefilter_snapshot();
      std::fprintf(stderr,
                   "parcfl_loadgen: prefilter ready (%llu empty vars, "
                   "solve %.3fs)\n",
                   static_cast<unsigned long long>(pf->stats().empty_vars),
                   pf->stats().solve_seconds);
    }

    auto issue = [&](std::uint64_t i, bool& shed, bool& incomplete) {
      const service::Reply r = svc.call(requests[i]);
      shed = r.status != service::Reply::Status::kOk;
      incomplete = !shed && r.query_status != cfl::QueryStatus::kComplete;
    };
    auto before = svc.session().lifetime_totals();
    cold = run_phase(requests, cfg, issue);
    auto mid = svc.session().lifetime_totals();
    warm = run_phase(requests, cfg, issue);
    auto after = svc.session().lifetime_totals();
    cold.delta = mid.since(before);
    warm.delta = after.since(mid);

    const auto stats = svc.stats();
    std::fprintf(stderr, "parcfl_loadgen: server stats %s\n",
                 stats.to_json().c_str());
    write_scrape(cfg.scrape, svc.metrics_text());
  }

  const double step_ratio =
      warm.delta.traversed_steps == 0
          ? 0.0
          : static_cast<double>(cold.delta.traversed_steps) /
                static_cast<double>(warm.delta.traversed_steps);

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parcfl_loadgen: cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"context\": {%s, \"benchmark\": \"%s\", \"scale\": %.2f, "
               "\"nodes\": %u, \"edges\": %u, \"query_vars\": %zu, "
               "\"requests\": %llu, \"clients\": %u, \"engine_threads\": %u, "
               "\"rate_qps\": %.1f, \"alias_every\": %llu, \"max_batch\": %u, "
               "\"linger_us\": %ld, \"max_queue\": %u, \"transport\": \"%s\"},\n"
               "  \"benchmarks\": [\n",
               bench::json_context_stamp().c_str(), workload.name.c_str(),
               cfg.scale, workload.pag.node_count(),
               workload.pag.edge_count(), workload.queries.size(),
               static_cast<unsigned long long>(cfg.requests), cfg.clients,
               cfg.threads, cfg.rate,
               static_cast<unsigned long long>(cfg.alias_every), cfg.batch,
               cfg.linger_us, cfg.queue,
               cfg.connect_port >= 0 ? "tcp" : "in-process");
  emit_phase(f, "cold", cfg, cold, with_engine);
  std::fprintf(f, ",\n");
  emit_phase(f, "warm", cfg, warm, with_engine);
  if (with_engine) {
    std::fprintf(f,
                 ",\n    {\"name\": \"service/warm_vs_cold\", \"run_type\": "
                 "\"aggregate\", \"step_ratio\": %.3f, "
                 "\"jmp_hit_ratio_cold\": %.4f, \"jmp_hit_ratio_warm\": "
                 "%.4f, \"prefilter_hit_rate\": %.4f}",
                 step_ratio, hit_ratio(cold.delta), hit_ratio(warm.delta),
                 prefilter_hit_rate(warm.delta));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (cold %llu steps, warm %llu steps, ratio %.2fx)\n",
              cfg.out.c_str(),
              static_cast<unsigned long long>(cold.delta.traversed_steps),
              static_cast<unsigned long long>(warm.delta.traversed_steps),
              step_ratio);
  return 0;
}

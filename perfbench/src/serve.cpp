// serve-mix: an in-process DecompServer on a mapped rmat_20 hot snapshot,
// loaded by a separate open-loop generator process (`perfbench loadgen`).
//
// Thread budget (4 on a 4-core box): one server dispatcher, two workers
// whose cold computes run single-threaded (OMP_NUM_THREADS=1, set by
// run.py), and the generator's single thread. The measuring process's
// own thread only waits while the load runs.
//
// Traffic: connection 0 carries cold `run` requests (arrays included)
// drawn from a pool of more distinct keys than max_cached_results, so the
// store's clear path fires; connections 1-3 carry cluster_of point
// queries on the two query keys, stepped through fixed offered rates. Each
// query connection repeats one key, so after its first query every query
// is answered from the connection's byte memo and never reads the store:
// cold runs compete with queries for the workers and the dispatcher, not
// for the store. Each request is timed from when it was due.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>

#include "core/metrics.hpp"
#include "graph/snapshot.hpp"
#include "parallel/thread_env.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/random.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace srv = mpx::server;

constexpr int kWorkers = 2;
constexpr std::size_t kMaxCachedResults = 6;  // default 256
constexpr int kRunKeyPool = 8;
constexpr double kRunInterval = 1.0;  // seconds between cold runs
constexpr int kQueryConnections = 3;
/// Query p99 limit for a rate step to count as sustained. Host preemption
/// on a shared VM puts multi-millisecond bursts into any p99, so the limit
/// is set to catch queueing under overload, not jitter. A run whose
/// generator sent this late (p99) could fail a step on its own lateness,
/// so it is invalid.
constexpr double kLatencyLimitUs = 50000.0;

/// serve-mix's beta. Every stored result carries a k x k distance-oracle
/// table built when the server materializes it; at beta 0.1 grid2d_1000
/// has k = ~2600 clusters and that build is ~80% of a cold run, at 0.05
/// (k = ~650) the decomposition itself dominates again (README.md).
constexpr double kServeBeta = 0.05;

mpx::DecompositionRequest request_for_serve(std::uint64_t seed) {
  return request_for(seed, kServeBeta);
}

/// Comma-separated numbers.
template <typename T>
std::vector<T> parse_list(const std::string& s) {
  std::vector<T> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if constexpr (std::is_integral_v<T>) {
      out.push_back(static_cast<T>(std::stoull(item)));
    } else {
      out.push_back(static_cast<T>(std::stod(item)));
    }
  }
  return out;
}

// --- load generator -----------------------------------------------------------

struct Pending {
  double due = 0.0;
  bool is_run = false;
  int step = -1;
  std::uint8_t key = 0;
  std::uint32_t u = 0;
  std::uint64_t seed = 0;
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::vector<std::uint8_t> in;
  std::deque<Pending> pending;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One run response in the answers file: 'R', seed, cluster count,
/// rounds, arcs scanned, and the owner/settle hash (0 without arrays).
void write_run_record(std::ofstream& out, std::uint64_t seed,
                      const srv::RunResponse& r) {
  const std::uint8_t tag = 'R';
  const std::uint64_t arcs = r.arcs_scanned;
  const std::uint64_t hash = r.has_arrays ? hash_result(r.owner, r.settle) : 0;
  out.write(reinterpret_cast<const char*>(&tag), 1);
  out.write(reinterpret_cast<const char*>(&seed), 8);
  out.write(reinterpret_cast<const char*>(&r.num_clusters), 4);
  out.write(reinterpret_cast<const char*>(&r.rounds), 4);
  out.write(reinterpret_cast<const char*>(&arcs), 8);
  out.write(reinterpret_cast<const char*>(&hash), 8);
}

/// Sends one frame and reads its response with the socket in blocking
/// mode; for the untimed requests around the load.
srv::RunResponse blocking_run(int fd, const srv::RunRequest& req) {
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  const std::vector<std::uint8_t> frame =
      srv::encode_frame(srv::MessageType::kRunRequest, srv::encode_payload(req));
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    throw std::runtime_error("send failed");
  }
  const auto read_exact = [fd](std::uint8_t* dst, std::size_t len) {
    for (std::size_t got = 0; got < len;) {
      const ssize_t r = ::recv(fd, dst + got, len - got, 0);
      if (r <= 0) throw std::runtime_error("connection closed");
      got += static_cast<std::size_t>(r);
    }
  };
  std::vector<std::uint8_t> header(srv::kFrameHeaderBytes);
  read_exact(header.data(), header.size());
  const srv::FrameHeader h = srv::decode_frame_header(header);
  std::vector<std::uint8_t> payload(h.payload_bytes);
  read_exact(payload.data(), payload.size());
  ::fcntl(fd, F_SETFL, flags);
  if (h.type != srv::MessageType::kRunResponse) {
    throw std::runtime_error("run request answered with an error");
  }
  return srv::decode_run_response(payload);
}

struct StepStats {
  double rate = 0.0;
  double start = 0.0, end = 0.0;
  std::uint64_t sent = 0, completed = 0;
  std::vector<double> latency_us;
  /// Latencies by one-second window of due time, for the windowed p99.
  std::vector<std::vector<double>> windows;
  std::uint64_t backlog_end = 0;
  bool backlog_recorded = false;
  double last_response = 0.0;
};

}  // namespace

int run_loadgen(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.u64("port"));
  const std::uint64_t seed = args.u64("seed");
  const double seconds = args.num("seconds");
  const bool traced = args.str("trace") == "1";
  const std::vector<std::uint64_t> query_seeds =
      parse_list<std::uint64_t>(args.str("query-seeds"));
  const std::vector<double> rates = parse_list<double>(args.str("rates"));
  const auto n = static_cast<std::uint32_t>(args.u64("n"));
  std::ofstream answers(args.str("answers"), std::ios::binary);

  SpanLog log(traced);
  mpx::Xoshiro256pp rng(mix_seed(seed, 7));
  std::vector<std::uint64_t> run_pool;
  for (int i = 0; i < kRunKeyPool; ++i) run_pool.push_back(mix_seed(seed, 10 + i));

  std::vector<Conn> conns(1 + kQueryConnections);
  for (Conn& c : conns) c.fd = connect_loopback(port);

  const double step_len = seconds / static_cast<double>(rates.size());
  std::vector<StepStats> steps(rates.size());
  const double t0 = now_s() + 0.05;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    steps[j].rate = rates[j];
    steps[j].start = t0 + step_len * static_cast<double>(j);
    steps[j].end = steps[j].start + step_len;
  }
  const double end = t0 + seconds;
  const double drain_deadline = end + 30.0;

  std::vector<double> lag_us, run_ms_cold;
  std::uint64_t attempted = 0, errors = 0, warm_runs = 0;
  std::set<std::uint64_t> distinct_run_keys;
  std::size_t step = 0;
  std::uint64_t k_in_step = 0;
  double next_run = t0 + 0.2;
  std::size_t run_index = 0;
  std::uint64_t query_index = 0;

  const auto next_query_due = [&]() {
    if (step >= steps.size()) return 1e300;
    return steps[step].start +
           static_cast<double>(k_in_step) / steps[step].rate;
  };

  const auto issue = [&](Conn& c, const Pending& p,
                         std::vector<std::uint8_t> payload,
                         srv::MessageType type) {
    const std::vector<std::uint8_t> frame = srv::encode_frame(type, payload);
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    c.pending.push_back(p);
    ++attempted;
  };

  std::vector<pollfd> fds(conns.size());
  while (true) {
    double now = now_s();
    // Issue every request that is due.
    while (true) {
      const double qd = next_query_due();
      if (qd >= end || step >= steps.size()) break;
      if (qd >= steps[step].end) {
        ++step;
        k_in_step = 0;
        continue;
      }
      if (qd > now) break;
      Conn& c = conns[1 + query_index % kQueryConnections];
      const auto key = static_cast<std::uint8_t>((query_index % kQueryConnections) % 2);
      Pending p{qd, false, static_cast<int>(step), key,
                static_cast<std::uint32_t>(rng.next_below(n)), 0};
      srv::QueryRequest q;
      q.request = request_for_serve(query_seeds[key]);
      q.kind = srv::QueryKind::kClusterOf;
      q.u = p.u;
      issue(c, p, srv::encode_payload(q), srv::MessageType::kQueryRequest);
      lag_us.push_back((now - qd) * 1e6);
      ++steps[step].sent;
      ++k_in_step;
      ++query_index;
    }
    while (next_run < end && next_run <= now) {
      Pending p;
      p.due = next_run;
      p.is_run = true;
      p.seed = run_pool[run_index++ % run_pool.size()];
      distinct_run_keys.insert(p.seed);
      srv::RunRequest r;
      r.request = request_for_serve(p.seed);
      issue(conns[0], p, srv::encode_payload(r), srv::MessageType::kRunRequest);
      lag_us.push_back((now - next_run) * 1e6);
      next_run += kRunInterval;
    }
    // Backlog at each step's end: queries sent but not yet answered.
    for (StepStats& s : steps) {
      if (!s.backlog_recorded && now >= s.end) {
        s.backlog_recorded = true;
        for (std::size_t c = 1; c < conns.size(); ++c) {
          s.backlog_end += conns[c].pending.size();
        }
      }
    }

    bool outstanding = false;
    for (const Conn& c : conns) outstanding |= !c.pending.empty();
    if (now >= end && !outstanding) break;
    if (now >= drain_deadline) break;

    // Write what the sockets take.
    for (Conn& c : conns) {
      while (c.out_pos < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (w <= 0) break;
        c.out_pos += static_cast<std::size_t>(w);
      }
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
    }

    // Sleep until the next due request or a response.
    const double wake = std::min({next_query_due(), next_run, end});
    const double wait_s = std::max(0.0, wake - now_s());
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd,
                static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                0};
    }
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      std::uint8_t buf[1 << 16];
      while (true) {
        const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
        if (r <= 0) break;
        c.in.insert(c.in.end(), buf, buf + r);
      }
      const double got = now_s();
      std::size_t pos = 0;
      while (c.in.size() - pos >= srv::kFrameHeaderBytes && !c.pending.empty()) {
        const srv::FrameHeader h = srv::decode_frame_header(
            std::span<const std::uint8_t>(c.in.data() + pos,
                                          srv::kFrameHeaderBytes));
        if (c.in.size() - pos - srv::kFrameHeaderBytes < h.payload_bytes) break;
        const std::span<const std::uint8_t> payload(
            c.in.data() + pos + srv::kFrameHeaderBytes, h.payload_bytes);
        pos += srv::kFrameHeaderBytes + h.payload_bytes;
        const Pending p = c.pending.front();
        c.pending.pop_front();
        log.add(p.is_run ? "client.run" : "client.query", p.due, got);
        if (h.type == srv::MessageType::kErrorResponse) {
          ++errors;
          continue;
        }
        if (p.is_run) {
          const srv::RunResponse r = srv::decode_run_response(payload);
          const double ms = (got - p.due) * 1e3;
          if (r.from_cache) {
            ++warm_runs;
          } else {
            run_ms_cold.push_back(ms);
          }
          write_run_record(answers, p.seed, r);
        } else {
          const srv::QueryResponse q = srv::decode_query_response(payload);
          StepStats& s = steps[static_cast<std::size_t>(p.step)];
          s.latency_us.push_back((got - p.due) * 1e6);
          const auto w = static_cast<std::size_t>(p.due - s.start);
          if (s.windows.size() <= w) s.windows.resize(w + 1);
          s.windows[w].push_back(s.latency_us.back());
          ++s.completed;
          s.last_response = got;
          const std::uint8_t tag = 'Q';
          answers.write(reinterpret_cast<const char*>(&tag), 1);
          answers.write(reinterpret_cast<const char*>(&p.key), 1);
          answers.write(reinterpret_cast<const char*>(&p.u), 4);
          answers.write(reinterpret_cast<const char*>(&q.value), 8);
        }
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  // After the timed window: one run with its arrays, so the served
  // owner/settle bytes are checked too (8 MB responses would stall this
  // single-threaded generator if they were part of the timed load).
  if (conns[0].pending.empty()) {
    srv::RunRequest r;
    r.request = request_for_serve(run_pool[0]);
    r.include_arrays = true;
    ++attempted;
    try {
      write_run_record(answers, run_pool[0], blocking_run(conns[0].fd, r));
    } catch (const std::exception&) {
      ++errors;
    }
  }

  std::uint64_t unanswered = 0;
  for (Conn& c : conns) {
    unanswered += c.pending.size();
    ::close(c.fd);
  }
  answers.close();
  if (traced) log.write_chrome_json(args.str("trace-out"));

  // sustained_qps: the achieved rate of the highest step whose p99 stays
  // within the limit and whose backlog did not grow.
  std::string steps_json = "[";
  double sustained = 0.0;
  for (std::size_t j = 0; j < steps.size(); ++j) {
    const StepStats& s = steps[j];
    const double p99 = quantile(s.latency_us, 0.99);
    const double backlog_limit = 8.0 + s.rate * kLatencyLimitUs * 1e-6;
    const bool pass = s.completed == s.sent && p99 <= kLatencyLimitUs &&
                      static_cast<double>(s.backlog_end) <= backlog_limit;
    // Achieved rate: answers over the time from the step's first due
    // request to its last answer.
    if (pass) {
      sustained = static_cast<double>(s.completed) /
                  (std::max(s.last_response, s.end) - s.start);
    }
    steps_json += (j == 0 ? "" : ",") +
                  Json()
                      .num("rate", s.rate)
                      .integer("sent", s.sent)
                      .integer("completed", s.completed)
                      .num("p50_us", quantile(s.latency_us, 0.5))
                      .num("p99_us", p99)
                      .integer("beyond_p99", beyond(s.latency_us, 0.99))
                      .integer("backlog_end", s.backlog_end)
                      .boolean("pass", pass)
                      .done();
  }
  steps_json += "]";
  // The reported query latency is the top step's: the highest fixed rate.
  // Its p99 is the median over one-second windows of each window's p99
  // (windows of >= 1000 answers, so >= 10 samples lie beyond it), so a
  // burst of host preemption in one second does not decide the whole run.
  const StepStats& top = steps.back();
  std::vector<double> window_p99;
  for (const std::vector<double>& w : top.windows) {
    if (w.size() >= 1000) {
      window_p99.push_back(quantile(w, 0.99));
    }
  }
  std::printf(
      "%s\n",
      Json()
          .raw("steps", steps_json)
          .num("sustained_qps", sustained)
          .num("query_p50_us", quantile(top.latency_us, 0.5))
          .num("query_p99_us", median(window_p99))
          .integer("query_samples", top.latency_us.size())
          .num("run_cold_p50_ms", median(run_ms_cold))
          .integer("cold_runs", run_ms_cold.size())
          .integer("warm_runs", warm_runs)
          .integer("distinct_run_keys", distinct_run_keys.size())
          .num("lag_p99_us", quantile(lag_us, 0.99))
          .num("max_lag_p99_us", kLatencyLimitUs)
          .integer("attempted", attempted)
          .integer("errors", errors)
          .integer("unanswered", unanswered)
          .done()
          .c_str());
  return 0;
}

// --- server side ----------------------------------------------------------------

namespace {

double hist_us(const srv::StatsResponse& s, const char* name, double q) {
  const mpx::obs::HistogramSnapshot* h = s.metrics.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->quantile(q)) / 1e3;
}

double hist_mean_s(const srv::StatsResponse& s, const char* name) {
  const mpx::obs::HistogramSnapshot* h = s.metrics.histogram(name);
  return h == nullptr ? 0.0 : h->mean() / 1e9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

/// Spawns the generator and waits for it, killing it past `timeout_s`.
int spawn_and_wait(const std::string& exe, const std::vector<std::string>& argv,
                   const std::string& stdout_path, double timeout_s) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn the load generator");
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (now_s() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

int run_serve_workload(const Args& args, const std::string& self_exe) {
  const std::uint64_t seed = args.u64("seed");
  const double seconds = args.num("seconds");
  const bool traced = args.str("trace") == "1";
  const std::string snapshot = args.str("snapshot");
  const std::string work = args.str("work");
  const int verify_threads = static_cast<int>(args.u64("threads"));
  // The two query keys, derived from the workload seed.
  const std::vector<std::uint64_t> query_seeds = {mix_seed(seed, 2),
                                                  mix_seed(seed, 3)};

  SpanLog log(traced);
  Checks checks;

  srv::ServerConfig config;
  config.snapshot_path = snapshot;
  config.tcp_port = 0;
  config.workers = kWorkers;
  config.max_cached_results = kMaxCachedResults;

  // setup_s: start the server (map, bind, spawn threads) and compute the
  // two query keys through a client, five times (two single-threaded
  // computes make it noisy); the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<srv::DecompServer> server;
  for (int r = 0; r < 5; ++r) {
    if (server) server->stop();
    server.reset();
    const int span = log.open("server.start");
    const double t0 = now_s();
    server = std::make_unique<srv::DecompServer>(config);
    server->start();
    srv::DecompClient client =
        srv::DecompClient::connect_tcp("127.0.0.1", server->port());
    for (const std::uint64_t s : query_seeds) {
      (void)client.run(request_for_serve(s));
    }
    setup_s.push_back(now_s() - t0);
    log.close(span);
  }
  const std::uint16_t port = server->port();

  // graph.load_s: the snapshot map the server performs, timed alone.
  std::vector<double> load_s;
  mpx::vertex_t n = 0;
  for (int r = 0; r < 3; ++r) {
    const int span = log.open("graph.load");
    const double t0 = now_s();
    const mpx::CsrGraph mapped = mpx::io::map_snapshot(snapshot);
    load_s.push_back(now_s() - t0);
    log.close(span);
    n = mapped.num_vertices();
  }

  const auto stats = [&]() {
    const int span = log.open("client.server_stats");
    srv::DecompClient client = srv::DecompClient::connect_tcp("127.0.0.1", port);
    srv::StatsResponse s = client.server_stats();
    log.close(span);
    return s;
  };
  const srv::StatsResponse before = stats();

  const std::string loadgen_out = work + "/loadgen.json";
  const std::string answers_path = work + "/answers.bin";
  const std::string loadgen_trace = work + "/loadgen-trace.json";
  std::string query_seeds_arg;
  for (std::size_t k = 0; k < query_seeds.size(); ++k) {
    query_seeds_arg += (k == 0 ? "" : ",") + std::to_string(query_seeds[k]);
  }
  const int span_load = log.open("loadgen");
  const int rc = spawn_and_wait(
      self_exe,
      {self_exe, "loadgen", "--port", std::to_string(port), "--seed",
       std::to_string(seed), "--seconds", args.str("seconds"), "--trace",
       traced ? "1" : "0", "--query-seeds", query_seeds_arg, "--rates",
       args.str("rates"), "--n", std::to_string(n), "--answers", answers_path,
       "--trace-out", loadgen_trace},
      loadgen_out, seconds + 60.0);
  log.close(span_load);
  if (rc != 0) {
    server->stop();
    throw std::runtime_error("load generator failed (exit " +
                             std::to_string(rc) + ")");
  }
  const srv::StatsResponse after = stats();
  const double rss_mb = peak_rss_mb();
  server->stop();
  server.reset();

  // --- correctness: every query answer and a sample of run responses
  // against local decompose(), then the paper's bounds on those results.
  const mpx::ScopedNumThreads threads(verify_threads);
  const mpx::CsrGraph g = mpx::io::map_snapshot(snapshot);
  mpx::DecompositionWorkspace ws;
  std::vector<mpx::DecompositionResult> query_results;
  std::vector<double> local_s;
  const auto local_decompose = [&](std::uint64_t s) {
    const double t0 = now_s();
    mpx::DecompositionResult r = mpx::decompose(g, request_for_serve(s), &ws);
    local_s.push_back(now_s() - t0);
    return r;
  };
  (void)local_decompose(mix_seed(seed, 99));  // warm the workspace
  local_s.clear();
  // Extra timed calls, so decompose_s rests on ~16 calls in all.
  for (std::uint64_t i = 0; i < 6; ++i) (void)local_decompose(mix_seed(seed, 300 + i));
  for (const std::uint64_t s : query_seeds) {
    query_results.push_back(local_decompose(s));
    ++checks.attempted;
    const std::string bounds =
        check_paper_bounds(query_results.back().decomposition, g, kServeBeta);
    if (!bounds.empty()) checks.fail("query key " + std::to_string(s) + ": " + bounds);
  }
  struct RunRecord {
    std::uint64_t seed = 0, arcs = 0, hash = 0;
    std::uint32_t clusters = 0, rounds = 0;
  };
  std::vector<RunRecord> runs;
  std::uint64_t wrong_queries = 0;
  {
    std::ifstream in(answers_path, std::ios::binary);
    std::uint8_t tag = 0;
    while (in.read(reinterpret_cast<char*>(&tag), 1)) {
      if (tag == 'R') {
        RunRecord r;
        in.read(reinterpret_cast<char*>(&r.seed), 8);
        in.read(reinterpret_cast<char*>(&r.clusters), 4);
        in.read(reinterpret_cast<char*>(&r.rounds), 4);
        in.read(reinterpret_cast<char*>(&r.arcs), 8);
        in.read(reinterpret_cast<char*>(&r.hash), 8);
        runs.push_back(r);
      } else {
        std::uint8_t key = 0;
        std::uint32_t u = 0;
        std::uint64_t value = 0;
        in.read(reinterpret_cast<char*>(&key), 1);
        in.read(reinterpret_cast<char*>(&u), 4);
        in.read(reinterpret_cast<char*>(&value), 8);
        if (key >= query_results.size() ||
            value != query_results[key].cluster_of(u)) {
          ++wrong_queries;
        }
      }
    }
  }
  ++checks.attempted;
  if (wrong_queries > 0) {
    checks.fail(std::to_string(wrong_queries) +
                " cluster_of answers differ from local decompose()");
  }
  // Every run response against local decompose() of its key: the summary
  // fields always, the owner/settle hash where the arrays were sent. Only
  // the summaries are kept, so the timed local calls all start alike.
  std::map<std::uint64_t, RunRecord> local;
  for (const RunRecord& r : runs) {
    auto it = local.find(r.seed);
    if (it == local.end()) {
      const mpx::DecompositionResult want = local_decompose(r.seed);
      it = local.emplace(r.seed, RunRecord{r.seed, want.telemetry.arcs_scanned,
                                           hash_result(want.owner, want.settle),
                                           want.num_clusters(),
                                           want.telemetry.rounds})
               .first;
    }
    const RunRecord& want = it->second;
    ++checks.attempted;
    if (r.clusters != want.clusters || r.rounds != want.rounds ||
        r.arcs != want.arcs || (r.hash != 0 && r.hash != want.hash)) {
      checks.fail("run seed " + std::to_string(r.seed) +
                  ": served result differs from local decompose()");
    }
  }

  if (traced) log.write_chrome_json(args.str("trace-out"));

  // The served owner/settle hashes (runs sent with their arrays), which
  // run.py compares between the untraced and the traced pass.
  Json hashes_json;
  for (const RunRecord& r : runs) {
    if (r.hash == 0) continue;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(r.hash));
    hashes_json.str(std::to_string(r.seed), hex);
  }
  const auto computes = after.results_computed - before.results_computed;
  const mpx::obs::MetricsSnapshot& m = after.metrics;
  const double decomp_computes =
      static_cast<double>(m.counter_or("decomp.computes"));
  Json out;
  out.str("workload", "serve-mix")
      .boolean("traced", traced)
      .nums("setup_s", setup_s)
      .nums("load_s", load_s)
      .num("peak_rss_mb", rss_mb)
      .raw("loadgen", read_file(loadgen_out))
      .integer("results_computed", computes)
      .nums("local_decompose_s", local_s)
      .num("shift_draw_mean_s", hist_mean_s(after, "decomp.shift_draw"))
      .num("shift_rank_mean_s", hist_mean_s(after, "decomp.shift_rank"))
      .num("search_mean_s", hist_mean_s(after, "decomp.search"))
      .num("assemble_mean_s", hist_mean_s(after, "decomp.assemble"))
      .num("rounds_mean", decomp_computes > 0
                              ? m.counter_or("decomp.rounds") / decomp_computes
                              : 0.0)
      .num("arcs_mean", decomp_computes > 0
                            ? m.counter_or("decomp.arcs_scanned") / decomp_computes
                            : 0.0)
      .num("queue_wait_p50_us", hist_us(after, "server.queue_wait", 0.5))
      .num("queue_wait_p99_us", hist_us(after, "server.queue_wait", 0.99))
      .num("service_query_p50_us", hist_us(after, "server.service.query", 0.5))
      .num("service_query_p99_us", hist_us(after, "server.service.query", 0.99))
      .num("response_write_p99_us", hist_us(after, "server.response_write", 0.99))
      .raw("run_hashes", hashes_json.done())
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .raw("messages", checks.messages_json())
      .raw("env", Json()
                      .integer("omp_threads", 1)
                      .integer("server_workers", kWorkers)
                      .integer("max_cached_results", kMaxCachedResults)
                      .integer("loadgen_threads", 1)
                      .num("n", static_cast<double>(g.num_vertices()))
                      .num("m", static_cast<double>(g.num_edges()))
                      .integer("paged_budget_bytes", 0)
                      .done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace perfbench

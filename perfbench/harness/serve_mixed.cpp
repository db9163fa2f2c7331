// Workload `serve_mixed`: the real dqma_serve daemon (--socket, 2 worker
// threads) under a seeded request mix, driven from this process over at
// most two Unix-socket connections.
//
// Request classes, drawn in blocks of 100 so every block holds exactly the
// same class counts, with the heavy requests evenly spaced:
//   cheap  (85): auction_gt n=16 r=2 (43) and a small replicated_data_audit
//                (42), about 0.4-1.5 ms of service each;
//   medium (12): config_drift within tolerance, about 2-4 ms;
//   heavy   (3): config_drift beyond tolerance with Monte-Carlo attack
//                sampling, about 90 ms.
// The class shares keep the percentiles away from the class edges: the
// median lies deep inside the cheap class (edge at 85%) and p99 inside the
// top 3% that heavy requests and their batch-mates occupy (edge at 97%).
//
// Three phases follow a set-up: open loop at a low and at a high fixed
// rate (each request timed from its due time, at least 1000 requests per
// phase), then a closed loop with a fixed window of outstanding requests
// per connection, which keeps the server saturated. The latencies are
// per-layer metrics: on a shared host they spread by a quarter between
// runs, more than any end-to-end bound allows.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/framing.hpp"
#include "serve/handlers.hpp"
#include "serve/request.hpp"
#include "serve/shape_cache.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kServerThreads = 2;
constexpr double kLowRate = 75.0;    // requests per second
constexpr double kHighRate = 150.0;  // requests per second
constexpr std::size_t kMinPhaseRequests = 1000;
constexpr double kLowShare = 0.5;   // of --seconds
constexpr double kHighShare = 0.3;  // of --seconds
constexpr double kSatShare = 0.3;   // of --seconds
constexpr double kMinSatSeconds = 2.0;
constexpr int kWindow = 8;  // outstanding requests per connection, closed loop
constexpr int kSetupBatches = 5;  // set-up samples taken before each phase
constexpr int kSetupBatch = 10;   // server starts per set-up sample
constexpr int kSetupStarts = 3 * kSetupBatches * kSetupBatch;

enum class Cls { kCheap, kMedium, kHeavy };
const char* const kClsName[] = {"cheap", "medium", "heavy"};

struct Req {
  std::string id;
  std::string line;  // without the trailing newline
  Cls cls = Cls::kCheap;
  bool yes = true;  // the predicate holds: acceptance must be 1
  std::string verdict_key;  // the metric echoing the predicate
};

/// One sent request and what came back.
struct Exchange {
  const Req* req = nullptr;
  double due_s = 0.0;   // seconds from the phase start
  double sent_s = 0.0;
  double recv_s = -1.0;
  std::string response;
  double handle_ms = 0.0;  // filled by the recompute pass
  bool failed = false;     // no response, or one that is not ok:true
};

std::string request_line(const std::string& workload, const std::string& id,
                         std::uint64_t seed, const std::string& params) {
  return "{\"workload\":\"" + workload + "\",\"id\":\"" + id +
         "\",\"seed\":" + std::to_string(seed) + ",\"params\":{" + params + "}}";
}

enum class Kind { kAuction, kAudit, kMedium, kHeavy };

Req make_request(Kind kind, const std::string& id, dqma::util::Rng& rng) {
  Req r;
  r.id = id;
  const std::uint64_t seed = rng.next_u64() >> 12;
  switch (kind) {
    case Kind::kAuction: {
      const auto bid = rng.next_below(1 << 16);
      auto reserve = rng.next_below(1 << 16);
      while (reserve == bid) {
        reserve = rng.next_below(1 << 16);
      }
      r.yes = bid > reserve;
      r.verdict_key = "bid_wins";
      r.line = request_line("auction_gt", id, seed,
                            "\"n\":16,\"r\":2,\"bid\":" + std::to_string(bid) +
                                ",\"reserve\":" + std::to_string(reserve));
      break;
    }
    case Kind::kAudit: {
      const auto tamper = rng.next_bool() ? 0 : 1 + rng.next_below(4);
      r.yes = tamper == 0;
      r.verdict_key = "equal";
      r.line = request_line("replicated_data_audit", id, seed,
                            "\"nodes\":6,\"replicas\":3,\"n\":32,\"reps\":4,"
                            "\"tamper_bits\":" + std::to_string(tamper));
      break;
    }
    case Kind::kMedium:
    case Kind::kHeavy: {
      const auto drift = kind == Kind::kMedium ? rng.next_below(3)
                                               : 3 + rng.next_below(4);
      r.cls = kind == Kind::kMedium ? Cls::kMedium : Cls::kHeavy;
      r.yes = drift <= 2;
      r.verdict_key = "within_tolerance";
      r.line = request_line("config_drift", id, seed,
                            "\"n\":32,\"d\":2,\"r\":2,\"reps\":10,"
                            "\"samples\":20,\"drift\":" + std::to_string(drift));
      break;
    }
  }
  return r;
}

/// `count` requests in blocks of 100 with fixed class counts: the three
/// heavy requests sit at fixed, evenly spaced positions of every block and
/// the other 97 are shuffled around them.
std::vector<Req> make_requests(const std::string& phase, std::size_t count,
                               std::uint64_t seed) {
  dqma::util::Rng rng(seed);
  std::vector<Kind> rest;
  rest.insert(rest.end(), 43, Kind::kAuction);
  rest.insert(rest.end(), 42, Kind::kAudit);
  rest.insert(rest.end(), 12, Kind::kMedium);
  constexpr std::size_t kHeavyAt[] = {16, 49, 82};
  std::vector<Req> out;
  out.reserve(count);
  while (out.size() < count) {
    for (std::size_t i = rest.size(); i > 1; --i) {
      std::swap(rest[i - 1], rest[rng.next_below(i)]);
    }
    std::vector<Kind> block = rest;
    for (const std::size_t at : kHeavyAt) {
      block.insert(block.begin() + static_cast<std::ptrdiff_t>(at), Kind::kHeavy);
    }
    for (const Kind kind : block) {
      if (out.size() == count) {
        break;
      }
      out.push_back(make_request(kind, phase + "-" + std::to_string(out.size()), rng));
    }
  }
  return out;
}

/// The first request of every shape the mix uses.
std::vector<Req> shape_requests(const std::string& prefix) {
  dqma::util::Rng rng(12345);
  return {make_request(Kind::kAuction, prefix + "-0", rng),
          make_request(Kind::kAudit, prefix + "-1", rng),
          make_request(Kind::kMedium, prefix + "-2", rng)};
}

// --- socket client -------------------------------------------------------

int try_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("socket failed");
  }
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) == 0) {
    return fd;
  }
  ::close(fd);
  return -1;
}

int connect_retry(const std::string& path, double timeout_s) {
  const auto start = Clock::now();
  while (seconds_since(start) < timeout_s) {
    const int fd = try_connect(path);
    if (fd >= 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("dqma_serve did not accept connections on " + path);
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw std::runtime_error("send to dqma_serve failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Newline framing of one connection's response stream.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  /// Reads what is available (blocking once) and appends complete lines.
  void read_some(std::vector<std::string>& lines) {
    char buffer[65536];
    ssize_t n = 0;
    do {
      n = ::read(fd_, buffer, sizeof(buffer));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      throw std::runtime_error("dqma_serve closed the connection");
    }
    pending_.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines.push_back(pending_.substr(start, nl - start));
    }
    pending_.erase(0, start);
  }

 private:
  int fd_;
  std::string pending_;
};

std::string response_id(const std::string& response) {
  const std::string prefix = "{\"id\":\"";
  if (response.rfind(prefix, 0) != 0) {
    return {};
  }
  const std::size_t end = response.find('"', prefix.size());
  return end == std::string::npos ? std::string()
                                   : response.substr(prefix.size(), end - prefix.size());
}

/// Records each response line against its request by id.
class Matcher {
 public:
  explicit Matcher(std::vector<Exchange>& exchanges) : exchanges_(exchanges) {
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      index_[exchanges[i].req->id] = i;
    }
  }
  /// Returns the exchange index, or throws on an unknown id.
  std::size_t record(std::string line, double now_s) {
    const auto it = index_.find(response_id(line));
    if (it == index_.end()) {
      throw std::runtime_error("response with an unknown id: " + line);
    }
    Exchange& e = exchanges_[it->second];
    e.recv_s = now_s;
    e.response = std::move(line);
    return it->second;
  }

 private:
  std::vector<Exchange>& exchanges_;
  std::unordered_map<std::string, std::size_t> index_;
};

// --- server process ---------------------------------------------------------

struct Server {
  pid_t pid = -1;
  std::string err_path;
};

Server start_server(const Options& options, const std::string& socket_path,
                    const std::string& err_path) {
  Server server;
  server.err_path = err_path;
  server.pid = spawn({options.bin_dir + "/dqma_serve", "--socket", socket_path,
                      "--threads", std::to_string(kServerThreads), "--stats"},
                     "", err_path, program_cpus());
  return server;
}

int stop_server(Server& server) {
  if (server.pid <= 0) {
    return 0;
  }
  ::kill(server.pid, SIGTERM);
  const ChildExit exit = wait_child(server.pid);
  server.pid = -1;
  return exit.status;
}

/// --stats counter `name=<n>` from the server's stderr.
double stats_counter(const std::string& text, const std::string& name) {
  const std::size_t at = text.find(" " + name + "=");
  return at == std::string::npos ? -1.0
                                 : std::stod(text.substr(at + name.size() + 2));
}

// --- phases ---------------------------------------------------------------

struct Phase {
  std::string name;
  std::vector<Req> requests;
  std::vector<Exchange> exchanges;
  double rate = 0.0;       // open loop: requests per second
  double duration_s = 0.0; // closed loop: measured window
};

/// Closed loop: requests answered, not failed, inside the measured window.
std::size_t completed_in_window(const Phase& phase) {
  return static_cast<std::size_t>(std::count_if(
      phase.exchanges.begin(), phase.exchanges.end(), [&](const Exchange& e) {
        return !e.failed && e.recv_s >= 0.0 && e.recv_s <= phase.duration_s;
      }));
}

/// Open loop on one connection: a sender thread writes each request at its
/// due time, this thread reads responses. Latency runs from the due time.
void run_open_loop(Connection& conn, Phase& phase) {
  phase.exchanges.assign(phase.requests.size(), Exchange{});
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    phase.exchanges[i].req = &phase.requests[i];
  }
  Matcher matcher(phase.exchanges);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < phase.exchanges.size(); ++i) {
    phase.exchanges[i].due_s = static_cast<double>(i) / phase.rate;
  }
  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      for (Exchange& e : phase.exchanges) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(e.due_s));
        std::this_thread::sleep_until(due);
        e.sent_s = seconds_since(start);
        send_all(conn.fd(), e.req->line + "\n");
      }
    } catch (...) {
      send_error = std::current_exception();
    }
  });
  std::size_t received = 0;
  std::vector<std::string> lines;
  try {
    while (received < phase.exchanges.size()) {
      lines.clear();
      conn.read_some(lines);
      const double now = seconds_since(start);
      for (std::string& line : lines) {
        matcher.record(std::move(line), now);
        ++received;
      }
    }
  } catch (...) {
    sender.join();
    throw;
  }
  sender.join();
  if (send_error) {
    std::rethrow_exception(send_error);
  }
}

/// Closed loop over two connections with kWindow requests outstanding on
/// each; a connection sends its next request while the window lasts.
void run_closed_loop(Connection& a, Connection& b, Phase& phase) {
  phase.exchanges.assign(phase.requests.size(), Exchange{});
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    phase.exchanges[i].req = &phase.requests[i];
  }
  Matcher matcher(phase.exchanges);
  Connection* conns[2] = {&a, &b};
  int outstanding[2] = {0, 0};
  std::size_t next = 0;
  const auto start = Clock::now();
  const auto send_next = [&](int c) {
    if (next >= phase.exchanges.size()) {
      throw std::runtime_error("closed loop ran out of pre-generated requests");
    }
    Exchange& e = phase.exchanges[next++];
    e.due_s = e.sent_s = seconds_since(start);
    send_all(conns[c]->fd(), e.req->line + "\n");
    ++outstanding[c];
  };
  for (int c = 0; c < 2; ++c) {
    for (int w = 0; w < kWindow; ++w) {
      send_next(c);
    }
  }
  std::vector<std::string> lines;
  while (outstanding[0] + outstanding[1] > 0) {
    pollfd fds[2] = {{a.fd(), POLLIN, 0}, {b.fd(), POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error("poll failed");
    }
    for (int c = 0; c < 2; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      lines.clear();
      conns[c]->read_some(lines);
      const double now = seconds_since(start);
      for (std::string& line : lines) {
        matcher.record(std::move(line), now);
        --outstanding[c];
        if (now <= phase.duration_s) {
          send_next(c);
        }
      }
    }
  }
  // Only what was sent counts as part of the phase.
  phase.exchanges.resize(next);
}

// --- one session ------------------------------------------------------------

struct Session {
  std::vector<double> setup_s;
  std::vector<Req> setup_requests;
  std::vector<Exchange> setup_exchanges;
  Phase low, high, sat;
  double server_rss_mb = 0.0;
  std::string server_stats;
  int server_exit = 0;
};

/// Starts the server, connects, answers the first request of every shape;
/// the wall time of all of it is one set-up sample.
double start_and_warm(const Options& options, const std::string& socket_path,
                      const std::string& err_path, Server& server,
                      std::unique_ptr<Connection>& conn,
                      std::vector<Req>& requests, std::vector<Exchange>& log,
                      int repeat) {
  const auto start = Clock::now();
  server = start_server(options, socket_path, err_path);
  conn = std::make_unique<Connection>(connect_retry(socket_path, 30.0));
  const std::vector<Req> shapes = shape_requests("setup" + std::to_string(repeat));
  std::string batch;
  for (const Req& r : shapes) {
    batch += r.line + "\n";
  }
  send_all(conn->fd(), batch);
  std::vector<std::string> lines;
  while (lines.size() < shapes.size()) {
    conn->read_some(lines);
  }
  const double elapsed = seconds_since(start);
  requests.insert(requests.end(), shapes.begin(), shapes.end());
  for (std::string& line : lines) {
    Exchange e;
    e.response = std::move(line);
    log.push_back(std::move(e));
  }
  return elapsed;
}

/// kSetupBatches x kSetupBatch set-up samples, each on a server of its own
/// (the phase server sits idle meanwhile): start, connect, first request of
/// every shape, stop.
void sample_setup(const Options& options, const std::string& dir, Session& s) {
  const std::string socket_path = dir + "/setup.sock";
  const std::string err_path = dir + "/setup.err";
  for (int i = 0; i < kSetupBatches * kSetupBatch; ++i) {
    Server server;
    std::unique_ptr<Connection> conn;
    try {
      s.setup_s.push_back(start_and_warm(options, socket_path, err_path, server,
                                         conn, s.setup_requests, s.setup_exchanges,
                                         static_cast<int>(s.setup_s.size())));
    } catch (...) {
      conn.reset();
      stop_server(server);
      throw;
    }
    conn.reset();
    if (const int code = stop_server(server); code != 0) {
      s.server_exit = code;
    }
  }
}

Session run_session(const Options& options) {
  dqma::serve::register_builtin_workloads();
  pin_current_thread(client_cpus());
  const std::string dir = options.work_dir + "/serve";
  std::filesystem::create_directories(dir);
  // The socket path stays relative: sun_path holds only 107 bytes.
  const std::string socket_path = dir + "/dqma.sock";
  const std::string err_path = dir + "/server.err";

  Session s;
  s.low.name = "low";
  s.high.name = "high";
  s.sat.name = "sat";
  s.low.rate = kLowRate;
  s.high.rate = kHighRate;
  s.low.requests = make_requests(
      "low", std::max<std::size_t>(kMinPhaseRequests,
                                   static_cast<std::size_t>(kLowRate * kLowShare * options.seconds)),
      dqma::util::derive_seed(options.seed, 1));
  s.high.requests = make_requests(
      "high", std::max<std::size_t>(kMinPhaseRequests,
                                    static_cast<std::size_t>(kHighRate * kHighShare * options.seconds)),
      dqma::util::derive_seed(options.seed, 2));
  s.sat.duration_s = std::max(kMinSatSeconds, kSatShare * options.seconds);
  s.sat.requests = make_requests(
      "sat", static_cast<std::size_t>(2000.0 * s.sat.duration_s) + 2 * kWindow,
      dqma::util::derive_seed(options.seed, 3));

  // Set-up is sampled before each phase, so its median follows the host
  // over the whole run rather than over its first second. The phase server
  // is started and warmed the same way, untimed.
  Server server;
  std::unique_ptr<Connection> conn;
  s.setup_requests.reserve(3 * (kSetupStarts + 1));
  try {
    sample_setup(options, dir, s);
    start_and_warm(options, socket_path, err_path, server, conn, s.setup_requests,
                   s.setup_exchanges, kSetupStarts);
    run_open_loop(*conn, s.low);
    sample_setup(options, dir, s);
    run_open_loop(*conn, s.high);
    sample_setup(options, dir, s);
    Connection second(connect_retry(socket_path, 30.0));
    run_closed_loop(*conn, second, s.sat);
    s.server_rss_mb = peak_rss_mb(server.pid);
    for (std::size_t i = 0; i < s.setup_exchanges.size(); ++i) {
      s.setup_exchanges[i].req = &s.setup_requests[i];
    }
  } catch (...) {
    conn.reset();
    stop_server(server);
    throw;
  }
  conn.reset();
  if (const int code = stop_server(server); code != 0) {
    s.server_exit = code;
  }
  s.server_stats = read_file(err_path);
  return s;
}

// --- checks -------------------------------------------------------------

/// Recomputes every response with serve::handle_request_line on fresh
/// private ShapeCaches (two threads, one cache each): no socket, queue or
/// pool. Fills handle_ms; returns the number of mismatching responses.
std::size_t recompute(std::vector<Exchange*>& all) {
  std::atomic<std::size_t> mismatches{0};
  const auto work = [&](std::size_t parity) {
    dqma::serve::ShapeCache cache;
    for (std::size_t i = parity; i < all.size(); i += 2) {
      Exchange& e = *all[i];
      const auto start = Clock::now();
      const std::string expected =
          dqma::serve::handle_request_line(e.req->line, cache);
      e.handle_ms = 1000.0 * seconds_since(start);
      if (expected != e.response) {
        ++mismatches;
      }
    }
  };
  std::thread other(work, 1);
  work(0);
  other.join();
  return mismatches.load();
}

/// Checks every response. A missing or not-ok response is a failed
/// operation (counted in report.failed); an ok response with a wrong
/// verdict or bound, or one that differs from the recomputation, makes the
/// run incorrect.
void check_session(Session& s, Report& report, std::vector<Exchange*>& all) {
  for (Exchange& e : s.setup_exchanges) {
    all.push_back(&e);
  }
  for (Phase* p : {&s.low, &s.high, &s.sat}) {
    for (Exchange& e : p->exchanges) {
      all.push_back(&e);
    }
  }
  std::size_t bad = 0;
  for (Exchange* e : all) {
    if (e->response.empty()) {
      e->failed = true;
      ++report.failed;
      continue;
    }
    const auto doc = dqma::util::json::parse(e->response);
    const auto* ok = doc.find("ok");
    const auto* metrics = doc.find("metrics");
    if (ok == nullptr || !ok->as_bool() || metrics == nullptr) {
      e->failed = true;
      ++report.failed;
      std::cerr << "perfbench: not ok: " << e->response << "\n";
      continue;
    }
    const double accept = metrics->at("accept").as_double();
    const bool verdict = metrics->at(e->req->verdict_key).as_bool();
    const bool sound = e->req->yes ? accept >= 1.0 - 1e-9 : accept <= 1.0 / 3.0;
    if (verdict != e->req->yes || !sound) {
      ++bad;
      std::cerr << "perfbench: wrong verdict or bound for " << e->req->line
                << " -> " << e->response << "\n";
    }
  }
  report.check(bad == 0, "responses with a wrong verdict or bound: " + std::to_string(bad));
  const std::size_t mismatches = recompute(all);
  report.check(mismatches == 0,
               "responses differing from handle_request_line: " +
                   std::to_string(mismatches));
  report.check(s.server_exit == 0, "dqma_serve exited with an error");
}

std::vector<double> latencies_ms(const Phase& p, bool cheap_only = false) {
  std::vector<double> out;
  for (const Exchange& e : p.exchanges) {
    if (!cheap_only || e.req->cls == Cls::kCheap) {
      out.push_back(1000.0 * (e.recv_s - e.due_s));
    }
  }
  return out;
}

std::vector<double> lateness_ms(const Phase& p) {
  std::vector<double> out;
  for (const Exchange& e : p.exchanges) {
    out.push_back(1000.0 * (e.sent_s - e.due_s));
  }
  return out;
}

void print_phases(const Session& s) {
  for (const Phase* p : {&s.low, &s.high}) {
    const auto lat = latencies_ms(*p);
    const auto late = lateness_ms(*p);
    std::printf("serve %s: %zu requests at %.0f/s, p50 %.3f ms, p99 %.3f ms,"
                " cheap p99 %.3f ms, generator late p99 %.3f ms max %.3f ms\n",
                p->name.c_str(), p->exchanges.size(), p->rate, percentile(lat, 50),
                percentile(lat, 99), percentile(latencies_ms(*p, true), 99),
                percentile(late, 99), percentile(late, 100));
  }
  const std::size_t completed = completed_in_window(s.sat);
  std::printf("serve sat: %zu completions in %.1f s (%zu sent), %.1f/s, p50 %.3f ms\n",
              completed, s.sat.duration_s, s.sat.exchanges.size(),
              completed / s.sat.duration_s,
              percentile(latencies_ms(s.sat), 50));
}

long long exchanged(const Session& s) {
  return static_cast<long long>(s.setup_exchanges.size() + s.low.exchanges.size() +
                                s.high.exchanges.size() + s.sat.exchanges.size());
}

}  // namespace

void run_serve_mixed(const Options& options, Report& report) {
  Session s = run_session(options);
  report.attempted = exchanged(s);
  std::vector<Exchange*> all;
  check_session(s, report, all);
  print_phases(s);
  report.e2e("setup_s", batch_median(s.setup_s, kSetupBatch), "s");
  report.e2e("peak_rss_mb", s.server_rss_mb, "MB");
  report.e2e("ops_per_s", completed_in_window(s.sat) / s.sat.duration_s, "1/s");
}

void trace_serve_mixed(const Options& options, Report& report) {
  Session s = run_session(options);
  report.attempted += exchanged(s);
  std::vector<Exchange*> all;
  check_session(s, report, all);
  print_phases(s);

  // Framing and parsing of the whole request stream, per line.
  std::string stream;
  std::vector<std::string> lines;
  for (const Exchange* e : all) {
    stream += e->req->line + "\n";
    lines.push_back(e->req->line);
  }
  std::vector<double> decode;
  std::vector<double> parse;
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    dqma::serve::LineDecoder decoder;
    std::size_t decoded = 0;
    for (std::size_t at = 0; at < stream.size(); at += 4096) {
      decoder.feed(std::string_view(stream).substr(at, 4096));
      while (decoder.next()) {
        ++decoded;
      }
    }
    decode.push_back(1e6 * seconds_since(start) / static_cast<double>(decoded));
    start = Clock::now();
    for (const std::string& line : lines) {
      const auto request = dqma::serve::parse_request(line);
      if (request.workload.empty()) {
        std::abort();
      }
    }
    parse.push_back(1e6 * seconds_since(start) / static_cast<double>(lines.size()));
  }
  report.layer("serve.decode_us", median(decode), "us");
  report.layer("serve.parse_us", median(parse), "us");

  // Service time per class on a warm private cache, and the shape build
  // cost as cold minus warm first request per shape.
  {
    dqma::serve::ShapeCache cache;
    std::vector<double> shape_build;
    for (const Req& r : shape_requests("probe")) {
      auto start = Clock::now();
      dqma::serve::handle_request_line(r.line, cache);
      const double cold = seconds_since(start);
      start = Clock::now();
      dqma::serve::handle_request_line(r.line, cache);
      shape_build.push_back(cold - seconds_since(start));
    }
    report.layer("serve.shape_build_ms", 1000.0 * sum(shape_build), "ms");
    std::vector<double> by_class[3];
    for (const Exchange& e : s.high.exchanges) {
      auto& v = by_class[static_cast<int>(e.req->cls)];
      if (v.size() >= 200) {
        continue;
      }
      const auto start = Clock::now();
      dqma::serve::handle_request_line(e.req->line, cache);
      v.push_back(1000.0 * seconds_since(start));
    }
    for (int c = 0; c < 3; ++c) {
      report.layer(std::string("serve.handle_ms.") + kClsName[c], median(by_class[c]), "ms");
    }
  }

  report.layer("serve.cache_hits", stats_counter(s.server_stats, "cache_hits"), "count");
  report.layer("serve.cache_misses", stats_counter(s.server_stats, "cache_misses"), "count");
  for (const Phase* p : {&s.low, &s.high}) {
    const auto lat = latencies_ms(*p);
    report.layer("serve.p50_ms." + p->name, percentile(lat, 50), "ms");
    report.layer("serve.p99_ms." + p->name, percentile(lat, 99), "ms");
  }
  report.layer("serve.cheap_p99_ms.high", percentile(latencies_ms(s.high, true), 99), "ms");
  std::vector<double> wait;
  for (const Exchange& e : s.high.exchanges) {
    wait.push_back(1000.0 * (e.recv_s - e.due_s) - e.handle_ms);
  }
  report.layer("serve.queue_wait_ms.p50.high", percentile(wait, 50), "ms");
  report.layer("serve.queue_wait_ms.p99.high", percentile(wait, 99), "ms");
  auto late = lateness_ms(s.low);
  const auto late_high = lateness_ms(s.high);
  late.insert(late.end(), late_high.begin(), late_high.end());
  report.layer("serve.gen_late_ms.p99", percentile(late, 99), "ms");
  double busy_ms = 0.0;
  for (const Exchange& e : s.sat.exchanges) {
    if (e.recv_s <= s.sat.duration_s) {
      busy_ms += e.handle_ms;
    }
  }
  report.layer("serve.busy_share.sat",
               busy_ms / (1000.0 * s.sat.duration_s * kServerThreads), "ratio");
  report.layer("serve.throughput_rps.sat",
               completed_in_window(s.sat) / s.sat.duration_s, "1/s");
}

}  // namespace perfbench

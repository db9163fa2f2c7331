// dqma_serve — a long-running verification daemon.
//
// Reads line-delimited JSON requests (see serve/request.hpp for the
// protocol), dispatches them onto the server engine, and writes one
// compact JSON response line per request. Three transports:
//
//   dqma_serve                       requests on stdin, responses on stdout
//   dqma_serve --input PATH          read a file or FIFO, respond on stdout
//   dqma_serve --socket PATH         Unix-domain stream socket; each client
//                                    gets its own request/response stream
//
// Responses for a given input stream are byte-identical across runs and
// --threads values (fixed request seeds); pipe two identical request files
// through and `cmp` the outputs. SIGINT/SIGTERM drain every accepted
// request before exiting. --stats prints engine and cache counters to
// stderr at shutdown (stderr, so stdout stays cmp-clean).
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/simd.hpp"
#include "serve/framing.hpp"
#include "serve/handlers.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/parse.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DQMA_SERVE_POSIX 1
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace dqma::serve {
namespace {

struct Options {
  std::string socket_path;  // empty: stream mode
  std::string input_path;   // empty: stdin
  int threads = 0;
  std::size_t max_pending = 1024;
  bool stats = false;
  bool list = false;
  bool help = false;
};

void print_usage(std::ostream& out) {
  out << "usage: dqma_serve [--socket PATH | --input PATH] [--threads N]\n"
         "                  [--max-pending N] [--stats] [--list]\n"
         "\n"
         "Reads line-delimited JSON verification requests and writes one\n"
         "compact JSON response line per request, in request order.\n"
         "Request:  {\"workload\": NAME, \"id\": ID, \"seed\": N,"
         " \"params\": {...}}\n"
         "Response: {\"id\": ID, \"ok\": true, \"metrics\": {...}}\n"
         "      or  {\"id\": ID, \"ok\": false, \"error\": MSG"
         " (, \"retry\": true)}\n"
         "\n"
         "  --socket PATH     serve a Unix-domain stream socket (POSIX)\n"
         "  --input PATH      read requests from a file or FIFO\n"
         "  --threads N       worker threads (default: hardware)\n"
         "  --max-pending N   queue bound before overload responses"
         " (default 1024)\n"
         "  --stats           print request/cache counters to stderr on"
         " exit\n"
         "  --list            list registered workloads and exit\n";
}

bool parse_options(int argc, char** argv, Options& options,
                   std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      const char* value = next_value("--socket");
      if (value == nullptr) return false;
      options.socket_path = value;
    } else if (arg == "--input") {
      const char* value = next_value("--input");
      if (value == nullptr) return false;
      options.input_path = value;
    } else if (arg == "--threads") {
      const char* value = next_value("--threads");
      if (value == nullptr) return false;
      if (!util::parse_number(value, options.threads) ||
          options.threads < 0) {
        error = "--threads requires a non-negative integer";
        return false;
      }
    } else if (arg == "--max-pending") {
      const char* value = next_value("--max-pending");
      if (value == nullptr) return false;
      if (!util::parse_number(value, options.max_pending) ||
          options.max_pending == 0) {
        error = "--max-pending must be a positive integer";
        return false;
      }
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else {
      error = "unknown option '" + arg + "'";
      return false;
    }
  }
  if (!options.socket_path.empty() && !options.input_path.empty()) {
    error = "--socket and --input are mutually exclusive";
    return false;
  }
  return true;
}

void print_stats(const Server& server) {
  const ServerStats stats = server.stats();
  std::cerr << "dqma_serve: accepted=" << stats.accepted
            << " overloaded=" << stats.overloaded << " ok=" << stats.ok
            << " failed=" << stats.failed << " cache_hits=" << stats.cache.hits
            << " cache_misses=" << stats.cache.misses
            << " cache_entries=" << stats.cache.entries << "\n";
}

#ifdef DQMA_SERVE_POSIX
// Self-pipe carrying SIGINT/SIGTERM into the poll loops: both transports
// multiplex their input fd against g_signal_pipe[0], so a stop signal
// wakes a blocked poll even when no request bytes ever arrive.
volatile std::sig_atomic_t g_stop = 0;
int g_signal_pipe[2] = {-1, -1};

void on_stop_signal(int) {
  g_stop = 1;
  if (g_signal_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
  }
}

/// SA_RESTART deliberately absent: a signal must interrupt a blocked
/// poll/open so the transports can notice the stop flag and drain.
void install_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = on_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}
#else
void install_signal_handlers() {}
#endif

// ---------------------------------------------------------------------------
// Stream transport: one request stream in, one response stream out.
// Responses are flushed per line: clients (and the CI drain gate) read the
// stream live, and stdout is fully buffered when redirected.
// ---------------------------------------------------------------------------

/// The framed answer to a line that crossed the LineDecoder cap. The line
/// was discarded before parsing, so no request id can be echoed.
std::string oversized_response(const LineDecoder& decoder) {
  return error_response(
      "", "request line exceeds " + std::to_string(decoder.max_line()) +
              " bytes; line discarded");
}

void submit_stream_line(Server& server, std::string line,
                        std::mutex& out_mutex) {
  if (line.empty()) {
    return;  // blank keep-alive lines are legal
  }
  util::fault::point(util::fault::Site::kServe);
  server.submit(std::move(line), [&out_mutex](std::string response) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    std::cout << response << '\n' << std::flush;
  });
}

/// Routes one decoded stream event: oversized lines answer immediately with
/// a framed error (they never reach the parser), normal lines are
/// submitted. The error bypasses the dispatch queue, so its position
/// relative to in-flight responses is unspecified — like any response to a
/// malformed stream.
void handle_stream_line(Server& server, LineDecoder& decoder,
                        LineDecoder::Line line, std::mutex& out_mutex) {
  if (line.oversized) {
    const std::string response = oversized_response(decoder);
    const std::lock_guard<std::mutex> lock(out_mutex);
    std::cout << response << '\n' << std::flush;
    return;
  }
  submit_stream_line(server, std::move(line.text), out_mutex);
}

#ifdef DQMA_SERVE_POSIX

/// POSIX stream transport over a raw fd (stdin, file, or FIFO), multiplexed
/// with the signal self-pipe. A blocked std::getline would not reliably
/// wake on SIGTERM (libstdc++ may treat the interrupted read as transient),
/// so the daemon polls {input, signal pipe} and reads lines itself — a stop
/// signal always wins the poll, then drains everything accepted.
int run_stream_fd(int fd, Server& server) {
  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "dqma_serve: pipe failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  std::mutex out_mutex;
  LineDecoder decoder;
  char buffer[4096];
  while (g_stop == 0) {
    pollfd fds[2] = {pollfd{g_signal_pipe[0], POLLIN, 0},
                     pollfd{fd, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) {
        continue;  // loop condition re-checks g_stop
      }
      std::cerr << "dqma_serve: poll failed: " << std::strerror(errno)
                << "\n";
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      break;  // stop signal via self-pipe
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      std::cerr << "dqma_serve: read failed: " << std::strerror(errno)
                << "\n";
      break;
    }
    if (n == 0) {
      break;  // EOF (for a FIFO: every writer closed)
    }
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (auto line = decoder.next()) {
      handle_stream_line(server, decoder, std::move(*line), out_mutex);
    }
  }
  if (g_stop == 0) {
    while (auto line = decoder.finish()) {  // trailing line without '\n'
      handle_stream_line(server, decoder, std::move(*line), out_mutex);
    }
  }
  server.drain();
  std::cout.flush();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
  return 0;
}

#else

int run_stream(std::istream& in, Server& server) {
  std::mutex out_mutex;
  LineDecoder decoder;
  char buffer[4096];
  while (in) {
    in.read(buffer, sizeof(buffer));
    const std::streamsize n = in.gcount();
    if (n <= 0) {
      break;
    }
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (auto line = decoder.next()) {
      handle_stream_line(server, decoder, std::move(*line), out_mutex);
    }
  }
  while (auto line = decoder.finish()) {
    handle_stream_line(server, decoder, std::move(*line), out_mutex);
  }
  server.drain();
  std::cout.flush();
  return 0;
}

#endif  // DQMA_SERVE_POSIX

// ---------------------------------------------------------------------------
// Unix-domain socket transport.
// ---------------------------------------------------------------------------

#ifdef DQMA_SERVE_POSIX

/// One connected client: its fd, a partial-line buffer, and a write mutex
/// (the dispatcher thread answers accepted requests while the poll thread
/// answers rejected ones). Kept alive by shared_ptr captures in response
/// callbacks, so a client that disconnects with requests in flight is
/// still safe to "respond" to — the write just fails and is ignored.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { close_fd(); }

  void close_fd() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  void send_line(const std::string& response) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (fd < 0) {
      return;
    }
    std::string framed = response;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        return;  // peer gone; the response is undeliverable
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  int fd;
  LineDecoder decoder;  // bounded per-client reassembly buffer
  std::mutex write_mutex;
};

int run_socket(const std::string& path, Server& server) {
  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "dqma_serve: pipe failed: " << std::strerror(errno) << "\n";
    return 1;
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "dqma_serve: socket failed: " << std::strerror(errno)
              << "\n";
    return 1;
  }
  sockaddr_un address = {};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    std::cerr << "dqma_serve: socket path too long\n";
    return 1;
  }
  std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    std::cerr << "dqma_serve: bind/listen on '" << path
              << "' failed: " << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }

  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<pollfd> fds;
  char buffer[4096];

  while (g_stop == 0) {
    fds.clear();
    fds.push_back(pollfd{g_signal_pipe[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    for (const auto& connection : connections) {
      fds.push_back(pollfd{connection->fd, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) {
        continue;  // signal; loop condition re-checks g_stop
      }
      std::cerr << "dqma_serve: poll failed: " << std::strerror(errno)
                << "\n";
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      break;  // stop signal via self-pipe
    }
    if ((fds[1].revents & POLLIN) != 0) {
      const int client_fd = ::accept(listen_fd, nullptr, nullptr);
      if (client_fd >= 0) {
        connections.push_back(std::make_shared<Connection>(client_fd));
      }
    }
    // Walk backwards so erasing a dead connection keeps indices valid.
    for (std::size_t i = fds.size(); i-- > 2;) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const std::shared_ptr<Connection> connection = connections[i - 2];
      const ssize_t n = ::read(connection->fd, buffer, sizeof(buffer));
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
          continue;
        }
        connections.erase(connections.begin() +
                          static_cast<std::ptrdiff_t>(i - 2));
        continue;  // ~Connection (or in-flight captures) close the fd
      }
      connection->decoder.feed(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      while (auto line = connection->decoder.next()) {
        if (line->oversized) {
          connection->send_line(oversized_response(connection->decoder));
          continue;
        }
        if (line->text.empty()) {
          continue;
        }
        util::fault::point(util::fault::Site::kServe);
        server.submit(std::move(line->text),
                      [connection](std::string response) {
                        connection->send_line(response);
                      });
      }
    }
  }

  ::close(listen_fd);
  ::unlink(path.c_str());
  server.drain();  // answer everything accepted before dropping clients
  connections.clear();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
  return 0;
}

#endif  // DQMA_SERVE_POSIX

int serve_main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_options(argc, argv, options, error)) {
    std::cerr << "dqma_serve: " << error << "\n";
    print_usage(std::cerr);
    return 2;
  }
  if (options.help) {
    print_usage(std::cout);
    return 0;
  }
  // Resolve the kernel SIMD level now (DQMA_SIMD over CPU detection) so a
  // bad env value fails at startup instead of inside a request handler.
  try {
    linalg::simd::resolve_startup("");
  } catch (const std::exception& e) {
    std::cerr << "dqma_serve: " << e.what() << "\n";
    return 2;
  }

  register_builtin_workloads();
  if (options.list) {
    for (const Workload& workload : workloads()) {
      std::cout << workload.name << "  " << workload.description << "\n";
    }
    return 0;
  }

  install_signal_handlers();
  std::ios::sync_with_stdio(false);

  Server server(ServerConfig{options.threads, options.max_pending});
  int exit_code = 0;
  if (!options.socket_path.empty()) {
#ifdef DQMA_SERVE_POSIX
    exit_code = run_socket(options.socket_path, server);
#else
    std::cerr << "dqma_serve: --socket requires a POSIX platform\n";
    return 2;
#endif
  } else if (!options.input_path.empty()) {
#ifdef DQMA_SERVE_POSIX
    // Opening a FIFO blocks until a writer appears; a stop signal during
    // that wait (EINTR) is a clean no-requests shutdown, not an error.
    int fd = -1;
    do {
      fd = ::open(options.input_path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR && g_stop == 0);
    if (fd < 0 && g_stop == 0) {
      std::cerr << "dqma_serve: cannot open '" << options.input_path
                << "': " << std::strerror(errno) << "\n";
      return 1;
    }
    if (fd >= 0) {
      exit_code = run_stream_fd(fd, server);
      ::close(fd);
    }
#else
    std::ifstream in(options.input_path);
    if (!in) {
      std::cerr << "dqma_serve: cannot open '" << options.input_path
                << "'\n";
      return 1;
    }
    exit_code = run_stream(in, server);
#endif
  } else {
#ifdef DQMA_SERVE_POSIX
    exit_code = run_stream_fd(STDIN_FILENO, server);
#else
    exit_code = run_stream(std::cin, server);
#endif
  }

  server.shutdown();
  if (options.stats) {
    print_stats(server);
  }
  return exit_code;
}

}  // namespace
}  // namespace dqma::serve

int main(int argc, char** argv) {
  try {
    return dqma::serve::serve_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "dqma_serve: fatal: " << error.what() << "\n";
    return 1;
  }
}

#include "sva/serve/ingress.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sva/fault/fault.hpp"
#include "sva/serve/protocol.hpp"
#include "sva/util/error.hpp"
#include "sva/util/parse.hpp"

namespace sva::serve {

namespace {

/// EINTR-safe full write of `text` to `fd`; returns false on error.
bool write_all(int fd, std::string_view text) {
  const char* p = text.data();
  std::size_t left = text.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

sockaddr_un make_unix_addr(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  require(s.size() < sizeof(addr.sun_path),
          "unix socket path too long: " + s);
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

}  // namespace

std::string format_stats(const ServerStats& s) {
  std::string out = "ok stats";
  const auto kv = [&out](const char* key, std::uint64_t v) {
    out += ' ';
    out += key;
    out += '=';
    out += std::to_string(v);
  };
  // Backend name is a fixed token (thread|process|socket), so the line
  // keeps its key=value grammar.
  out += " backend=";
  out += s.backend;
  kv("world_size", s.world_size);
  kv("sweeps", s.sweeps);
  kv("queries_swept", s.queries_swept);
  kv("rejected", s.rejected);
  kv("reloads", s.reloads);
  kv("ingests", s.ingests);
  kv("generation", s.generation);
  kv("submitted", s.scheduler.submitted);
  kv("batches", s.scheduler.batches);
  kv("size_flushes", s.scheduler.size_flushes);
  kv("max_batch", s.scheduler.max_batch);
  kv("cache_hits", s.cache.hits);
  kv("cache_misses", s.cache.misses);
  kv("cache_evictions", s.cache.evictions);
  kv("cache_invalidations", s.cache.invalidations);
  kv("cache_entries", s.cache.entries);
  kv("deadline_expired", s.scheduler.expired);
  kv("world_failures", s.failures.world_failures);
  kv("respawns", s.failures.respawns);
  kv("in_flight_failed", s.failures.in_flight_failed);
  kv("client_retries", s.failures.client_retries);
  // The reason stays one token so the stats line keeps its key=value
  // grammar whatever the exception text held.
  std::string reason = s.failures.last_failure.empty() ? "none" : s.failures.last_failure;
  for (char& c : reason) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t' || c == '=') c = '_';
  }
  out += " last_failure=" + reason;
  return out;
}

std::string process_request_line(Server& server, std::string_view line, bool* shutdown) {
  // Retrying clients announce each attempt with a "# retry <n>" comment
  // (still a blank line to the grammar — no response owed); counting them
  // here covers both transports.
  if (line.rfind("# retry", 0) == 0) server.note_client_retry();
  std::string error;
  const auto request = parse_request_line(line, error);
  if (!request.has_value()) return format_error(error);

  switch (request->kind) {
    case Request::Kind::kBlank:
      return {};
    case Request::Kind::kPing:
      return "ok pong";
    case Request::Kind::kStats:
      return format_stats(server.stats());
    case Request::Kind::kShutdown:
      if (shutdown != nullptr) *shutdown = true;
      server.stop();
      return "ok shutting-down";
    case Request::Kind::kReload:
      try {
        server.reload(request->reload_path).get();
        return "ok reloaded";
      } catch (const std::exception& e) {
        return format_error(e.what());
      }
    case Request::Kind::kIngest:
      try {
        const auto report =
            server.ingest(request->ingest_docs, request->ingest_out).get();
        return "ok ingested generation=" + std::to_string(report.generation) +
               " added=" + std::to_string(report.new_records) +
               " recluster=" + (report.recluster_recommended ? "1" : "0");
      } catch (const std::exception& e) {
        return format_error(e.what());
      }
    case Request::Kind::kQuery:
      try {
        return format_result(server.submit(request->query).get());
      } catch (const std::exception& e) {
        return format_error(e.what());
      }
  }
  return format_error("unreachable request kind");
}

// ---- SocketIngress -----------------------------------------------------

SocketIngress::SocketIngress(Server& server, std::filesystem::path socket_path,
                             std::chrono::milliseconds idle_timeout)
    : server_(server),
      socket_path_(std::move(socket_path)),
      idle_timeout_(idle_timeout) {}

SocketIngress::~SocketIngress() { stop(); }

void SocketIngress::start() {
  require(listen_fd_ < 0, "SocketIngress::start: already started");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "socket(AF_UNIX) failed: " + std::string(std::strerror(errno)));
  const sockaddr_un addr = make_unix_addr(socket_path_);
  // A stale socket file from a dead daemon blocks bind; remove it first.
  std::filesystem::remove(socket_path_);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("bind(" + socket_path_.string() + ") failed: " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    std::filesystem::remove(socket_path_);
    throw Error("listen(" + socket_path_.string() + ") failed: " + std::strerror(err));
  }
  listen_fd_ = fd;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketIngress::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    threads.swap(client_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::filesystem::remove(socket_path_);
}

void SocketIngress::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal) — stop() joins us
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(clients_mutex_);
    client_fds_.push_back(fd);
    client_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void SocketIngress::serve_connection(int fd) {
  // A connection that goes silent between request bytes is closed after
  // the idle timeout — a wedged client must not pin this thread forever.
  if (idle_timeout_ > std::chrono::milliseconds::zero()) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(idle_timeout_.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((idle_timeout_.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  // Greet before reading anything: a peer from another build learns the
  // daemon's protocol version up front instead of diagnosing grammar
  // errors one line at a time.
  if (!write_all(fd, protocol_greeting() + "\n")) {
    ::close(fd);
    return;
  }
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // includes EAGAIN/EWOULDBLOCK: the idle timeout expired
    }
    if (n == 0) break;  // EOF
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      bool shutdown = false;
      std::string response;
      try {
        fault::point(fault::sites::kServeSocketLine);
        response = process_request_line(server_, line, &shutdown);
      } catch (const Error& e) {
        // An injected ingress fault answers like any other bad request —
        // the connection survives.
        response = format_error(e.what());
      }
      if (shutdown) shutdown_.store(true);
      if (!response.empty() && !write_all(fd, response + "\n")) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
}

// ---- FileQueueIngress --------------------------------------------------

FileQueueIngress::FileQueueIngress(Server& server, std::filesystem::path spool_dir,
                                   std::chrono::milliseconds poll_interval)
    : server_(server), spool_dir_(std::move(spool_dir)), poll_interval_(poll_interval) {}

FileQueueIngress::~FileQueueIngress() { stop(); }

void FileQueueIngress::start() {
  require(!poll_thread_.joinable(), "FileQueueIngress::start: already started");
  std::filesystem::create_directories(spool_dir_);
  // Requests claimed by a poller that died before answering must not
  // strand their clients: sweep them back before serving anything new.
  recover_stale_claims();
  stopping_.store(false);
  poll_thread_ = std::thread([this] { poll_loop(); });
}

void FileQueueIngress::stop() {
  if (!poll_thread_.joinable()) return;
  stopping_.store(true);
  poll_thread_.join();
}

std::size_t FileQueueIngress::recover_stale_claims() {
  std::size_t recovered = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(spool_dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    // A claim is `<stem>.req.claimed.<pid>`; the claiming pid is the
    // liveness witness.
    const std::string name = entry.path().filename().string();
    const std::size_t mark = name.rfind(".req.claimed.");
    if (mark == std::string::npos) continue;
    const auto pid = parse_u64(name.substr(mark + sizeof(".req.claimed.") - 1));
    if (!pid) continue;
    if (*pid == static_cast<std::uint64_t>(::getpid())) continue;  // ours, in flight
    if (::kill(static_cast<pid_t>(*pid), 0) == 0 || errno != ESRCH) {
      continue;  // claimer still alive (or unknowable) — leave it be
    }
    const std::filesystem::path back =
        entry.path().parent_path() / name.substr(0, mark + sizeof(".req") - 1);
    std::filesystem::rename(entry.path(), back, ec);
    if (!ec) ++recovered;
  }
  return recovered;
}

void FileQueueIngress::poll_loop() {
  std::uint64_t iterations = 0;
  while (!stopping_.load()) {
    // Periodic stale-claim sweep: a sibling poller can die at any time.
    if (iterations++ % 64 == 0) recover_stale_claims();
    bool worked = false;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(spool_dir_, ec)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".req") continue;
      handle_request_file(entry.path());
      worked = true;
    }
    if (!worked) std::this_thread::sleep_for(poll_interval_);
  }
}

void FileQueueIngress::handle_request_file(const std::filesystem::path& req) {
  // Claim by rename: a competing poller loses the race and skips.
  const std::filesystem::path claimed = req.string() + ".claimed." +
                                        std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::rename(req, claimed, ec);
  if (ec) return;

  try {
    // A kill action here dies holding the claim — exactly the stale
    // claim recover_stale_claims() exists to sweep.
    fault::point(fault::sites::kServeSpoolFile);
  } catch (const Error&) {
    // An injected error abandons the claim cleanly: hand the request
    // back so any poller (including us, next pass) can answer it.
    std::filesystem::rename(claimed, req, ec);
    return;
  }

  std::string responses;
  {
    std::ifstream in(claimed);
    std::string line;
    while (std::getline(in, line)) {
      bool shutdown = false;
      const std::string response = process_request_line(server_, line, &shutdown);
      if (shutdown) shutdown_.store(true);
      if (!response.empty()) {
        responses += response;
        responses += '\n';
      }
    }
  }

  // Atomic response drop: the client never observes a half-written file.
  std::filesystem::path resp = req;
  resp.replace_extension(".resp");
  const std::filesystem::path tmp = resp.string() + ".tmp." +
                                    std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << responses;
  }
  std::filesystem::rename(tmp, resp, ec);
  std::filesystem::remove(claimed, ec);
}

// ---- client helper -----------------------------------------------------

namespace {

/// One connect-send-collect pass (the pre-retry client_roundtrip).
std::vector<std::string> roundtrip_once(const std::filesystem::path& socket_path,
                                        const std::vector<std::string>& lines) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "socket(AF_UNIX) failed: " + std::string(std::strerror(errno)));
  const sockaddr_un addr = make_unix_addr(socket_path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("connect(" + socket_path.string() + ") failed: " + std::strerror(err));
  }

  std::string request;
  std::size_t expected = 0;
  for (const auto& line : lines) {
    request += line;
    request += '\n';
    // Count the lines that get a response exactly as the daemon decides
    // it: everything except a clean blank/comment/version-header parse.
    std::string error;
    const auto probe = parse_request_line(line, error);
    if (!probe.has_value() || probe->kind != Request::Kind::kBlank) ++expected;
  }
  if (!write_all(fd, request)) {
    const int err = errno;
    ::close(fd);
    throw Error("write to daemon failed: " + std::string(std::strerror(err)));
  }
  ::shutdown(fd, SHUT_WR);

  // The first line back is the daemon's version greeting, not a response;
  // validate it before trusting anything that follows.
  bool greeted = false;

  std::vector<std::string> responses;
  std::string buffer;
  char chunk[4096];
  try {
    while (!greeted || responses.size() < expected) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        if (!greeted) {
          check_peer_greeting(line);
          greeted = true;
        } else {
          responses.emplace_back(std::move(line));
        }
      }
      buffer.erase(0, start);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  require(greeted, "daemon closed the connection before greeting");
  require(responses.size() == expected,
          "daemon closed the connection early (" + std::to_string(responses.size()) +
              "/" + std::to_string(expected) + " responses)");
  return responses;
}

}  // namespace

std::vector<std::string> client_roundtrip(const std::filesystem::path& socket_path,
                                          const std::vector<std::string>& lines,
                                          const ClientRetryPolicy& retry) {
  // Only an all-idempotent batch may retry: re-running a query or a ping
  // is harmless, re-running a reload/ingest/shutdown is not.
  const bool retryable =
      std::all_of(lines.begin(), lines.end(),
                  [](const std::string& line) { return retry_safe_line(line); });
  const std::string failure_response = "error " + std::string(kWorldFailureMark);
  auto backoff = retry.backoff;

  for (int attempt = 0;; ++attempt) {
    std::vector<std::string> request = lines;
    if (attempt > 0) {
      // Announce the retry so the daemon's stats can count it; a comment
      // line is legal on every plane and owes no response.
      request.insert(request.begin(), "# retry " + std::to_string(attempt));
    }
    const bool last = !retryable || attempt + 1 >= retry.attempts;
    try {
      auto responses = roundtrip_once(socket_path, request);
      const bool world_failed =
          std::any_of(responses.begin(), responses.end(),
                      [&failure_response](const std::string& r) {
                        return r.rfind(failure_response, 0) == 0;
                      });
      if (!world_failed || last) return responses;
    } catch (const Error&) {
      // Transport failure: the daemon may be restarting its socket (or
      // the world died before answering) — retry rides the respawn.
      if (last) throw;
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, retry.backoff_max);
  }
}

}  // namespace sva::serve

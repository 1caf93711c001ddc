// Socket backend: ranks are processes connected over TCP — loopback for
// single-node worlds, different hosts when launchers share a rendezvous
// address.  The staged-exchange protocol of the shared-memory backends is
// re-expressed as framed send/recv (see sva/util/wire.hpp):
//
//   * Rendezvous/rank assignment — every rank binds an ephemeral data
//     listener, dials the rendezvous address, and sends a HELLO claiming
//     its rank; rank 0 (which owns the rendezvous listener) validates the
//     claims and answers each member with the WELCOME peer table
//     (host:port per rank).  The mesh then forms deterministically: rank i
//     connects to every j < i and accepts from every j > i.
//   * Collectives — publish() stages the contribution locally; sync/fence
//     send one framed message per peer carrying {vtime, parity, payload}
//     and wait until every peer's frame for the same sequence number has
//     arrived.  Received payloads are deposited as that parity's PeerSlot
//     (the two-data-round slot lifetime survives because a peer can run at
//     most one round ahead: completing round N+1 needs our round-N+1 frame,
//     which we only send after finishing round N).  The last-arriver
//     callback runs on *every* rank over the replicated slots — existing
//     callbacks only fold transport-local state, so results are identical.
//   * Partitioned allreduce — Context switches to reduce-scatter +
//     allgather on the wire (publish_to ships each peer only its element
//     block; a second framed round allgathers the folded blocks).
//   * Collective objects — no shared regions exist, so GlobalArray and the
//     task queues route through the one-sided window protocol: a request
//     frame to the owning rank is serviced by that rank's I/O thread
//     against rank-local state and answered with a reply frame.
//
// Concurrency: per rank, ONE I/O thread owns every socket.  It polls all
// peers (plus a self-pipe for wakeups), parses inbound frames, services
// one-sided requests, and drains per-peer outbound queues with
// non-blocking writes — the rank thread only ever enqueues frames and
// waits on condition variables, so no send/recv cycle can deadlock.
//
// Failure semantics: any rank's exception is recorded first-wins, the
// abort flag trips, and a best-effort ABORT frame carries the diagnostic
// to every peer (waiters poll the flag and throw).  Death is detected two
// ways: EOF/reset on a peer socket ("rank N died (connection closed)")
// and heartbeat silence ("rank N heartbeat lost") — both feed the same
// post_error machinery the serve supervisor already consumes.  Local
// children are additionally reaped like the process backend, so a
// SIGKILLed local rank reports its signal.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>

#include "sva/fault/fault.hpp"
#include "sva/util/error.hpp"
#include "sva/util/net.hpp"
#include "sva/util/timer.hpp"
#include "sva/util/wire.hpp"
#include "transport_impl.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

namespace sva::ga::detail {

namespace {

// Frame types on a rank-to-rank (or rendezvous) connection.
enum : std::uint8_t {
  kHello = 1,      // rank -> rendezvous: {proto, world_size, data_port}
  kWelcome = 2,    // rendezvous -> rank: peer table
  kPeerHello = 3,  // mesh: connecting rank identifies itself
  kSync = 4,       // arrival round with clock (+ optional payload)
  kFence = 5,      // arrival-only departure fence
  kFinal = 6,      // post-fn exchange of final virtual clocks
  kAbort = 7,      // world failure broadcast (payload = diagnostic text)
  kHeartbeat = 8,  // liveness
  kReq = 9,        // one-sided window request {window, body}
  kReply = 10,     // one-sided window reply (kFlagError => payload = text)
};

constexpr std::uint8_t kFlagError = 1;
// v2: the round prefix is padded to 16 bytes.
constexpr std::uint64_t kProtoVersion = 2;

// kSync/kFence payload prefix: f64 vtime, u8 parity, u8 has_payload, six
// zero bytes.  Received payloads are fresh heap buffers, so padding the
// prefix to 16 keeps every PeerSlot body aligned for any scalar type the
// typed collectives read in place.
constexpr std::size_t kRoundPrefix = 16;

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

void put_f64(std::uint8_t* out, double v) { std::memcpy(out, &v, sizeof v); }

double get_f64(const std::uint8_t* in) {
  double v;
  std::memcpy(&v, in, sizeof v);
  return v;
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

/// TCP mesh transport.  Constructed *unconnected* pre-fork (node 0 binds
/// the rendezvous listener so forked ranks inherit a live backlog); each
/// rank process then calls connect_as(rank) to perform the rendezvous and
/// build its mesh.  All state is rank-process-local.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(const SpmdOptions& options)
      : Transport(options.nprocs), options_(options) {
    require(options_.socket_nodes >= 1,
            "socket backend: socket_nodes must be >= 1");
    require(options_.socket_node >= 0 &&
                options_.socket_node < options_.socket_nodes,
            "socket backend: socket_node out of range [0, socket_nodes)");
    require(options_.nprocs >= options_.socket_nodes,
            "socket backend: nprocs must be >= socket_nodes");
    require(options_.socket_nodes == 1 || !options_.socket_rendezvous.empty(),
            "socket backend: multi-node worlds need an explicit "
            "rendezvous host:port");
    const auto np = static_cast<std::size_t>(nprocs_);
    for (auto& s : slots_) s.assign(np, PeerSlot{});
    for (auto& s : recv_store_) s.resize(np);
    round_vtimes_.resize(np);
    final_vtimes_.assign(np, 0.0);
    final_seen_.assign(np, 0);
    fds_.assign(np, -1);
    rbuf_.resize(np);
    rbuf_off_.assign(np, 0);
    out_q_.resize(np);
    out_off_.assign(np, 0);
    if (nprocs_ > 1) {
      if (options_.socket_node == 0) {
        if (options_.socket_rendezvous.empty()) {
          rdv_fd_ = net::listen_tcp("127.0.0.1", 0);
          rdv_host_ = "127.0.0.1";
          rdv_port_ = net::local_port(rdv_fd_);
        } else {
          const auto hp =
              net::parse_hostport(options_.socket_rendezvous, true);
          rdv_fd_ = net::listen_tcp(hp.host, hp.port);
          rdv_port_ = hp.port != 0 ? hp.port : net::local_port(rdv_fd_);
          rdv_host_ = (hp.host == "0.0.0.0" || hp.host == "*")
                          ? std::string("127.0.0.1")
                          : hp.host;
        }
      } else {
        const auto hp = net::parse_hostport(options_.socket_rendezvous);
        rdv_host_ = hp.host;
        rdv_port_ = hp.port;
      }
    }
  }

  ~SocketTransport() override {
    disconnect();
    net::close_fd(rdv_fd_);
  }

  [[nodiscard]] const SpmdOptions& options() const { return options_; }

  // ---- Transport seam --------------------------------------------------

  [[nodiscard]] Backend backend() const override { return Backend::kSocket; }
  [[nodiscard]] bool shared_regions() const override { return false; }
  [[nodiscard]] bool shared_combine() const override { return false; }

  void publish(std::uint32_t parity, int rank, const void* data,
               std::size_t bytes, bool /*copy*/) override {
    check_frame_size(bytes);
    const std::uint32_t p = parity & 1u;
    auto& st = out_stage_[p];
    st.resize(bytes);
    if (bytes > 0) std::memcpy(st.data(), data, bytes);
    slots_[p][static_cast<std::size_t>(rank)] = PeerSlot{st.data(), bytes, true};
    pending_ = Pending::kBroadcast;
    pending_parity_ = p;
  }

  void publish_to(std::uint32_t parity, int rank, int dst, const void* data,
                  std::size_t bytes) override {
    check_frame_size(bytes);
    const std::uint32_t p = parity & 1u;
    if (dst == rank) {
      auto& st = self_slice_[p];
      st.resize(bytes);
      if (bytes > 0) std::memcpy(st.data(), data, bytes);
      slots_[p][static_cast<std::size_t>(rank)] =
          PeerSlot{st.data(), bytes, true};
    } else {
      auto& st = out_slices_[static_cast<std::size_t>(dst)];
      st.resize(bytes);
      if (bytes > 0) std::memcpy(st.data(), data, bytes);
    }
    pending_ = Pending::kSliced;
    pending_parity_ = p;
  }

  [[nodiscard]] const PeerSlot* peers(std::uint32_t parity) const override {
    return slots_[parity & 1u].data();
  }

  double sync(int rank, double vtime, RoundFn on_last, void* arg) override {
    const double mx = round_trip(kSync, rank, vtime);
    if (on_last != nullptr) on_last(arg);  // every rank; slots are replicated
    throw_if_aborted();
    return mx;
  }

  void fence(int rank) override {
    round_trip(kFence, rank, 0.0);
    throw_if_aborted();
  }

  void ensure_reduce_capacity(std::size_t bytes) override {
    if (reduce_buf_.size() < bytes) reduce_buf_.resize(bytes);
  }
  [[nodiscard]] void* reduce_base() override { return reduce_buf_.data(); }

  bool post_error(const char* what) override {
    bool first = false;
    {
      std::lock_guard<std::mutex> g(error_mutex_);
      if (!error_posted_) {
        error_posted_ = true;
        error_text_ = what;
        first = true;
      }
    }
    // Text is recorded before the flag trips, so a rank that observes the
    // abort always finds the *first* diagnostic, never its own secondary
    // "aborted by a peer" message.
    aborted_.store(1, std::memory_order_release);
    cv_.notify_all();
    if (first && connected_ && !shutting_down_.load(std::memory_order_acquire)) {
      std::vector<std::uint8_t> text;
      {
        std::lock_guard<std::mutex> g(error_mutex_);
        text.assign(error_text_.begin(), error_text_.end());
      }
      for (int q = 0; q < nprocs_; ++q) {
        if (q == my_rank_) continue;
        enqueue_frame(q, wire::make_frame(kAbort, 0,
                                          static_cast<std::uint16_t>(my_rank_),
                                          0, text));
      }
      wake_io();
    }
    return first;
  }

  [[nodiscard]] bool aborted() const override {
    return aborted_.load(std::memory_order_acquire) != 0;
  }

  [[nodiscard]] std::string error_text() const override {
    std::lock_guard<std::mutex> g(error_mutex_);
    return error_posted_ ? error_text_ : std::string("unknown failure");
  }

  [[nodiscard]] const std::atomic<std::uint32_t>* abort_word() const override {
    return &aborted_;
  }

  std::shared_ptr<void> create_region(int /*rank*/, std::size_t /*bytes*/) override {
    throw ProtocolError(
        "SocketTransport has no shared memory: collective objects must use "
        "the one-sided window protocol (GlobalArray and the task queues do "
        "this automatically)");
  }

  std::uint64_t onesided_register(OneSidedHandler handler) override {
    std::lock_guard<std::mutex> g(windows_mu_);
    const std::uint64_t id = next_window_++;
    if (handler) windows_[id] = std::move(handler);
    return id;
  }

  void onesided_unregister(std::uint64_t window) override {
    // Blocks until no handler is mid-run (the I/O thread services requests
    // while holding windows_mu_), so destroying a collective object cannot
    // free state under a live handler.
    std::lock_guard<std::mutex> g(windows_mu_);
    windows_.erase(window);
  }

  void onesided_call(int owner, std::uint64_t window, const void* req,
                     std::size_t len, std::vector<std::uint8_t>& reply) override {
    if (owner == my_rank_ || nprocs_ == 1) {
      OneSidedHandler handler;
      {
        std::lock_guard<std::mutex> g(windows_mu_);
        const auto it = windows_.find(window);
        require(it != windows_.end(),
                "onesided_call: unregistered local window");
        handler = it->second;
      }
      handler(static_cast<const std::uint8_t*>(req), len, reply);
      return;
    }
    check_frame_size(len + 8);
    const std::uint64_t id = ++req_seq_;
    std::vector<std::uint8_t> payload(8 + len);
    put_u64(payload.data(), window);
    if (len > 0) std::memcpy(payload.data() + 8, req, len);
    enqueue_frame(owner, wire::make_frame(kReq, 0,
                                          static_cast<std::uint16_t>(my_rank_),
                                          id, payload));
    wake_io();
    std::unique_lock<std::mutex> lk(mu_);
    while (replies_.find(id) == replies_.end()) {
      throw_if_aborted();
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
    Reply r = std::move(replies_[id]);
    replies_.erase(id);
    lk.unlock();
    if (r.error) {
      throw ProtocolError("one-sided request to rank " + std::to_string(owner) +
                          " failed: " +
                          std::string(r.bytes.begin(), r.bytes.end()));
    }
    reply = std::move(r.bytes);
  }

  // ---- runner hooks ----------------------------------------------------

  /// Performs the rendezvous handshake and builds the peer mesh for
  /// `rank`, then starts the I/O thread.  Called once per rank process.
  void connect_as(int rank) {
    my_rank_ = rank;
    if (nprocs_ == 1) {
      connected_ = true;
      return;
    }
    fault::point(fault::sites::kSocketConnect);
    const int tmo = options_.socket_connect_timeout_ms;
    if (rank != 0 && rdv_fd_ >= 0) {
      // The inherited rendezvous listener belongs to rank 0.
      net::close_fd(rdv_fd_);
      rdv_fd_ = -1;
    }
    const int lfd = net::listen_tcp("0.0.0.0", 0);
    const std::uint16_t data_port = net::local_port(lfd);

    // HELLO: claim our rank and advertise the data listener.  The
    // rendezvous listener was bound (and listening) before the fork, so
    // connections queue in its backlog even before rank 0 starts
    // accepting — no startup race.
    const int rfd = net::connect_tcp(rdv_host_, rdv_port_, tmo);
    std::array<std::uint8_t, 24> hello{};
    put_u64(hello.data(), kProtoVersion);
    put_u64(hello.data() + 8, static_cast<std::uint64_t>(nprocs_));
    put_u64(hello.data() + 16, data_port);
    send_frame_blocking(rfd, wire::make_frame(
                                 kHello, 0, static_cast<std::uint16_t>(rank),
                                 0, hello));
    if (rank == 0) rendezvous_serve();

    // WELCOME: the peer table.
    auto [wh, wpay] = recv_frame_blocking(rfd, tmo);
    net::close_fd(rfd);
    if (wh.type != kWelcome ||
        wpay.size() < 8 + static_cast<std::size_t>(nprocs_) * 16)
      throw Error("rendezvous: malformed welcome");
    if (get_u64(wpay.data()) != static_cast<std::uint64_t>(nprocs_))
      throw Error("rendezvous: world size mismatch in welcome");
    std::vector<std::string> hosts(static_cast<std::size_t>(nprocs_));
    std::vector<std::uint16_t> ports(static_cast<std::size_t>(nprocs_));
    std::size_t off = 8;
    for (int r = 0; r < nprocs_; ++r) {
      if (off + 16 > wpay.size()) throw Error("rendezvous: truncated welcome");
      const std::uint64_t hlen = get_u64(wpay.data() + off);
      const std::uint64_t port = get_u64(wpay.data() + off + 8);
      off += 16;
      if (off + hlen > wpay.size() || port == 0 || port > 65535)
        throw Error("rendezvous: truncated welcome");
      hosts[static_cast<std::size_t>(r)].assign(
          reinterpret_cast<const char*>(wpay.data() + off),
          static_cast<std::size_t>(hlen));
      ports[static_cast<std::size_t>(r)] = static_cast<std::uint16_t>(port);
      off += hlen;
    }

    // Mesh: connect downward, accept upward.
    for (int j = 0; j < rank; ++j) {
      const int fd = net::connect_tcp(hosts[static_cast<std::size_t>(j)],
                                      ports[static_cast<std::size_t>(j)], tmo);
      send_frame_blocking(
          fd, wire::make_frame(kPeerHello, 0,
                               static_cast<std::uint16_t>(rank), 0, {}));
      fds_[static_cast<std::size_t>(j)] = fd;
    }
    for (int a = rank + 1; a < nprocs_; ++a) {
      const int fd = net::accept_tcp(lfd, tmo, nullptr);
      auto [ph, ppay] = recv_frame_blocking(fd, tmo);
      if (ph.type != kPeerHello || ph.src >= nprocs_ ||
          fds_[ph.src] >= 0 || ph.src == static_cast<std::uint16_t>(rank))
        throw Error("mesh: unexpected peer hello");
      fds_[ph.src] = fd;
    }
    net::close_fd(lfd);
    if (rank == 0 && rdv_fd_ >= 0) {
      net::close_fd(rdv_fd_);
      rdv_fd_ = -1;
    }
    for (int q = 0; q < nprocs_; ++q) {
      if (fds_[static_cast<std::size_t>(q)] >= 0)
        net::set_nonblocking(fds_[static_cast<std::size_t>(q)], true);
    }
    if (::pipe2(wake_pipe_, O_NONBLOCK) != 0)
      throw Error(errno_text("socket transport: pipe2"));
    io_stop_.store(false, std::memory_order_release);
    io_thread_ = std::thread([this] { io_loop(); });
    connected_ = true;
  }

  /// Post-fn teardown: exchanges final virtual clocks (kFinal round),
  /// marks the shutdown so peer EOFs stop counting as death, and runs a
  /// farewell fence so every rank holds every frame before sockets close.
  /// Never throws — an abort mid-teardown just means the world already
  /// failed.  Returns the per-rank final clocks (valid when !aborted()).
  std::vector<double> finish_world(int rank, double final_vtime) {
    std::vector<double> out(static_cast<std::size_t>(nprocs_), final_vtime);
    if (nprocs_ == 1 || !connected_ || aborted()) return out;
    try {
      const std::uint64_t seq = ++seq_;
      std::array<std::uint8_t, 8> v{};
      put_f64(v.data(), final_vtime);
      for (int q = 0; q < nprocs_; ++q) {
        if (q == my_rank_) continue;
        enqueue_frame(q, wire::make_frame(kFinal, 0,
                                          static_cast<std::uint16_t>(my_rank_),
                                          seq, v));
      }
      wake_io();
      {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
          bool all = true;
          for (int q = 0; q < nprocs_; ++q) {
            if (q != my_rank_ && final_seen_[static_cast<std::size_t>(q)] == 0)
              all = false;
          }
          if (all) break;
          throw_if_aborted();
          cv_.wait_for(lk, std::chrono::milliseconds(50));
        }
        for (int q = 0; q < nprocs_; ++q) {
          if (q != my_rank_)
            out[static_cast<std::size_t>(q)] =
                final_vtimes_[static_cast<std::size_t>(q)];
        }
      }
      shutting_down_.store(true, std::memory_order_release);
      fence(rank);
    } catch (...) {
      // World aborted mid-teardown; the caller checks aborted().
    }
    return out;
  }

  /// Stops the I/O thread (after draining pending outbound frames) and
  /// closes every socket.  Safe to call repeatedly.
  void disconnect() {
    shutting_down_.store(true, std::memory_order_release);
    if (io_thread_.joinable()) {
      // A rank leaving an aborted world repeats the diagnostic it recorded
      // ahead of its close.  A peer parses a socket's buffered frames
      // before its EOF, so it learns the first failure instead of taking
      // this exit for a death when the thrower's own frame is still in
      // flight on another socket.
      if (aborted()) {
        const std::string text = error_text();
        const std::vector<std::uint8_t> payload(text.begin(), text.end());
        const auto frame =
            wire::make_frame(kAbort, 0, static_cast<std::uint16_t>(my_rank_), 0, payload);
        for (int q = 0; q < nprocs_; ++q) {
          if (q != my_rank_) enqueue_frame(q, frame);
        }
        wake_io();
      }
      // Let the farewell frames reach the wire before closing.
      const std::int64_t deadline = now_ms() + 2000;
      while (now_ms() < deadline) {
        std::unique_lock<std::mutex> lk(out_mu_);
        bool empty = true;
        for (const auto& dq : out_q_) empty = empty && dq.empty();
        lk.unlock();
        if (empty) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      io_stop_.store(true, std::memory_order_release);
      wake_io();
      io_thread_.join();
    }
    for (auto& fd : fds_) {
      net::close_fd(fd);
      fd = -1;
    }
    net::close_fd(wake_pipe_[0]);
    net::close_fd(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    connected_ = false;
  }

 private:
  enum class Pending { kNone, kBroadcast, kSliced };

  struct Reply {
    bool error = false;
    std::vector<std::uint8_t> bytes;
  };

  void check_frame_size(std::size_t bytes) const {
    if (bytes > options_.socket_max_frame_bytes) {
      throw ProtocolError(
          "SocketTransport: contribution of " + std::to_string(bytes) +
          " bytes exceeds the frame limit of " +
          std::to_string(options_.socket_max_frame_bytes) +
          " bytes; raise SpmdOptions::socket_max_frame_bytes");
    }
  }

  void throw_if_aborted() const {
    if (aborted()) throw ProtocolError("SPMD world aborted by a peer rank");
  }

  // One arrival round: frame every peer, wait for every peer's frame of
  // the same sequence number, fold the clock max.  kFence sends vtime 0
  // and ignores the fold.  The staged payload (if any) rides along on
  // kSync frames; kSliced payloads differ per destination.
  double round_trip(std::uint8_t type, int rank, double vtime) {
    fault::point(fault::sites::kSocketSend);
    const Pending pending = pending_;
    const std::uint32_t p = pending_parity_;
    pending_ = Pending::kNone;
    if (nprocs_ == 1) return vtime;
    const std::uint64_t seq = ++seq_;
    std::vector<std::uint8_t> payload;
    for (int q = 0; q < nprocs_; ++q) {
      if (q == my_rank_) continue;
      payload.clear();
      payload.resize(kRoundPrefix);
      put_f64(payload.data(), vtime);
      payload[8] = static_cast<std::uint8_t>(p);
      const std::vector<std::uint8_t>* body = nullptr;
      if (type == kSync && pending == Pending::kBroadcast) {
        body = &out_stage_[p];
      } else if (type == kSync && pending == Pending::kSliced) {
        body = &out_slices_[static_cast<std::size_t>(q)];
      }
      payload[9] = body != nullptr ? 1 : 0;
      if (body != nullptr)
        payload.insert(payload.end(), body->begin(), body->end());
      enqueue_frame(q, wire::make_frame(type, 0,
                                        static_cast<std::uint16_t>(rank), seq,
                                        payload));
    }
    wake_io();
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      bool all = true;
      for (int q = 0; q < nprocs_; ++q) {
        if (q == my_rank_) continue;
        if (round_vtimes_[static_cast<std::size_t>(q)].count(seq) == 0) {
          all = false;
          break;
        }
      }
      if (all) break;
      throw_if_aborted();
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
    double mx = vtime;
    for (int q = 0; q < nprocs_; ++q) {
      if (q == my_rank_) continue;
      auto& m = round_vtimes_[static_cast<std::size_t>(q)];
      const auto it = m.find(seq);
      mx = std::max(mx, it->second);
      m.erase(it);
    }
    return mx;
  }

  void enqueue_frame(int dst, std::vector<std::uint8_t> frame) {
    std::lock_guard<std::mutex> g(out_mu_);
    // A closed peer can never drain its queue; dropping the frame keeps
    // disconnect()'s farewell drain from waiting out its full deadline.
    if (fds_[static_cast<std::size_t>(dst)] < 0) return;
    out_q_[static_cast<std::size_t>(dst)].push_back(std::move(frame));
  }

  void wake_io() {
    if (wake_pipe_[1] >= 0) {
      const char b = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &b, 1);
    }
  }

  // ---- handshake helpers (blocking; setup only) ------------------------

  void send_frame_blocking(int fd, const std::vector<std::uint8_t>& frame) {
    net::send_all(fd, frame.data(), frame.size());
  }

  std::pair<wire::FrameHeader, std::vector<std::uint8_t>> recv_frame_blocking(
      int fd, int timeout_ms) {
    std::array<std::uint8_t, wire::kFrameHeaderBytes> hdr{};
    net::recv_all(fd, hdr.data(), hdr.size(), timeout_ms);
    const auto h =
        wire::decode_frame_header({hdr.data(), hdr.size()},
                                  options_.socket_max_frame_bytes);
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(h.len));
    if (h.len > 0) net::recv_all(fd, payload.data(), payload.size(), timeout_ms);
    return {h, std::move(payload)};
  }

  /// Rank 0: accepts one HELLO per rank, validates the claims, and
  /// answers every member with the peer table.  Hosts come from
  /// getpeername at accept time, so single-node worlds advertise
  /// 127.0.0.1 and multi-host worlds advertise each rank's routable
  /// source address with no extra configuration.
  void rendezvous_serve() {
    const int tmo = options_.socket_connect_timeout_ms;
    struct Member {
      int fd = -1;
      std::string host;
      std::uint16_t data_port = 0;
      bool seen = false;
    };
    std::vector<Member> members(static_cast<std::size_t>(nprocs_));
    for (int i = 0; i < nprocs_; ++i) {
      std::string peer_host;
      const int cfd = net::accept_tcp(rdv_fd_, tmo, &peer_host);
      auto [h, pay] = recv_frame_blocking(cfd, tmo);
      if (h.type != kHello || pay.size() != 24)
        throw Error("rendezvous: malformed hello");
      if (get_u64(pay.data()) != kProtoVersion)
        throw Error("rendezvous: protocol version mismatch (peer speaks v" +
                    std::to_string(get_u64(pay.data())) + ", expected v" +
                    std::to_string(kProtoVersion) + ")");
      if (get_u64(pay.data() + 8) != static_cast<std::uint64_t>(nprocs_))
        throw Error("rendezvous: world size mismatch (peer claims " +
                    std::to_string(get_u64(pay.data() + 8)) + ", expected " +
                    std::to_string(nprocs_) + ")");
      if (h.src >= nprocs_ || members[h.src].seen)
        throw Error("rendezvous: duplicate or out-of-range rank " +
                    std::to_string(h.src));
      auto& m = members[h.src];
      m.fd = cfd;
      m.host = peer_host;
      m.data_port = static_cast<std::uint16_t>(get_u64(pay.data() + 16));
      m.seen = true;
    }
    std::vector<std::uint8_t> table;
    table.resize(8);
    put_u64(table.data(), static_cast<std::uint64_t>(nprocs_));
    for (const auto& m : members) {
      std::array<std::uint8_t, 16> ent{};
      put_u64(ent.data(), m.host.size());
      put_u64(ent.data() + 8, m.data_port);
      table.insert(table.end(), ent.begin(), ent.end());
      table.insert(table.end(), m.host.begin(), m.host.end());
    }
    for (const auto& m : members) {
      send_frame_blocking(m.fd, wire::make_frame(kWelcome, 0, 0, 0, table));
      net::close_fd(m.fd);
    }
  }

  // ---- I/O thread ------------------------------------------------------

  void io_loop() {
    const int hb_ms = std::max(options_.socket_heartbeat_ms, 1);
    const std::int64_t hb_timeout =
        std::max<std::int64_t>(options_.socket_heartbeat_timeout_ms, 2 * hb_ms);
    std::vector<std::int64_t> last_seen(static_cast<std::size_t>(nprocs_),
                                        now_ms());
    std::int64_t last_beat = now_ms();
    std::vector<pollfd> pfds;
    std::vector<int> pranks;
    std::vector<std::uint8_t> chunk(1 << 16);
    while (!io_stop_.load(std::memory_order_acquire)) {
      pfds.clear();
      pranks.clear();
      pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
      pranks.push_back(-1);
      {
        std::lock_guard<std::mutex> g(out_mu_);
        for (int q = 0; q < nprocs_; ++q) {
          const auto uq = static_cast<std::size_t>(q);
          if (q == my_rank_ || fds_[uq] < 0) continue;
          short ev = POLLIN;
          if (!out_q_[uq].empty()) ev = static_cast<short>(ev | POLLOUT);
          pfds.push_back(pollfd{fds_[uq], ev, 0});
          pranks.push_back(q);
        }
      }
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
             std::min(hb_ms, 100));
      if ((pfds[0].revents & POLLIN) != 0) {
        char buf[256];
        while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
        }
      }
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        const int q = pranks[i];
        if (fds_[static_cast<std::size_t>(q)] < 0) continue;
        if ((pfds[i].revents & POLLOUT) != 0) flush_out(q);
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          if (!drain_in(q, chunk, last_seen)) continue;
        }
      }
      // Opportunistic flush for frames enqueued while handling input
      // (one-sided replies); anything left rides the next POLLOUT.
      for (int q = 0; q < nprocs_; ++q) {
        if (q != my_rank_ && fds_[static_cast<std::size_t>(q)] >= 0)
          flush_out(q);
      }
      const std::int64_t now = now_ms();
      if (now - last_beat >= hb_ms) {
        last_beat = now;
        try {
          fault::point(fault::sites::kSocketHeartbeat);
        } catch (const Error& e) {
          post_error(e.what());
        }
        for (int q = 0; q < nprocs_; ++q) {
          if (q != my_rank_ && fds_[static_cast<std::size_t>(q)] >= 0) {
            enqueue_frame(q, wire::make_frame(
                                 kHeartbeat, 0,
                                 static_cast<std::uint16_t>(my_rank_), 0, {}));
          }
        }
      }
      if (!shutting_down_.load(std::memory_order_acquire) && !aborted()) {
        for (int q = 0; q < nprocs_; ++q) {
          const auto uq = static_cast<std::size_t>(q);
          if (q == my_rank_ || fds_[uq] < 0) continue;
          if (now - last_seen[uq] > hb_timeout) {
            post_error(("rank " + std::to_string(q) +
                        " heartbeat lost after " + std::to_string(hb_timeout) +
                        " ms (socket_heartbeat_timeout_ms)")
                           .c_str());
          }
        }
      }
    }
  }

  void flush_out(int q) {
    const auto uq = static_cast<std::size_t>(q);
    bool dead = false;
    std::string why;
    {
      std::lock_guard<std::mutex> g(out_mu_);
      auto& dq = out_q_[uq];
      while (!dq.empty() && fds_[uq] >= 0) {
        const auto& f = dq.front();
        while (out_off_[uq] < f.size()) {
          const ssize_t n =
              ::send(fds_[uq], f.data() + out_off_[uq],
                     f.size() - out_off_[uq], MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n > 0) {
            out_off_[uq] += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
          if (n < 0 && errno == EINTR) continue;
          dead = true;
          why = errno_text("send failed");
          break;
        }
        if (dead) break;
        dq.pop_front();
        out_off_[uq] = 0;
      }
    }
    if (dead) peer_down(q, why.c_str());
  }

  /// Non-blocking read of everything available from peer `q`, then frame
  /// parsing.  Returns false when the peer is gone (frames already
  /// buffered are still parsed first, so a farewell racing an EOF never
  /// loses data).
  bool drain_in(int q, std::vector<std::uint8_t>& chunk,
                std::vector<std::int64_t>& last_seen) {
    const auto uq = static_cast<std::size_t>(q);
    bool eof = false;
    std::string why = "connection closed";
    for (;;) {
      const ssize_t n =
          ::recv(fds_[uq], chunk.data(), chunk.size(), MSG_DONTWAIT);
      if (n > 0) {
        rbuf_[uq].insert(rbuf_[uq].end(), chunk.data(), chunk.data() + n);
        last_seen[uq] = now_ms();
        if (static_cast<std::size_t>(n) < chunk.size()) break;
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      eof = true;
      why = errno_text("connection error");
      break;
    }
    if (!parse_frames(q)) return false;
    if (eof) {
      peer_down(q, why.c_str());
      return false;
    }
    return true;
  }

  bool parse_frames(int q) {
    const auto uq = static_cast<std::size_t>(q);
    auto& buf = rbuf_[uq];
    auto& off = rbuf_off_[uq];
    while (buf.size() - off >= wire::kFrameHeaderBytes) {
      wire::FrameHeader h;
      try {
        fault::point(fault::sites::kSocketRecv);
        h = wire::decode_frame_header({buf.data() + off, buf.size() - off},
                                      options_.socket_max_frame_bytes);
        if (h.src != static_cast<std::uint16_t>(q))
          throw FormatError("frame claims src rank " + std::to_string(h.src));
      } catch (const Error& e) {
        post_error(("rank " + std::to_string(q) + " stream corrupt: " +
                    e.what())
                       .c_str());
        flush_out(q);  // let the kAbort outrun the close (see corrupt())
        close_peer(q);
        return false;
      }
      const std::size_t need =
          wire::kFrameHeaderBytes + static_cast<std::size_t>(h.len);
      if (buf.size() - off < need) break;
      std::vector<std::uint8_t> payload(
          buf.begin() + static_cast<std::ptrdiff_t>(off + wire::kFrameHeaderBytes),
          buf.begin() + static_cast<std::ptrdiff_t>(off + need));
      off += need;
      if (!handle_frame(q, h, std::move(payload))) return false;
      if (fds_[uq] < 0) return false;
    }
    if (off > 0 && (off == buf.size() || off > (1u << 20))) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
      off = 0;
    }
    return true;
  }

  bool handle_frame(int q, const wire::FrameHeader& h,
                    std::vector<std::uint8_t> payload) {
    const auto uq = static_cast<std::size_t>(q);
    switch (h.type) {
      case kSync:
      case kFence: {
        if (payload.size() < kRoundPrefix) return corrupt(q, "short round frame");
        {
          std::lock_guard<std::mutex> g(mu_);
          const double v = get_f64(payload.data());
          const std::uint32_t p = payload[8] & 1u;
          if (payload[9] != 0) {
            auto& store = recv_store_[p][uq];
            store = std::move(payload);
            slots_[p][uq] = PeerSlot{store.data() + kRoundPrefix,
                                     store.size() - kRoundPrefix, true};
          }
          round_vtimes_[uq][h.seq] = v;
        }
        cv_.notify_all();
        return true;
      }
      case kFinal: {
        if (payload.size() != 8) return corrupt(q, "short final frame");
        {
          std::lock_guard<std::mutex> g(mu_);
          final_vtimes_[uq] = get_f64(payload.data());
          final_seen_[uq] = 1;
        }
        cv_.notify_all();
        return true;
      }
      case kAbort: {
        {
          std::lock_guard<std::mutex> g(error_mutex_);
          if (!error_posted_) {
            error_posted_ = true;
            error_text_ = payload.empty()
                              ? "rank " + std::to_string(q) + " aborted"
                              : std::string(payload.begin(), payload.end());
          }
        }
        aborted_.store(1, std::memory_order_release);
        cv_.notify_all();
        return true;
      }
      case kHeartbeat:
        return true;
      case kReq:
        return handle_req(q, h, payload);
      case kReply: {
        {
          std::lock_guard<std::mutex> g(mu_);
          Reply r;
          r.error = (h.flags & kFlagError) != 0;
          r.bytes = std::move(payload);
          replies_[h.seq] = std::move(r);
        }
        cv_.notify_all();
        return true;
      }
      default:
        return corrupt(q, "unknown frame type");
    }
  }

  bool handle_req(int q, const wire::FrameHeader& h,
                  const std::vector<std::uint8_t>& payload) {
    if (payload.size() < 8) return corrupt(q, "short one-sided request");
    const std::uint64_t window = get_u64(payload.data());
    std::vector<std::uint8_t> rep;
    std::uint8_t flags = 0;
    {
      std::lock_guard<std::mutex> g(windows_mu_);
      const auto it = windows_.find(window);
      if (it == windows_.end()) {
        flags = kFlagError;
        const std::string msg =
            "one-sided request to unregistered window " +
            std::to_string(window) + " (destroyed collective object?)";
        rep.assign(msg.begin(), msg.end());
      } else {
        try {
          it->second(payload.data() + 8, payload.size() - 8, rep);
        } catch (const std::exception& e) {
          flags = kFlagError;
          const std::string msg = e.what();
          rep.assign(msg.begin(), msg.end());
        }
      }
    }
    enqueue_frame(q, wire::make_frame(kReply, flags,
                                      static_cast<std::uint16_t>(my_rank_),
                                      h.seq, rep));
    return true;
  }

  bool corrupt(int q, const char* what) {
    post_error(("rank " + std::to_string(q) + " stream corrupt: " + what)
                   .c_str());
    // Best-effort flush so the kAbort just enqueued for q outruns the
    // close — at P=2 this connection is the only path the diagnostic has.
    flush_out(q);
    close_peer(q);
    return false;
  }

  void close_peer(int q) {
    const auto uq = static_cast<std::size_t>(q);
    {
      std::lock_guard<std::mutex> g(out_mu_);
      net::close_fd(fds_[uq]);
      fds_[uq] = -1;
      out_q_[uq].clear();
      out_off_[uq] = 0;
    }
    cv_.notify_all();
  }

  void peer_down(int q, const char* why) {
    close_peer(q);
    if (shutting_down_.load(std::memory_order_acquire) ||
        io_stop_.load(std::memory_order_acquire) || aborted()) {
      cv_.notify_all();
      return;
    }
    post_error(("rank " + std::to_string(q) + " died (" + why + ")").c_str());
  }

  // ---- state -----------------------------------------------------------

  SpmdOptions options_;

  // Rendezvous (bound pre-fork on node 0 so ranks inherit the backlog).
  int rdv_fd_ = -1;
  std::string rdv_host_;
  std::uint16_t rdv_port_ = 0;

  // Rank-process connection state.
  int my_rank_ = -1;
  bool connected_ = false;
  std::vector<int> fds_;  // per peer; -1 = self or closed
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  std::atomic<bool> io_stop_{false};
  std::atomic<bool> shutting_down_{false};

  // Inbound reassembly (I/O thread only).
  std::vector<std::vector<std::uint8_t>> rbuf_;
  std::vector<std::size_t> rbuf_off_;

  // Outbound queues: every write funnels through the I/O thread.
  std::mutex out_mu_;
  std::vector<std::deque<std::vector<std::uint8_t>>> out_q_;
  std::vector<std::size_t> out_off_;

  // Round/reply rendezvous between the rank thread and the I/O thread.
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t seq_ = 0;      // rank thread only
  std::uint64_t req_seq_ = 0;  // rank thread only
  std::vector<std::map<std::uint64_t, double>> round_vtimes_;  // per peer
  std::array<std::vector<std::vector<std::uint8_t>>, 2> recv_store_;
  std::array<std::vector<PeerSlot>, 2> slots_;
  std::vector<double> final_vtimes_;
  std::vector<char> final_seen_;
  std::unordered_map<std::uint64_t, Reply> replies_;

  // Staged outbound payloads (rank thread only).  The broadcast stage and
  // the self slice back this rank's own PeerSlot, so they are parity
  // double-buffered like every other slot store; per-destination slices
  // are consumed by the very next round and need no parity.
  std::array<std::vector<std::uint8_t>, 2> out_stage_;
  std::array<std::vector<std::uint8_t>, 2> self_slice_;
  std::vector<std::vector<std::uint8_t>> out_slices_{
      static_cast<std::size_t>(nprocs_)};
  Pending pending_ = Pending::kNone;
  std::uint32_t pending_parity_ = 0;

  // One-sided windows.
  std::mutex windows_mu_;
  std::uint64_t next_window_ = 1;
  std::unordered_map<std::uint64_t, OneSidedHandler> windows_;

  // Rank-local allreduce combine buffer.
  std::vector<std::uint8_t> reduce_buf_;

  // Failure plane.
  std::atomic<std::uint32_t> aborted_{0};
  mutable std::mutex error_mutex_;
  bool error_posted_ = false;
  std::string error_text_;
};

std::unique_ptr<Transport> make_socket_transport(const SpmdOptions& options) {
  return std::make_unique<SocketTransport>(options);
}

SpmdResult run_socket_world(World& world, const std::function<void(Context&)>& fn) {
  auto& tp = static_cast<SocketTransport&>(world.transport());
  const int nprocs = world.nprocs();
  const int node = tp.options().socket_node;
  const int nodes = tp.options().socket_nodes;
  SpmdResult result;
  result.rank_vtimes.assign(static_cast<std::size_t>(nprocs), 0.0);
  WallTimer wall;

  // This node's contiguous block of ranks (node 0 owns rank 0).
  const int per = nprocs / nodes;
  const int rem = nprocs % nodes;
  const int first = node * per + std::min(node, rem);
  const int last = first + per + (node < rem ? 1 : 0);

  std::fflush(nullptr);
  const pid_t parent_pid = ::getpid();
  std::vector<pid_t> pids;
  std::vector<int> pid_rank;
  pids.reserve(static_cast<std::size_t>(last - first));

  const auto rank_body = [&](int r) {
    tp.connect_as(r);
    Context ctx(world, r);
    fn(ctx);
    ctx.sample_compute();
    return ctx.vtime_raw();
  };

  for (int r = first + 1; r < last; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent_pid) ::_exit(3);  // parent died pre-prctl
      int code = 0;
      try {
        const double v = rank_body(r);
        tp.finish_world(r, v);
        if (tp.aborted()) code = 1;
      } catch (...) {
        tp.post_error(describe_current_exception().c_str());
        code = 1;
      }
      tp.disconnect();
      std::fflush(nullptr);
      ::_exit(code);
    }
    if (pid < 0) {
      tp.post_error(errno_text("spmd_run: fork failed").c_str());
      break;
    }
    pids.push_back(pid);
    pid_rank.push_back(r);
  }

  // Reaper for this node's children: an abnormal death becomes a world
  // abort ("rank N died (killed by signal S)"); remote or already-aborted
  // deaths surface through the transport's EOF/heartbeat detection.
  std::thread reaper([&] {
    std::vector<char> done(pids.size(), 0);
    std::size_t reaped = 0;
    while (reaped < pids.size()) {
      bool progress = false;
      for (std::size_t i = 0; i < pids.size(); ++i) {
        if (done[i] != 0) continue;
        int status = 0;
        const pid_t got = ::waitpid(pids[i], &status, WNOHANG);
        if (got == 0) continue;
        done[i] = 1;
        ++reaped;
        progress = true;
        if (got < 0) continue;
        const int rank = pid_rank[i];
        if (WIFSIGNALED(status)) {
          tp.post_error(("rank " + std::to_string(rank) +
                         " died (killed by signal " +
                         std::to_string(WTERMSIG(status)) + ")")
                            .c_str());
        } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
          // Exit status 1 means the rank failed *after* posting its
          // diagnostic, which travels to us as an abort frame.  Give
          // that frame a moment to land so the specific text is never
          // outraced by this generic death notice.
          if (WEXITSTATUS(status) == 1) {
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(2);
            while (!tp.aborted() && std::chrono::steady_clock::now() < give_up) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            if (tp.aborted()) continue;
          }
          tp.post_error(("rank " + std::to_string(rank) +
                         " died (exit status " +
                         std::to_string(WEXITSTATUS(status)) + ")")
                            .c_str());
        }
      }
      if (!progress) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // The first local rank runs on the calling thread (on node 0 that is
  // rank 0, preserving tool/serve result-capture semantics).
  std::exception_ptr local_error;
  bool local_first = false;
  std::vector<double> finals(static_cast<std::size_t>(nprocs), 0.0);
  try {
    const double v = rank_body(first);
    finals = tp.finish_world(first, v);
  } catch (...) {
    local_error = std::current_exception();
    local_first = tp.post_error(describe_current_exception().c_str());
  }
  tp.disconnect();
  reaper.join();
  result.wall_seconds = wall.elapsed();
  if (tp.aborted()) {
    if (local_first && local_error) std::rethrow_exception(local_error);
    throw ProtocolError("SPMD world failed: " + tp.error_text());
  }
  for (int r = 0; r < nprocs; ++r) {
    result.rank_vtimes[static_cast<std::size_t>(r)] =
        finals[static_cast<std::size_t>(r)];
  }
  result.max_vtime =
      *std::max_element(result.rank_vtimes.begin(), result.rank_vtimes.end());
  return result;
}

}  // namespace sva::ga::detail

#else  // !__linux__

namespace sva::ga::detail {

std::unique_ptr<Transport> make_socket_transport(const SpmdOptions&) {
  throw InvalidArgument(
      "Backend::kSocket (SocketTransport) requires Linux; use Backend::kThread");
}

SpmdResult run_socket_world(World&, const std::function<void(Context&)>&) {
  throw InvalidArgument(
      "Backend::kSocket (SocketTransport) requires Linux; use Backend::kThread");
}

}  // namespace sva::ga::detail

#endif

// Transport seam for the SPMD runtime: the narrow interface the
// collectives in runtime.hpp are written against, so backends can be
// swapped without touching algorithm code (the DIY communicator idiom).
//
// Three backends ship today:
//
//   * ThreadTransport (Backend::kThread, the default) — ranks are threads
//     in one address space; publication slots, staging scratch and the
//     epoch-counting spin-park barrier are the PR 4 fast path, unchanged.
//   * ShmTransport (Backend::kProcess) — ranks are forked processes over a
//     shared-memory segment: the same parity-double-buffered slot+scratch
//     staging layout lives in an anonymous MAP_SHARED mapping created
//     before the fork (so it is inherited at the same address by every
//     rank), arrival is a futex-parked epoch barrier, and collective
//     object regions are POSIX shm_open segments.  Linux-only.
//   * SocketTransport (Backend::kSocket) — ranks are processes connected
//     over TCP (loopback or different hosts): a rendezvous handshake
//     assigns ranks and distributes the peer table, PeerSlot publication
//     becomes length-prefixed frames, the partitioned allreduce becomes
//     reduce-scatter + allgather on the wire, collective objects route
//     through a one-sided request/reply window protocol, and failure is
//     detected by heartbeat + half-closed-socket EOF feeding post_error.
//     Linux-only (launcher forks local ranks like the process backend).
//
// The seam is intentionally small: publish a contribution for a data
// round, read every peer's slot, synchronize (with a clock fold and an
// optional last-arriver callback), fence, and a shared combine buffer for
// the partitioned allreduce.  Everything else — staging decisions, parity
// bookkeeping, modeled costs — stays in Context and is backend-agnostic.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sva/ga/comm_model.hpp"
#include "sva/util/error.hpp"

namespace sva::ga {

/// Which engine carries the ranks of an SPMD world.
enum class Backend {
  kThread,   ///< ranks are threads in this process (default)
  kProcess,  ///< ranks are forked processes over POSIX shared memory
  kSocket,   ///< ranks are processes connected over TCP (multi-host capable)
};

/// Stable lowercase name ("thread" / "process" / "socket") for CLI and logs.
[[nodiscard]] const char* backend_name(Backend backend);

/// Parses "thread" / "process" / "socket"; nullopt on anything else.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// Launch options for spmd_run(SpmdOptions, fn) — the redesigned entry
/// point that subsumes the historical spmd_run(nprocs, model, fn)
/// overloads.  Aggregate-initializable: SpmdOptions{.nprocs = 4,
/// .backend = Backend::kProcess}.
struct SpmdOptions {
  int nprocs = 1;
  CommModel comm_model{};
  Backend backend = Backend::kThread;

  /// Name prefix for the POSIX shm segments the process backend creates
  /// for collective objects (GlobalArray storage et al.).  Segments are
  /// unlinked as soon as every rank has mapped them.
  std::string shm_prefix = "/sva";

  /// Process backend: per-rank, per-parity staging capacity.  Every
  /// collective contribution is staged (cross-process payloads cannot be
  /// zero-copy), so the largest single broadcast/allgatherv contribution
  /// must fit.  The mapping is reserved lazily — untouched capacity
  /// costs no physical memory.
  std::size_t shm_slot_bytes = 64ull << 20;

  /// Process backend: capacity of the shared allreduce combine buffer.
  std::size_t shm_reduce_bytes = 64ull << 20;

  /// Socket backend: rendezvous listener address as "host:port".  Every
  /// rank connects here once at startup to claim its rank and receive the
  /// peer table.  Empty means single-node: the launcher binds an ephemeral
  /// loopback listener before forking the local ranks.  For multi-host
  /// worlds, pass the same address to every launcher; the launcher whose
  /// socket_node is 0 binds it.
  std::string socket_rendezvous;

  /// Socket backend: index of this launcher among socket_nodes cooperating
  /// launchers.  Ranks are block-partitioned over nodes in node order, so
  /// node 0 always owns rank 0 (and captures the SpmdResult).
  int socket_node = 0;
  int socket_nodes = 1;

  /// Socket backend: heartbeat cadence and the silence threshold past
  /// which a peer is declared dead ("rank N heartbeat lost").  Any frame
  /// counts as liveness, so only a truly wedged or partitioned peer trips
  /// the timeout; abrupt death is usually caught earlier by EOF.
  int socket_heartbeat_ms = 500;
  int socket_heartbeat_timeout_ms = 10000;

  /// Socket backend: deadline for each step of the rendezvous/mesh
  /// handshake (connect, hello, welcome, peer accept).
  int socket_connect_timeout_ms = 10000;

  /// Socket backend: hard bound on a single frame's payload.  Oversized
  /// contributions are rejected at publish time with a ProtocolError
  /// naming this knob; a larger length on the wire marks the stream
  /// corrupt (FormatError).
  std::size_t socket_max_frame_bytes = 256ull << 20;
};

namespace detail {

inline constexpr std::size_t kCacheLine = 64;

/// Publication slot for one rank's collective contribution.  Padded so
/// concurrent publishes never share a cache line.  Under the process
/// backend `ptr` points into the pre-fork world mapping, which every rank
/// inherits at the same address, so peer pointers stay valid across
/// address spaces.
struct alignas(kCacheLine) PeerSlot {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
  /// Payload was staged into transport-owned storage: readers need no
  /// departure fence before the contributor reuses its own buffer.
  bool copied = false;
};

/// A peer's published payload as an array of T.  Every backend keeps
/// payloads aligned for the scalars the typed collectives read in place
/// (the socket frame pads its round prefix to 16 bytes for this); debug
/// builds check it on every read.
template <typename T>
const T* slot_as(const PeerSlot& slot) {
  assert(reinterpret_cast<std::uintptr_t>(slot.ptr) % alignof(T) == 0 &&
         "PeerSlot payload misaligned for its element type");
  return static_cast<const T*>(slot.ptr);
}

/// Waits on a 32-bit word until it changes from `expected`, a wake
/// arrives, or ~`timeout_ms` elapses (spurious returns are fine: callers
/// always re-check).  `process_shared` selects a cross-process futex —
/// std::atomic::wait uses FUTEX_PRIVATE and never crosses processes.
void futex_wait_u32(const void* addr, std::uint32_t expected, bool process_shared,
                    int timeout_ms);
void futex_wake_all_u32(const void* addr, bool process_shared);
void futex_wake_one_u32(const void* addr, bool process_shared);

/// How WorldMutex parks and polls: filled in by Context::lock_env() so
/// shared containers (GlobalArray blocks, task-queue cells) need no
/// backend branches of their own.
struct LockEnv {
  bool process_shared = false;
  /// World abort flag; a blocked lock() rechecks it every ~50ms so a rank
  /// waiting on a lock whose holder died observes the abort instead of
  /// hanging.  May be null (no abort polling).
  const std::atomic<std::uint32_t>* abort_word = nullptr;
};

/// A futex-parked mutex usable from memory shared between processes.
/// Zero-filled storage is a valid unlocked mutex — regions returned by
/// Context::create_shared_region need no construction step.  All access
/// goes through std::atomic_ref, so placing one over raw mapped bytes is
/// well-defined.
class alignas(kCacheLine) WorldMutex {
 public:
  // Trivial default constructor (deliberately no initializer): the class
  // stays implicit-lifetime, so one materializes over the zero-filled
  // bytes of a shared region with no construction step.  Stack instances
  // must be value-initialized: `WorldMutex m{};`.
  WorldMutex() = default;

  /// Throws ProtocolError when env.abort_word trips while waiting.
  void lock(const LockEnv& env);
  void unlock(const LockEnv& env);

 private:
  std::uint32_t word_;  // 0 free / 1 locked / 2 locked-contended; zero = free
};

/// RAII guard over WorldMutex.
class WorldLock {
 public:
  WorldLock(WorldMutex& mutex, const LockEnv& env) : mutex_(mutex), env_(env) {
    mutex_.lock(env_);
  }
  ~WorldLock() { mutex_.unlock(env_); }
  WorldLock(const WorldLock&) = delete;
  WorldLock& operator=(const WorldLock&) = delete;

 private:
  WorldMutex& mutex_;
  LockEnv env_;
};

}  // namespace detail

/// The backend seam.  One Transport is owned by a World; all methods are
/// called by Context's round engine (one call per rank per round, in the
/// lockstep order the SPMD protocol already guarantees).
class Transport {
 public:
  /// Last-arriver callback trampoline: Context type-erases its templated
  /// on_last lambdas through this.
  using RoundFn = void (*)(void*);

  explicit Transport(int nprocs) : nprocs_(nprocs) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] virtual Backend backend() const = 0;

  /// True when all ranks live in one address space (thread backend): raw
  /// pointers published by one rank may be dereferenced by another, and
  /// collective objects can be shared by reference instead of replicated.
  [[nodiscard]] virtual bool shared_address() const { return false; }

  /// True when create_region can hand every rank a view of the same
  /// physical bytes (thread, process).  When false (socket), collective
  /// objects must route through the one-sided window protocol below and
  /// create_region throws.
  [[nodiscard]] virtual bool shared_regions() const { return true; }

  /// True when reduce_base() is one combine buffer shared by every rank
  /// (thread, process), so the partitioned allreduce can fold in place.
  /// When false (socket), Context switches to reduce-scatter + allgather
  /// on the wire.
  [[nodiscard]] virtual bool shared_combine() const { return true; }

  /// Publishes `bytes` of `data` as `rank`'s contribution for the data
  /// round of `parity`.  `copy` requests staging into transport-owned
  /// scratch; a transport may stage even when `copy` is false (the process
  /// backend always stages) and reports what it did via PeerSlot::copied.
  virtual void publish(std::uint32_t parity, int rank, const void* data,
                       std::size_t bytes, bool copy) = 0;

  /// The nprocs() publication slots of `parity`; valid to read between the
  /// parity's arrival round and its reuse two data rounds later.
  [[nodiscard]] virtual const detail::PeerSlot* peers(std::uint32_t parity) const = 0;

  /// Arrival round: records `vtime` as this rank's clock, the round's last
  /// arriver folds the max over all clocks and runs `on_last(arg)` (if
  /// non-null) while it exclusively owns the round.  Returns the folded
  /// max.  Throws ProtocolError once the world is aborted.
  virtual double sync(int rank, double vtime, RoundFn on_last, void* arg) = 0;

  /// Arrival-only departure fence: no clock publication, no fold.
  virtual void fence(int rank) = 0;

  /// Grows (thread) or capacity-checks (process) the shared allreduce
  /// combine buffer.  Call only while owning a round (from on_last).
  virtual void ensure_reduce_capacity(std::size_t bytes) = 0;
  [[nodiscard]] virtual void* reduce_base() = 0;

  /// Records `what` as the world's failure (first caller wins), sets the
  /// abort flag and wakes every parked rank.  Returns true when this call
  /// recorded the first error.
  virtual bool post_error(const char* what) = 0;
  [[nodiscard]] virtual bool aborted() const = 0;
  /// The recorded failure text (meaningful once aborted()).
  [[nodiscard]] virtual std::string error_text() const = 0;
  /// Abort flag for WorldMutex/ClaimGate parking loops.
  [[nodiscard]] virtual const std::atomic<std::uint32_t>* abort_word() const = 0;

  /// Collective: returns zero-filled memory of `bytes` shared by all
  /// ranks.  Every rank must call in lockstep with identical `bytes`; the
  /// call synchronizes internally (arrival fences, no modeled charge).
  /// Thread backend: one cache-line-aligned allocation shared by
  /// reference.  Process backend: a named shm segment mapped per rank
  /// (base addresses differ — store offsets or rank-local pointers, never
  /// absolute pointers, inside a region).
  virtual std::shared_ptr<void> create_region(int rank, std::size_t bytes) = 0;

  /// Generic-pointer exchange mirror for Context::exchange; null when the
  /// transport cannot share raw pointers across ranks (process backend).
  [[nodiscard]] virtual std::vector<const void*>* ptr_slots(std::uint32_t /*parity*/) {
    return nullptr;
  }

  /// Per-destination publication for the wire reduce-scatter: stages the
  /// slice of this round's contribution that only rank `dst` should
  /// receive.  Used by Context::allreduce when !shared_combine(); other
  /// transports never see it.
  virtual void publish_to(std::uint32_t /*parity*/, int /*rank*/, int /*dst*/,
                          const void* /*data*/, std::size_t /*bytes*/) {
    throw ProtocolError(
        "publish_to: per-destination publication requires the socket "
        "backend");
  }

  /// One-sided window protocol (socket backend): a collective object
  /// registers a handler on every rank in lockstep (ids are assigned from
  /// a per-transport counter, so identical registration order yields
  /// identical ids world-wide); onesided_call ships `req` to `owner`,
  /// whose I/O thread runs the handler against rank-local state and
  /// returns `reply`.  Handlers run concurrently with the owner's rank
  /// thread — they must only touch state guarded by their own mutex, and
  /// must never block on a collective.  A handler that throws is
  /// propagated to the caller as a ProtocolError.
  using OneSidedHandler = std::function<void(
      const std::uint8_t* req, std::size_t len, std::vector<std::uint8_t>& reply)>;

  virtual std::uint64_t onesided_register(OneSidedHandler /*handler*/) {
    throw ProtocolError(
        "onesided_register: one-sided windows require the socket backend");
  }
  virtual void onesided_unregister(std::uint64_t /*window*/) {}
  virtual void onesided_call(int /*owner*/, std::uint64_t /*window*/,
                             const void* /*req*/, std::size_t /*len*/,
                             std::vector<std::uint8_t>& /*reply*/) {
    throw ProtocolError(
        "onesided_call: one-sided windows require the socket backend");
  }

 protected:
  int nprocs_;
};

/// Builds the transport selected by `options` (throws InvalidArgument for
/// an unsupported backend, e.g. Backend::kProcess off Linux).
std::unique_ptr<Transport> make_transport(const SpmdOptions& options);

}  // namespace sva::ga

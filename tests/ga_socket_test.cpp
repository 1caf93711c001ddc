// SocketTransport (Backend::kSocket) shard: the collectives, global
// array, hashmap and task queues under forked ranks exchanging over TCP,
// the wire-format fuzz surface (truncated / corrupted / oversized frames
// must raise named FormatError diagnostics, never a hang or a misparse),
// the injectable failure edges (ga.socket.connect/send/recv/heartbeat),
// and the multi-node rendezvous handshake over loopback.
//
// gtest EXPECTs inside a non-zero rank run in a forked child and vanish
// at its _exit, so every in-world check here throws (sva::require); the
// parent observes the failure as a world abort.  Result comparisons
// happen at rank 0, which runs on the parent's calling thread.
#include <gtest/gtest.h>

#include <csignal>
#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backend_testutil.hpp"
#include "sva/fault/fault.hpp"
#include "sva/ga/dist_hashmap.hpp"
#include "sva/ga/global_array.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/ga/task_queue.hpp"
#include "sva/util/error.hpp"
#include "sva/util/net.hpp"
#include "sva/util/wire.hpp"

namespace sva::ga {
namespace {

SpmdOptions socket_world(int nprocs) {
  SpmdOptions world;
  world.nprocs = nprocs;
  world.backend = Backend::kSocket;
  return world;
}

/// Arms the fault substrate for one test and guarantees disarm on every
/// exit path — a leaked rule would poison unrelated tests in this binary.
struct FaultGuard {
  explicit FaultGuard(const char* spec) { fault::configure(spec); }
  ~FaultGuard() { fault::reset(); }
};

/// The scripted sweep over every collective primitive from ga_shm_test,
/// factored so both the single-launcher digest and the multi-node body
/// can run it.  Returns the FNV digest of all result bytes on every rank;
/// a pure function of (P).
std::uint64_t collective_sweep(Context& ctx) {
  const int P = ctx.nprocs();
  const int rank = ctx.rank();
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_f64 = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };

  for (int round = 0; round < 6; ++round) {
    // Sizes sweep 1..4^5 doubles: the staged small path and the large
    // reduce-scatter + allgather wire path both get exercised.
    const std::size_t n = static_cast<std::size_t>(1) << (2 * round);
    const int root = round % P;

    std::vector<double> bcast(n, 0.0);
    if (rank == root) {
      for (std::size_t i = 0; i < n; ++i) {
        bcast[i] = 1.0 / static_cast<double>(round * 101 + i + 1);
      }
    }
    ctx.broadcast(bcast.data(), n, root);
    for (const double v : bcast) mix_f64(v);

    std::vector<double> acc(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = std::sin(static_cast<double>(rank + 1)) /
               static_cast<double>(i + round + 1);
    }
    ctx.allreduce_sum(acc.data(), acc.size());
    for (const double v : acc) mix_f64(v);

    std::vector<std::int64_t> mine(static_cast<std::size_t>(rank + round + 1),
                                   static_cast<std::int64_t>(rank * 31 + round));
    const auto all = ctx.allgatherv(std::span<const std::int64_t>(mine));
    for (const auto v : all) mix(static_cast<std::uint64_t>(v));

    const auto gathered = ctx.gatherv(std::span<const std::int64_t>(mine), root);
    if (rank == root) {
      require(gathered.size() == all.size(), "gatherv size diverged from allgatherv");
    }

    const auto counts = ctx.allgather(static_cast<std::uint64_t>(mine.size()));
    require(counts.size() == static_cast<std::size_t>(P), "allgather arity");
    for (const auto c : counts) mix(c);

    mix(ctx.exscan_sum(static_cast<std::uint64_t>(rank + 1) *
                       static_cast<std::uint64_t>(round + 1)));
    ctx.barrier();
  }
  return h;
}

std::uint64_t collective_sweep_digest(Backend backend, int nprocs) {
  auto out = std::make_shared<std::uint64_t>(0);
  SpmdOptions world;
  world.nprocs = nprocs;
  world.backend = backend;
  spmd_run(world, [&](Context& ctx) {
    const std::uint64_t h = collective_sweep(ctx);
    if (ctx.rank() == 0) *out = h;
  });
  return *out;
}

TEST(GaSocketTest, BackendNameRoundTrips) {
  EXPECT_STREQ(backend_name(Backend::kSocket), "socket");
  const auto parsed = parse_backend("socket");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, Backend::kSocket);
}

TEST(GaSocketTest, CollectiveSweepMatchesThreadAndProcessBackendsBitIdentically) {
  SVA_REQUIRE_SOCKET_BACKEND();
  for (const int nprocs : {1, 2, 4}) {
    const std::uint64_t thread_digest =
        collective_sweep_digest(Backend::kThread, nprocs);
    const std::uint64_t socket_digest =
        collective_sweep_digest(Backend::kSocket, nprocs);
    EXPECT_EQ(socket_digest, thread_digest) << "nprocs=" << nprocs;
    const std::uint64_t process_digest =
        collective_sweep_digest(Backend::kProcess, nprocs);
    EXPECT_EQ(socket_digest, process_digest) << "nprocs=" << nprocs;
  }
}

TEST(GaSocketTest, GlobalArrayHashmapAndQueuesWorkUnderSocketBackend) {
  SVA_REQUIRE_SOCKET_BACKEND();
  for (const int P : {1, 2, 4}) {
    spmd_run(socket_world(P), [&](Context& ctx) {
      auto array = GlobalArray<std::int64_t>::create(ctx, 100);
      array.put_value(ctx, (ctx.rank() * 37) % 100, ctx.rank() + 1);
      ctx.barrier();
      (void)array.fetch_add(ctx, 5, 1);
      ctx.barrier();
      const auto vec = array.to_vector(ctx);
      require(vec[5] >= P, "fetch_add lost cross-rank updates");

      auto map = DistHashmap::create(ctx);
      const std::vector<std::string> terms = {"alpha", "beta",
                                              "rank" + std::to_string(ctx.rank())};
      const auto ids = map.insert_batch(ctx, terms);
      require(ids.size() == 3 && ids[0] >= 0, "insert_batch returned bad ids");
      ctx.barrier();
      const auto fin = map.finalize(ctx);
      require(fin.vocabulary->size() == static_cast<std::size_t>(2 + P),
              "replicated hashmap vocabulary diverged");

      for (const auto sched : {Scheduling::kAtomicCounter, Scheduling::kOwnerFirst,
                               Scheduling::kMasterWorker, Scheduling::kStatic}) {
        auto queue = make_task_queue(ctx, sched, 64, 4);
        std::size_t got = 0;
        while (const auto chunk = queue->next(ctx)) got += chunk->size();
        const auto total = ctx.allreduce_sum(static_cast<std::int64_t>(got));
        require(total == 64, std::string("task queue dropped tasks under ") +
                                 scheduling_name(sched));
        ctx.barrier();
      }
    });
  }
}

TEST(GaSocketTest, VtimeOrderedClaimsAreRejectedAtLaunch) {
  // The claim gate needs shared memory, which socket ranks do not have.
  SpmdOptions world = socket_world(2);
  world.comm_model.vtime_ordered_claims = true;
  bool ran = false;
  try {
    spmd_run(world, [&](Context&) { ran = true; });
    FAIL() << "a socket world accepted vtime-ordered claims";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("vtime_ordered_claims"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(ran);
}

TEST(GaSocketTest, MultiNodeRendezvousOverLoopbackMatchesThreadBackend) {
  SVA_REQUIRE_SOCKET_BACKEND();
#if defined(__linux__)
  // Two genuinely separate launcher processes — the forked child plays
  // the second "node" — meet at a loopback rendezvous and form one
  // 4-rank world: node 0 hosts ranks {0,1}, node 1 hosts ranks {2,3}.
  // Pick a free port by binding an ephemeral listener and releasing it.
  const int probe = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(probe);
  net::close_fd(probe);
  const std::string rendezvous = "127.0.0.1:" + std::to_string(port);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    int status = 0;
    try {
      SpmdOptions world = socket_world(4);
      world.socket_rendezvous = rendezvous;
      world.socket_node = 1;
      world.socket_nodes = 2;
      spmd_run(world, [](Context& ctx) { (void)collective_sweep(ctx); });
    } catch (...) {
      status = 1;
    }
    ::_exit(status);
  }

  auto digest = std::make_shared<std::uint64_t>(0);
  SpmdOptions world = socket_world(4);
  world.socket_rendezvous = rendezvous;
  world.socket_node = 0;
  world.socket_nodes = 2;
  spmd_run(world, [&](Context& ctx) {
    const std::uint64_t h = collective_sweep(ctx);
    if (ctx.rank() == 0) *digest = h;
  });

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "node 1 launcher failed";
  EXPECT_EQ(*digest, collective_sweep_digest(Backend::kThread, 4));
#endif
}

TEST(GaSocketTest, OldProtocolPeerFailsTheRendezvousWithANamedError) {
  SVA_REQUIRE_SOCKET_BACKEND();
#if defined(__linux__)
  // A 2-node world whose node 1 is an impostor speaking protocol v1 (the
  // 10-byte round prefix): rank 0 must refuse its hello by name rather
  // than let it join and misparse every round frame.
  const int probe = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(probe);
  net::close_fd(probe);

  std::thread impostor([port] {
    std::vector<std::uint8_t> hello(24, 0);
    hello[0] = 1;   // protocol version
    hello[8] = 2;   // world size
    hello[16] = 1;  // data port
    const auto frame = wire::make_frame(/*kHello*/ 1, 0, /*src=*/1, 0, hello);
    const int fd = net::connect_tcp("127.0.0.1", port, 10000);
    net::send_all(fd, frame.data(), frame.size());
    net::close_fd(fd);
  });
  SpmdOptions world = socket_world(2);
  world.socket_rendezvous = "127.0.0.1:" + std::to_string(port);
  world.socket_node = 0;
  world.socket_nodes = 2;
  try {
    spmd_run(world, [](Context& ctx) { ctx.barrier(); });
    ADD_FAILURE() << "a protocol-v1 peer joined the world";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("protocol version mismatch"), std::string::npos)
        << e.what();
  }
  impostor.join();
#endif
}

TEST(GaSocketTest, InsertOrGetIsRejectedUnderSocketBackend) {
  SVA_REQUIRE_SOCKET_BACKEND();
  try {
    spmd_run(socket_world(2), [](Context& ctx) {
      auto map = DistHashmap::create(ctx);
      (void)map.insert_or_get(ctx, "term");
    });
    FAIL() << "insert_or_get succeeded under Backend::kSocket";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("insert_or_get"), std::string::npos)
        << e.what();
  }
}

TEST(GaSocketTest, AbortMidCollectiveFailsTheWholeWorld) {
  SVA_REQUIRE_SOCKET_BACKEND();
  try {
    spmd_run(socket_world(4), [](Context& ctx) {
      if (ctx.rank() == 2) throw Error("boom mid-collective");
      // The survivors sit in waits the thrower never completes; the
      // abort frame must wake and fail them rather than leave them
      // parked on the socket.
      for (int i = 0; i < 1000; ++i) ctx.barrier();
    });
    FAIL() << "world survived a mid-collective abort";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("boom mid-collective"), std::string::npos)
        << e.what();
  }
}

TEST(GaSocketTest, DeadRankFailsTheWorldWithADiagnosticInsteadOfHanging) {
  SVA_REQUIRE_SOCKET_BACKEND();
  try {
    spmd_run(socket_world(4), [](Context& ctx) {
      if (ctx.rank() == 2) ::kill(::getpid(), SIGKILL);
      for (int i = 0; i < 1000; ++i) ctx.barrier();
    });
    FAIL() << "world survived a killed rank";
  } catch (const ProtocolError& e) {
    // Either detector may win the race: the reaper ("killed by signal 9")
    // or the I/O thread seeing the half-closed socket ("connection
    // closed").  Both name the dead rank.
    EXPECT_NE(std::string(e.what()).find("rank 2 died"), std::string::npos)
        << e.what();
  }
}

TEST(GaSocketTest, OversizedContributionNamesTheFrameCap) {
  SVA_REQUIRE_SOCKET_BACKEND();
  SpmdOptions world = socket_world(2);
  world.socket_max_frame_bytes = 4096;
  try {
    spmd_run(world, [](Context& ctx) {
      std::vector<double> big(4096, 1.0);  // 32 KiB > the 4 KiB frame cap
      ctx.broadcast(big.data(), big.size(), 0);
    });
    FAIL() << "oversized contribution was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("socket_max_frame_bytes"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Wire-format fuzz: the codec must reject every malformed prefix with a
// named FormatError — a misparse here would ask the transport to buffer
// garbage or deadlock a collective.

TEST(GaSocketTest, WireTruncatedHeaderIsRejectedAtEveryShorterLength) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame = wire::make_frame(9, 0, 3, 42, payload);
  for (std::size_t len = 0; len < wire::kFrameHeaderBytes; ++len) {
    try {
      (void)wire::decode_frame_header(
          std::span<const std::uint8_t>(frame.data(), len), 1 << 20);
      FAIL() << "truncated header of " << len << " bytes was accepted";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("wire frame truncated"), std::string::npos)
          << e.what();
    }
  }
}

TEST(GaSocketTest, WireCorruptedMagicIsRejectedForEveryFlippedByte) {
  const auto frame = wire::make_frame(4, 0, 1, 7, {});
  for (std::size_t i = 0; i < 4; ++i) {
    auto bad = frame;
    bad[i] ^= 0xff;
    try {
      (void)wire::decode_frame_header(bad, 1 << 20);
      FAIL() << "corrupted magic byte " << i << " was accepted";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
          << e.what();
    }
  }
}

TEST(GaSocketTest, WireOversizedPayloadLengthIsRejected) {
  wire::FrameHeader h;
  h.type = 9;
  h.len = (1 << 20) + 1;
  std::uint8_t bytes[wire::kFrameHeaderBytes];
  wire::encode_frame_header(h, bytes);
  try {
    (void)wire::decode_frame_header(bytes, 1 << 20);
    FAIL() << "oversized payload length was accepted";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wire frame oversized"), std::string::npos) << what;
    EXPECT_NE(what.find("socket_max_frame_bytes"), std::string::npos) << what;
  }
}

TEST(GaSocketTest, WireFrameRoundTripsAllHeaderFields) {
  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
  const auto frame = wire::make_frame(10, 1, 4095, 0x0102030405060708ull, payload);
  ASSERT_EQ(frame.size(), wire::kFrameHeaderBytes + payload.size());
  const auto h = wire::decode_frame_header(frame, 1 << 20);
  EXPECT_EQ(h.magic, wire::kFrameMagic);
  EXPECT_EQ(h.type, 10);
  EXPECT_EQ(h.flags, 1);
  EXPECT_EQ(h.src, 4095);
  EXPECT_EQ(h.seq, 0x0102030405060708ull);
  EXPECT_EQ(h.len, payload.size());
}

// ---------------------------------------------------------------------
// Injectable failure edges: each armed site must fail the world with a
// diagnostic naming the edge — never hang a collective.

TEST(GaSocketTest, ConnectFaultFailsTheWorldWithANamedDiagnostic) {
  SVA_REQUIRE_SOCKET_BACKEND();
  FaultGuard guard("ga.socket.connect:error:hit=1");
  try {
    spmd_run(socket_world(2), [](Context& ctx) { ctx.barrier(); });
    FAIL() << "world survived an injected connect failure";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("ga.socket.connect"), std::string::npos)
        << e.what();
  }
}

TEST(GaSocketTest, SendFaultFailsTheWorldWithANamedDiagnostic) {
  SVA_REQUIRE_SOCKET_BACKEND();
  FaultGuard guard("ga.socket.send:error:hit=1");
  try {
    spmd_run(socket_world(2), [](Context& ctx) {
      for (int i = 0; i < 100; ++i) ctx.barrier();
    });
    FAIL() << "world survived an injected send failure";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("ga.socket.send"), std::string::npos)
        << e.what();
  }
}

TEST(GaSocketTest, RecvFaultSurfacesAsAStreamCorruptionDiagnostic) {
  SVA_REQUIRE_SOCKET_BACKEND();
  FaultGuard guard("ga.socket.recv:format:hit=1");
  try {
    spmd_run(socket_world(2), [](Context& ctx) {
      for (int i = 0; i < 100; ++i) ctx.barrier();
    });
    FAIL() << "world survived an injected receive corruption";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("stream corrupt"), std::string::npos)
        << e.what();
  }
}

TEST(GaSocketTest, HeartbeatFaultFailsTheWorldWithANamedDiagnostic) {
  SVA_REQUIRE_SOCKET_BACKEND();
  FaultGuard guard("ga.socket.heartbeat:error:hit=1");
  SpmdOptions world = socket_world(2);
  world.socket_heartbeat_ms = 10;
  try {
    spmd_run(world, [](Context& ctx) {
      // Outlive the first heartbeat tick so the armed site traverses.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      for (int i = 0; i < 1000; ++i) ctx.barrier();
    });
    FAIL() << "world survived an injected heartbeat failure";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("ga.socket.heartbeat"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sva::ga

// Communication / performance model for the SPMD runtime.
//
// The paper measured wall-clock on a 48-CPU Itanium cluster with an
// Infiniband interconnect.  This reproduction executes the same SPMD
// algorithms with one thread per simulated process, and layers a
// LogGP-style analytic cost model on top of *real measured compute*:
//
//   * compute  — each rank's thread-CPU time (accurate under core
//                oversubscription) scaled by `compute_scale` to map the
//                host's per-core speed onto the paper's 1.5 GHz Itanium2;
//   * comm    — explicit charges per operation, parameterized below.
//
// A stage's modeled duration is the maximum over ranks of per-rank virtual
// time, which is exactly how a barrier-synchronized SPMD program behaves.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace sva::ga {

/// Cost parameters (seconds, seconds/byte).  Defaults approximate a
/// 2007-era Infiniband SDR cluster.
struct CommModel {
  double alpha = 5.0e-6;        ///< point-to-point / one-sided latency
  double beta = 1.25e-9;        ///< per-byte network cost (~800 MB/s)
  double alpha_rmw = 8.0e-6;    ///< remote atomic (fetch-and-increment)
  double beta_local = 2.5e-10;  ///< per-byte local-memory copy (~4 GB/s)
  double alpha_local = 1.0e-7;  ///< local one-sided call overhead
  double rpc_service = 2.0e-6;  ///< per-request service time at an RPC host
  double io_bandwidth = 250.0e6;  ///< scan bandwidth per rank (parallel FS)
  /// Parallel filesystem (the paper's Lustre remark): every rank streams
  /// its slice at io_bandwidth concurrently.  When false, storage is one
  /// shared serial device — ranks contend, and the scan stage stops
  /// scaling no matter how well the compute partitions.
  bool io_parallel = true;
  double compute_scale = 1.0;     ///< multiplier applied to thread-CPU time
  /// Grant every task-queue claim in (virtual time, rank) order through a
  /// ga::ClaimGate.  Simulated ranks are host threads or processes that
  /// the OS schedules arbitrarily; on an oversubscribed host one of them
  /// can drain a dynamic queue before its peers run, so modeled load
  /// balance (Fig. 9) is faithful to a concurrent cluster only with the
  /// gate on.  It serializes claims in real time, so worlds that report
  /// host wall time leave it off.  Needs shared memory: a Backend::kSocket
  /// world with this set fails at launch with InvalidArgument.
  bool vtime_ordered_claims = false;

  // ---- host execution tuning -------------------------------------------
  // These knobs steer the *host* fast path of the runtime (see
  // runtime.hpp) and never enter a modeled cost.  Exposed so tests can
  // force each path deterministically.
  /// Barrier spin iterations before parking on the epoch futex; -1 picks
  /// a default (0 when ranks oversubscribe the host's cores).
  int host_spin_iters = -1;
  /// Largest broadcast payload staged into World scratch (one-round
  /// broadcast; only the root copies in).  Bigger payloads stay zero-copy
  /// behind a departure fence.
  std::size_t host_copy_max_bytes = std::size_t{64} << 10;
  /// Largest per-rank contribution staged by allgatherv/gatherv.  Every
  /// rank pays its own copy-in here, so the crossover against the saved
  /// departure fence sits much lower than for broadcast.
  std::size_t host_vstage_max_bytes = std::size_t{8} << 10;
  /// Allreduce payloads up to this size are folded by the round's last
  /// arriver (leader combines); larger ones use partitioned combining.
  std::size_t host_leader_max_bytes = 4096;

  [[nodiscard]] int tree_depth(int nprocs) const {
    int depth = 0;
    int span = 1;
    while (span < nprocs) {
      span <<= 1;
      ++depth;
    }
    return depth;
  }

  /// One-sided get/put of `bytes` between `from` and `to` ranks.
  [[nodiscard]] double onesided(std::size_t bytes, bool remote) const {
    return remote ? alpha + beta * static_cast<double>(bytes)
                  : alpha_local + beta_local * static_cast<double>(bytes);
  }

  /// Remote atomic read-modify-write.
  [[nodiscard]] double atomic_rmw(bool remote) const {
    return remote ? alpha_rmw : alpha_local;
  }

  /// Barrier among `nprocs` ranks (dissemination barrier).
  [[nodiscard]] double barrier(int nprocs) const {
    return static_cast<double>(tree_depth(nprocs)) * alpha;
  }

  /// Binomial-tree broadcast of `bytes`.
  [[nodiscard]] double broadcast(int nprocs, std::size_t bytes) const {
    return static_cast<double>(tree_depth(nprocs)) *
           (alpha + beta * static_cast<double>(bytes));
  }

  /// Binomial-tree reduction of `bytes`.
  [[nodiscard]] double reduce(int nprocs, std::size_t bytes) const {
    return broadcast(nprocs, bytes);
  }

  /// Binomial-tree gather of `total_bytes` (summed over every rank's
  /// contribution) to one root: the latency term scales with the tree
  /// depth, the bandwidth term with the full payload funneled into the
  /// root.
  [[nodiscard]] double gather(int nprocs, std::size_t total_bytes) const {
    return static_cast<double>(tree_depth(nprocs)) * alpha +
           beta * static_cast<double>(total_bytes);
  }

  /// Allreduce = reduce + broadcast (the classic implementation the paper's
  /// MPI_Allreduce would use for these message sizes).
  [[nodiscard]] double allreduce(int nprocs, std::size_t bytes) const {
    return 2.0 * reduce(nprocs, bytes);
  }

  /// Ring allgather where every rank contributes ~`chunk_bytes`.
  [[nodiscard]] double allgather(int nprocs, std::size_t chunk_bytes) const {
    return static_cast<double>(nprocs - 1) *
           (alpha + beta * static_cast<double>(chunk_bytes));
  }

  /// Scan-stage I/O charge for reading `bytes` from the (simulated)
  /// parallel filesystem.
  [[nodiscard]] double io_read(std::size_t bytes) const {
    return static_cast<double>(bytes) / io_bandwidth;
  }

  /// Locality-aware scan charge: with a parallel FS each rank pays for
  /// its own slice; with a serial shared disk every rank's read completes
  /// only after the device has streamed the whole corpus.
  [[nodiscard]] double io_read(std::uint64_t local_bytes, std::uint64_t total_bytes) const {
    return io_read(static_cast<std::size_t>(io_parallel ? local_bytes : total_bytes));
  }
};

/// Preset approximating the paper's testbed: dual 1.5 GHz Itanium2 nodes.
/// The compute scale maps a modern core's thread-CPU seconds onto the
/// (slower) 2007 processor so the modeled minutes land in the paper's
/// ballpark; relative shapes are unaffected by this constant.  Queue
/// claims are vtime-ordered, since the cluster's ranks run concurrently.
inline CommModel itanium_cluster_model() {
  CommModel m;
  m.compute_scale = 6.0;
  m.vtime_ordered_claims = true;
  return m;
}

}  // namespace sva::ga

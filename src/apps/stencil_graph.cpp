// Wavefront halo-graph stencil (apps/stencil.hpp::stencil_graph).
//
// The task-graph showcase shape: instead of one MapReduce round per Jacobi
// sweep (map barrier -> shuffle -> reduce -> gather -> host update ->
// broadcast), the grid's row blocks become long-lived graph nodes with
// pure halo dependencies:
//
//   block(j, b)  depends on  block(j-1, {b-1, b, b+1})   (data: halo rows)
//   block(j, b)  depends on  retire(j - depth)           (buffer window)
//
// Cross-rank halo neighbours are linked through explicit send -> recv node
// pairs, so the inter-node halo exchange is charged to the fabric and the
// receiving block waits for the wire — and because a recv node can only be
// dispatched after its send node completed, cancel_pending() at
// convergence can never strand a waiting receiver.
//
// Iterates land in depth+1 ping-pong grid buffers: iteration j reads
// buffers[j % K] and writes buffers[(j+1) % K] (K = depth+1). The neighbour
// chain makes block(j, b) transitively dependent on block(j-depth, b±1) —
// exactly the readers of the buffer it overwrites — so the window is safe
// without extra edges; retire(j - depth) bounds how far fast blocks run
// ahead of the convergence check.
//
// The job pays the PRS startup constant (calib::kPrsJobStartup) once, as a
// delay node the first sweep's blocks wait for, and it passes the job's
// stage gate before each window of sweeps, where the job server
// interleaves and cancels jobs.
//
// Convergence: retire(j) (a host node on the master) folds the iteration's
// block residuals in block order. max() over doubles is exact, and Jacobi
// writes every cell from the previous grid only, so grid bytes, residual
// and iteration count are identical to stencil_serial for ANY block
// decomposition, depth or host-thread count. A converged retire cancels
// all pending nodes; blocks already in flight drain into later buffers and
// their updates are simply never read (bounded by the window size).
//
// NOTE (GCC 12): all co_await sites follow the named-temporary rule
// documented in simtime/process.hpp.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "common/error.hpp"
#include "core/calibration.hpp"
#include "core/job_graph.hpp"
#include "core/partitioner.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_policy.hpp"
#include "graph/executor.hpp"
#include "graph/task_graph.hpp"

namespace prs::apps {
namespace {

/// Iterations per built graph: bounds graph memory for long runs and gives
/// convergence a hard cut point; the window barrier cost is one drained
/// graph per kChunk sweeps.
constexpr int kChunk = 32;

/// One row block of the decomposition, fixed across iterations.
struct HaloBlock {
  std::size_t r0 = 0, r1 = 0;  // interior-row range [r0, r1), 0-based
  int rank = 0;
  bool gpu = false;
  int card = 0;
  int stream = 0;
};

/// Convergence state shared by the retire nodes.
struct HaloBox {
  bool finished = false;
  int final_iter = -1;    // last counted iteration
  int iterations = 0;
  double residual = 0.0;
  graph::GraphExecutor* exec = nullptr;  // bound per window
};

/// CPU block: one roofline-timed task on the node's core pool.
sim::Process hg_cpu_block(core::Cluster* cluster, int rank,
                          simdev::Workload workload, double eff_compute,
                          double eff_memory, std::function<void()> body,
                          sim::Promise<sim::Unit> done) {
  simdev::CpuTask t;
  t.name = "stencil:halo:cpu";
  t.workload = workload;
  t.compute_efficiency = eff_compute;
  t.memory_efficiency = eff_memory;
  t.body = std::move(body);
  auto fut = cluster->node(rank).cpu().submit(std::move(t));
  co_await fut;
  done.set_value(sim::Unit{});
}

/// GPU block: halo rows in, kernel, updated rows back — all on the block's
/// stream, so other streams/cards keep computing beside the copies.
sim::Process hg_gpu_block(core::Cluster* cluster, int rank, int card,
                          int stream, simdev::Workload workload,
                          double eff_compute, double eff_memory,
                          double h2d_bytes, double d2h_bytes,
                          std::function<void()> body,
                          sim::Promise<sim::Unit> done) {
  simdev::Stream& s = cluster->node(rank).gpu(card).stream(stream);
  if (h2d_bytes > 0.0) s.memcpy_h2d(h2d_bytes);
  simdev::KernelDesc k;
  k.name = "stencil:halo:kernel";
  k.workload = workload;
  k.compute_efficiency = eff_compute;
  k.memory_efficiency = eff_memory;
  k.body = std::move(body);
  auto kf = s.launch(std::move(k));
  co_await kf;
  if (d2h_bytes > 0.0) {
    auto df = s.memcpy_d2h(d2h_bytes);
    co_await df;
  }
  done.set_value(sim::Unit{});
}

/// The job's startup charge; the first sweep's blocks wait for it.
sim::Process hg_startup(sim::Simulator* sim, sim::Promise<sim::Unit> done) {
  auto d = sim::delay(*sim, core::calib::kPrsJobStartup);
  co_await d;
  done.set_value(sim::Unit{});
}

/// Receiving side of one cross-rank halo row; its graph dependency on the
/// send node guarantees the message is already in flight.
sim::Process hg_recv(core::Cluster* cluster, int rank, int src, int tag,
                     sim::Promise<sim::Unit> done) {
  auto r = cluster->fabric().comm(rank).recv(src, tag);
  (void)co_await r;
  done.set_value(sim::Unit{});
}

}  // namespace

StencilResult stencil_graph(core::Cluster& cluster,
                            const linalg::MatrixD& initial,
                            const StencilParams& params,
                            const core::JobConfig& cfg,
                            core::JobStats* stats_out) {
  PRS_REQUIRE(initial.rows() >= 3 && initial.cols() >= 3,
              "stencil needs at least a 3x3 grid");
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
  PRS_REQUIRE(cfg.mode == core::ExecutionMode::kFunctional,
              "the halo graph computes real grids (functional mode only)");
  PRS_REQUIRE(cfg.pipeline_depth >= 2,
              "the halo graph needs pipeline_depth >= 2 (buffer window)");
  auto& sim = cluster.simulator();
  const std::size_t cols = initial.cols();
  const std::size_t interior = initial.rows() - 2;
  const int nodes = cluster.size();
  const int depth = cfg.pipeline_depth;
  const int K = depth + 1;  // ping-pong buffers

  // Level-2 decision per node (same policy surface as the MapReduce path),
  // then a capability-weighted level-1 row split.
  core::StaticAnalyticPolicy static_policy;
  core::SchedulePolicy* policy =
      cfg.policy != nullptr ? cfg.policy : &static_policy;
  PRS_REQUIRE(policy->dispatch() == core::SchedulingMode::kStatic,
              "the halo graph needs a static-dispatch policy");
  auto shape_state = std::make_shared<StencilState>();
  const StencilSpec spec = stencil_spec(shape_state, cols);
  const core::JobShape shape = core::detail::job_shape(spec);
  std::vector<double> capability(static_cast<std::size_t>(nodes), 0.0);
  std::vector<double> cpu_fraction(static_cast<std::size_t>(nodes), 1.0);
  for (int r = 0; r < nodes; ++r) {
    const core::NodeDecision d = policy->node_decision(cluster, shape, cfg, r);
    capability[static_cast<std::size_t>(r)] = d.capability;
    cpu_fraction[static_cast<std::size_t>(r)] = d.cpu_fraction;
  }
  const std::vector<core::InputSlice> shares =
      core::Partitioner::node_shares(interior, capability);

  // Block decomposition, ascending by row so index adjacency == halo
  // adjacency: each rank's share splits CPU-head/GPU-tail at its p, the
  // CPU part into two core-pool tasks, the GPU part into one block per
  // stream. Any decomposition yields the same grid — this one just keeps
  // every backend busy within each rank.
  std::vector<HaloBlock> blocks;
  for (int r = 0; r < nodes; ++r) {
    const auto rk = static_cast<std::size_t>(r);
    const core::InputSlice share = shares[rk];
    if (share.empty()) continue;
    const bool has_gpu = cfg.use_gpu && cluster.node(r).gpu_count() > 0;
    const double p = has_gpu ? cpu_fraction[rk] : 1.0;
    const auto [cpu_rows, gpu_rows] = share.split_at_fraction(p);
    for (const core::InputSlice& s : cpu_rows.blocks(2)) {
      if (s.empty()) continue;
      HaloBlock b;
      b.r0 = s.begin;
      b.r1 = s.end;
      b.rank = r;
      blocks.push_back(b);
    }
    if (!gpu_rows.empty() && has_gpu) {
      const int cards = cluster.node(r).gpu_count();
      const int streams = std::max(
          1, policy->gpu_streams(cluster, shape, cfg, r, share.size(),
                                 cpu_fraction[rk]));
      const auto n_gpu_blocks = static_cast<std::size_t>(cards * streams);
      std::size_t i = 0;
      for (const core::InputSlice& s : gpu_rows.blocks(n_gpu_blocks)) {
        if (s.empty()) continue;
        HaloBlock b;
        b.r0 = s.begin;
        b.r1 = s.end;
        b.rank = r;
        b.gpu = true;
        b.card = static_cast<int>(i % static_cast<std::size_t>(cards));
        b.stream = static_cast<int>((i / static_cast<std::size_t>(cards)) %
                                    static_cast<std::size_t>(streams));
        ++i;
        blocks.push_back(b);
      }
    }
  }
  const std::size_t B = blocks.size();
  PRS_CHECK(B > 0, "halo decomposition produced no blocks");

  // Ping-pong iterate buffers. Only the fixed boundary rows of slots
  // 1..K-1 are ever read before being written; copying the whole grid is
  // the simplest way to get them right.
  std::vector<linalg::MatrixD> bufs(static_cast<std::size_t>(K), initial);
  auto box = std::make_shared<HaloBox>();
  auto fail = std::make_shared<core::detail::GraphFailBox>();

  const double t0 = sim.now();
  const core::detail::ClusterCounters counters0 =
      core::detail::snapshot_counters(cluster);

  // Per-block roofline numbers (shared by CPU and GPU flavours).
  const double flops_per_row = stencil_flops_per_row(cols);
  const double ai = stencil_arithmetic_intensity();

  std::vector<std::vector<double>> residuals;
  int j0 = 0;
  while (!box->finished && j0 < params.max_iterations) {
    // Multi-tenant service gate: the job server interleaves concurrent
    // jobs at this boundary (and cancels cooperatively by throwing).
    if (cfg.stage_gate) cfg.stage_gate(j0);
    const int window = std::min(kChunk, params.max_iterations - j0);
    residuals.assign(static_cast<std::size_t>(window),
                     std::vector<double>(B, 0.0));
    graph::TaskGraph g("stencil:halo@" + std::to_string(j0));
    graph::NodeId startup = graph::kNoNode;
    if (j0 == 0 && cfg.charge_job_startup) {
      startup = g.add_work(
          "startup", "delay", 0,
          [](sim::Simulator& s, sim::Promise<sim::Unit> done) {
            return hg_startup(&s, std::move(done));
          });
    }
    // node ids of the previous iteration's blocks / this window's retires
    std::vector<graph::NodeId> prev(B, graph::kNoNode);
    std::vector<graph::NodeId> retires;
    // prev_recv[b] = recv nodes feeding block b's next iteration
    std::vector<std::vector<graph::NodeId>> prev_recv(B);

    for (int jj = 0; jj < window; ++jj) {
      const int j = j0 + jj;
      std::vector<graph::NodeId> cur(B, graph::kNoNode);
      for (std::size_t b = 0; b < B; ++b) {
        const HaloBlock& hb = blocks[b];
        const std::string name = "i" + std::to_string(j) + ":b" +
                                 std::to_string(b) +
                                 (hb.gpu ? ":gpu" : ":cpu");
        const double rows = static_cast<double>(hb.r1 - hb.r0);
        simdev::Workload w;
        w.flops = rows * flops_per_row;
        w.mem_traffic = w.flops / ai;
        // The functional payload: relax this block's rows from the read
        // buffer into the write buffer and record the block residual.
        auto body = core::detail::graph_wrap_body(
            [bp = &bufs, rp = &residuals, j, jj, b, K, r0 = hb.r0,
             r1 = hb.r1] {
              const linalg::MatrixD& in =
                  (*bp)[static_cast<std::size_t>(j % K)];
              linalg::MatrixD& out =
                  (*bp)[static_cast<std::size_t>((j + 1) % K)];
              std::vector<double> rows_out;
              const double res =
                  stencil_detail::relax_rows(in, r0 + 1, r1 + 1, rows_out);
              const std::size_t c_n = in.cols();
              for (std::size_t r = r0; r < r1; ++r) {
                for (std::size_t c = 0; c < c_n; ++c) {
                  out(r + 1, c) = rows_out[(r - r0) * c_n + c];
                }
              }
              (*rp)[static_cast<std::size_t>(jj)][b] = res;
            },
            fail, name);
        graph::NodeId n;
        if (hb.gpu) {
          // Two halo rows in, the block's updated rows back out.
          const double h2d = 2.0 * spec.item_bytes;
          const double d2h = rows * spec.gpu_item_d2h_bytes;
          n = g.add_work(
              name, "kernel", hb.rank,
              [cl = &cluster, rank = hb.rank, card = hb.card,
               stream = hb.stream, w, ec = spec.efficiency.gpu_compute,
               em = spec.efficiency.gpu_memory, h2d, d2h,
               body](sim::Simulator& s, sim::Promise<sim::Unit> done) {
                (void)s;
                return hg_gpu_block(cl, rank, card, stream, w, ec, em, h2d,
                                    d2h, body, std::move(done));
              });
        } else {
          n = g.add_work(
              name, "cpu", hb.rank,
              [cl = &cluster, rank = hb.rank, w,
               ec = spec.efficiency.cpu_compute,
               em = spec.efficiency.cpu_memory,
               body](sim::Simulator& s, sim::Promise<sim::Unit> done) {
                (void)s;
                return hg_cpu_block(cl, rank, w, ec, em, body,
                                    std::move(done));
              });
        }
        if (jj > 0) {
          // Halo dependencies on the previous sweep: same-rank neighbours
          // by direct edge, cross-rank ones through their recv nodes.
          g.depend(n, prev[b]);
          if (b > 0 && blocks[b - 1].rank == hb.rank) {
            g.depend(n, prev[b - 1]);
          }
          if (b + 1 < B && blocks[b + 1].rank == hb.rank) {
            g.depend(n, prev[b + 1]);
          }
          for (const graph::NodeId rv : prev_recv[b]) g.depend(n, rv);
        } else if (startup != graph::kNoNode) {
          g.depend(n, startup);
        }
        // Buffer window: never run more than `depth` sweeps ahead of the
        // convergence check.
        if (jj >= depth) {
          g.depend(n, retires[static_cast<std::size_t>(jj - depth)]);
        }
        cur[b] = n;
      }

      // Cross-rank halo exchange for the NEXT sweep: one row each way per
      // rank boundary. Tags cycle mod 2K — safely outside the in-flight
      // window — and encode the boundary and direction.
      for (auto& rv : prev_recv) rv.clear();
      for (std::size_t b = 0; b + 1 < B; ++b) {
        if (blocks[b].rank == blocks[b + 1].rank) continue;
        if (jj + 1 >= window) break;  // last sweep of the window: no readers
        const double bytes = spec.item_bytes;
        const int tag_base = 500 + (j % (2 * K)) * 64;
        for (int dir = 0; dir < 2; ++dir) {
          const std::size_t from = dir == 0 ? b : b + 1;
          const std::size_t to = dir == 0 ? b + 1 : b;
          const int src = blocks[from].rank;
          const int dst = blocks[to].rank;
          const int tag = tag_base + static_cast<int>(b) * 2 + dir;
          const std::string hn = "i" + std::to_string(j) + ":halo:b" +
                                 std::to_string(from) + ">b" +
                                 std::to_string(to);
          const graph::NodeId send = g.add_host(
              hn + ":send", "net", src,
              [cl = &cluster, src, dst, tag, bytes] {
                cl->fabric().comm(src).send(dst, tag,
                                            simnet::Message{bytes, {}});
              });
          g.depend(send, cur[from]);
          const graph::NodeId recv = g.add_work(
              hn + ":recv", "net", dst,
              [cl = &cluster, dst, src, tag](sim::Simulator& s,
                                             sim::Promise<sim::Unit> done) {
                (void)s;
                return hg_recv(cl, dst, src, tag, std::move(done));
              });
          g.depend(recv, send);
          prev_recv[to].push_back(recv);
        }
      }

      // Retire: fold the sweep's block residuals in block order on the
      // master and stop the wavefront once converged.
      const graph::NodeId retire = g.add_host(
          "i" + std::to_string(j) + ":retire", "host", 0,
          [box, rp = &residuals, jj, j,
           max_iterations = params.max_iterations, eps = params.epsilon] {
            if (box->finished) return;  // overrun sweep: ignored
            double res = 0.0;
            for (const double r : (*rp)[static_cast<std::size_t>(jj)]) {
              res = std::max(res, r);
            }
            box->residual = res;
            box->iterations = j + 1;
            box->final_iter = j;
            if (res < eps || j + 1 >= max_iterations) {
              box->finished = true;
              if (box->exec != nullptr) box->exec->cancel_pending();
            }
          });
      for (const graph::NodeId n : cur) g.depend(retire, n);
      retires.push_back(retire);
      prev = cur;
    }

    if (!cfg.graph_dump_path.empty() && j0 == 0) {
      core::detail::write_graph_dot(g, cfg.graph_dump_path);
    }
    graph::GraphExecutor exec(sim, g);
    fail->exec = &exec;
    box->exec = &exec;
    core::detail::run_graph(sim, exec);
    box->exec = nullptr;
    fail->exec = nullptr;
    j0 += window;
  }

  PRS_CHECK(box->final_iter >= 0, "halo graph retired no sweep");
  StencilResult res;
  res.grid = bufs[static_cast<std::size_t>((box->final_iter + 1) % K)];
  res.residual = box->residual;
  res.iterations = box->iterations;
  if (stats_out != nullptr) {
    const core::detail::ClusterCounters counters1 =
        core::detail::snapshot_counters(cluster);
    core::JobStats s;
    s.elapsed = sim.now() - t0;
    s.cpu_busy = counters1.cpu_busy - counters0.cpu_busy;
    s.gpu_busy = counters1.gpu_busy - counters0.gpu_busy;
    s.cpu_flops = counters1.cpu_flops - counters0.cpu_flops;
    s.gpu_flops = counters1.gpu_flops - counters0.gpu_flops;
    s.pcie_bytes = counters1.pcie - counters0.pcie;
    s.network_bytes = counters1.net - counters0.net;
    s.map_tasks = static_cast<std::uint64_t>(B) *
                  static_cast<std::uint64_t>(box->iterations);
    s.iterations = box->iterations;
    s.startup_time = cfg.charge_job_startup ? core::calib::kPrsJobStartup : 0.0;
    *stats_out = s;
  }
  return res;
}

}  // namespace prs::apps

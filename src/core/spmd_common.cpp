#include "core/spmd_common.hpp"

#include <algorithm>
#include <cstring>

#include "hsi/metrics.hpp"
#include "linalg/flops.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/vec.hpp"
#include "obs/metrics.hpp"

namespace hprs::core::detail {

PartitionView distribute_partitions(vmpi::Comm& comm,
                                    const hsi::HsiCube& cube,
                                    const WorkloadModel& model,
                                    PartitionPolicy policy,
                                    double memory_fraction,
                                    std::size_t overlap,
                                    std::size_t replication,
                                    bool defer_staging) {
  std::vector<PartitionView> views;
  std::vector<std::size_t> bytes;
  if (comm.is_root()) {
    const PartitionResult partition =
        wea_partition(comm.platform(), cube.rows(), cube.cols(), model,
                      policy, memory_fraction, overlap, comm.root());
    // The WEA itself is a handful of arithmetic per processor, performed by
    // the master before any parallel work exists.
    comm.compute(64ULL * static_cast<std::uint64_t>(comm.size()),
                 vmpi::Phase::kSequential);
    views.reserve(partition.parts.size());
    bytes.reserve(partition.parts.size());
    for (const auto& part : partition.parts) {
      PartitionView v{&cube, part};
      // Default: data is pre-staged on the nodes (the only reading
      // consistent with the paper's measured times; see DESIGN.md), so the
      // scatter ships a small partition descriptor.  With scatter_input the
      // full block crosses the wire.
      bytes.push_back(model.scatter_input ? v.wire_bytes() * replication
                                          : kPartitionDescriptorBytes);
      views.push_back(v);
    }
  }
  PartitionView view = comm.scatter(comm.root(), std::move(views), bytes);
  // Accelerated ranks copy their block across the host<->device path before
  // any kernel can touch it; a no-op for plain CPU ranks, so historic
  // platforms keep their virtual clocks bit-for-bit.  Tiled streaming
  // callers defer the charge to begin_tile_stream instead.
  if (!defer_staging) comm.stage_to_device(view.wire_bytes() * replication);
  return view;
}

TileStream begin_tile_stream(vmpi::Comm& comm, const PartitionView& view,
                             std::size_t tile_rows, bool streaming,
                             std::size_t replication) {
  TileStream ts;
  const RowPartition& part = view.part;
  const std::size_t bytes_per_row =
      view.cube->cols() * view.cube->bytes_per_pixel();
  ts.tiles = linalg::make_row_tiles(
      part.row_begin, part.row_end, bytes_per_row,
      linalg::resolve_tile_rows(tile_rows, part.owned_rows()));
  ts.streaming = streaming;
  if (!streaming) return ts;
  // Enqueue every tile's copy now, in the deterministic stage-chain order:
  // the DMA pipe drains in the background while the host-side phases that
  // precede the device sweeps (clustering, means, gathers) run, and each
  // sweep only waits out whatever part of its tile's copy is still exposed.
  ts.staged_until.assign(ts.tiles.size(), 0.0);
  linalg::TileGraph stages;
  for (std::size_t k = 0; k < ts.tiles.size(); ++k) {
    const std::size_t id = stages.add_node(linalg::TileNodeKind::kStage, k, k);
    if (k > 0) stages.add_edge(id - 1, id);
  }
  stages.run([&](const linalg::TileNode& node) {
    ts.staged_until[node.tile] =
        comm.stage_to_device_async(ts.tiles[node.tile].bytes * replication);
  });
  return ts;
}

double osp_score(const linalg::Matrix& targets,
                 const linalg::Cholesky& gram_factor,
                 std::span<const float> pixel) {
  const std::size_t t = targets.rows();
  std::vector<double> b(t);
  for (std::size_t i = 0; i < t; ++i) {
    b[i] = linalg::dot<double, float>(targets.row(i), pixel);
  }
  const std::vector<double> z = gram_factor.solve(b);
  const double xx = linalg::norm_sq(pixel);
  const double bz = linalg::dot<double, double>(b, z);
  return xx - bz;
}

CorrPlane::Key CorrPlane::key_of(const hsi::HsiCube& cube,
                                 std::size_t row_begin, std::size_t row_end,
                                 std::size_t stride) {
  return Key{cube.samples().data(), cube.rows(),  cube.cols(), cube.bands(),
             row_begin,             row_end,      stride};
}

void CorrPlane::sync(const hsi::HsiCube& cube, std::size_t row_begin,
                     std::size_t row_end, const linalg::Matrix& u,
                     std::size_t stride) {
  HPRS_REQUIRE(row_begin <= row_end && row_end <= cube.rows(),
               "correlation plane rows out of range");
  HPRS_REQUIRE(u.rows() <= stride,
               "more targets than the correlation plane's stride");
  HPRS_REQUIRE(u.rows() == 0 || u.cols() == cube.bands(),
               "target band count mismatch");
  const std::size_t bands = cube.bands();
  const std::size_t pixels = (row_end - row_begin) * cube.cols();
  const float* x = cube.samples().data() + row_begin * cube.cols() * bands;
  const Key key = key_of(cube, row_begin, row_end, stride);
  if (!(key == key_)) {
    key_ = key;
    held_ = 0;
    rows_.clear();
    corr_.resize(pixels * stride);
    xx_.resize(pixels);
    linalg::norm_sq_strip(x, pixels, bands, xx_);
  }
  // Keep the held rows up to the first one U no longer matches bytewise.
  std::size_t keep = 0;
  while (keep < held_ && keep < u.rows() &&
         std::memcmp(rows_.data() + keep * bands, u.row(keep).data(),
                     bands * sizeof(double)) == 0) {
    ++keep;
  }
  const std::size_t fresh = u.rows() - keep;
  if (fresh > 0) {
    linalg::Matrix new_rows(fresh, bands);
    for (std::size_t i = 0; i < fresh; ++i) {
      std::copy_n(u.row(keep + i).data(), bands, new_rows.row(i).data());
    }
    // dot_strip writes a strip's products pixel-major with stride `fresh`;
    // each lands in its pixel's slots [keep, keep + fresh) of the plane.
    constexpr std::size_t kStrip = 256;
    std::vector<double> strip(kStrip * fresh);
    for (std::size_t p0 = 0; p0 < pixels; p0 += kStrip) {
      const std::size_t m = std::min(kStrip, pixels - p0);
      linalg::dot_strip(new_rows, x + p0 * bands, m, strip);
      for (std::size_t p = 0; p < m; ++p) {
        std::copy_n(strip.data() + p * fresh, fresh,
                    corr_.data() + (p0 + p) * stride + keep);
      }
    }
  }
  rows_.resize(keep * bands);
  rows_.insert(rows_.end(), u.data().begin() + keep * bands, u.data().end());
  held_ = u.rows();
  auto& metrics = obs::Metrics::instance();
  metrics.add("core.corr_plane.rows_computed", fresh, obs::Domain::kHost);
  metrics.add("core.corr_plane.rows_reused", keep, obs::Domain::kHost);
}

bool CorrPlane::holds(const hsi::HsiCube& cube, std::size_t row_begin,
                      std::size_t row_end, const linalg::Matrix& u) const {
  const Key key = key_of(cube, key_.row_begin, key_.row_end, key_.stride);
  return key == key_ && row_begin >= key_.row_begin &&
         row_end <= key_.row_end && held_ == u.rows() &&
         (held_ == 0 || std::memcmp(rows_.data(), u.data().data(),
                                    rows_.size() * sizeof(double)) == 0);
}

namespace {

/// Runs scan(lane, r0, r1) over contiguous row blocks of [row_begin,
/// row_end), one block per lane, inside a kernel-thread region.  Each lane
/// scans its rows in the serial row-major order with strictly-greater
/// updates into lane.best; folding the lanes' bests in ascending lane
/// order with the same comparison reproduces the serial sweep's first
/// maximum exactly, so the thread count cannot change the pick.
template <typename Lane, typename Scan>
Candidate lane_argmax(std::vector<Lane>& lanes, std::size_t row_begin,
                      std::size_t row_end, Scan&& scan) {
  const std::size_t workers = lanes.size();
  const std::size_t n_rows = row_end > row_begin ? row_end - row_begin : 0;
  const std::size_t per = (n_rows + workers - 1) / workers;
  linalg::parallel_region(workers, [&](std::size_t worker,
                                       std::size_t actual) {
    // `actual` can be smaller than the planned lane count (a nested region
    // runs inline); stride over lanes so every block is still scanned.
    for (std::size_t w = worker; w < workers; w += actual) {
      const std::size_t r0 = row_begin + w * per;
      scan(lanes[w], r0, std::min(row_end, r0 + per));
    }
  });
  Candidate best{0, 0, -1.0};
  for (const auto& lane : lanes) {
    if (lane.best.score > best.score) best = lane.best;
  }
  return best;
}

/// Lane count of a row sweep: one per kernel thread, at most one per row.
std::size_t sweep_lanes(std::size_t row_begin, std::size_t row_end) {
  const std::size_t n_rows = row_end > row_begin ? row_end - row_begin : 0;
  return std::max<std::size_t>(1, std::min(linalg::kernel_threads(), n_rows));
}

}  // namespace

Candidate osp_argmax_sweep(const linalg::Matrix& targets,
                           const linalg::Cholesky& gram_factor,
                           const hsi::HsiCube& cube, std::size_t row_begin,
                           std::size_t row_end, const CorrPlane& plane,
                           linalg::ScratchArena& arena) {
  Candidate best{0, 0, -1.0};
  const std::size_t cols = cube.cols();
  if (linalg::use_reference_kernels()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double score = osp_score(targets, gram_factor, cube.pixel(r, c));
        if (score > best.score) best = Candidate{r, c, score};
      }
    }
    return best;
  }
  HPRS_REQUIRE(plane.holds(cube, row_begin, row_end, targets),
               "correlation plane does not hold the sweep's rows and targets");

  // Each lane stages a 64-pixel strip of the plane (b packed at stride t,
  // plus ||x||^2) in its arena buffers and back-solves the whole strip in
  // one multi-right-hand-side call (Cholesky::solve_strip_into: up to
  // eight pixels' substitutions in lockstep, each bit-identical to its own
  // solve_into).  The strip's solutions live in lane-owned storage: the
  // arena's per-lane total is what the stable, golden-pinned
  // linalg.scratch_high_water_doubles gauge reports, so it keeps the
  // layout of the per-pixel solve (b strip, ||x||^2 strip, one t-double
  // solution slot that the strip solve no longer writes).  The arena's
  // chunks are stable, so spans taken up front survive the region.
  constexpr std::size_t kStrip = 64;
  const std::size_t t = targets.rows();
  struct Lane {
    std::span<double> b, xx;
    std::vector<double> z;  // kStrip x t: the strip's solutions
    Candidate best{0, 0, -1.0};
  };
  std::vector<Lane> lanes(sweep_lanes(row_begin, row_end));
  arena.reset();
  for (auto& lane : lanes) {
    lane.b = arena.take(kStrip * t);
    lane.xx = arena.take(kStrip);
    (void)arena.take(t);  // the per-pixel solution slot (pinned gauge)
    lane.z.resize(kStrip * t);
  }
  return lane_argmax(lanes, row_begin, row_end,
                     [&](Lane& lane, std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
        const std::size_t m = std::min(kStrip, cols - c0);
        for (std::size_t p = 0; p < m; ++p) {
          const std::span<const double> bp = plane.corr(r, c0 + p);
          std::copy(bp.begin(), bp.end(), lane.b.begin() + p * t);
          lane.xx[p] = plane.norm_sq(r, c0 + p);
        }
        const std::span<double> z(lane.z);
        gram_factor.solve_strip_into(lane.b.first(m * t), m, z.first(m * t));
        for (std::size_t p = 0; p < m; ++p) {
          const double score =
              lane.xx[p] - linalg::dot<double, double>(lane.b.subspan(p * t, t),
                                                       z.subspan(p * t, t));
          if (score > lane.best.score) lane.best = Candidate{r, c0 + p, score};
        }
      }
    }
  });
}

ErrorSweepOut fcls_error_sweep(const hsi::HsiCube& cube,
                               const linalg::Matrix& u,
                               const linalg::Unmixer& unmixer,
                               std::size_t row_begin, std::size_t row_end,
                               const CorrPlane& plane) {
  using linalg::flops::Count;
  ErrorSweepOut out;
  const std::size_t t_cur = u.rows();
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  if (linalg::use_reference_kernels()) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto unmix = unmixer.fcls(cube.pixel(r, c));
        out.flops += linalg::flops::fcls(
            bands, t_cur, static_cast<Count>(unmix.iterations) + 1);
        if (unmix.error_sq > out.best.score) {
          out.best = Candidate{r, c, unmix.error_sq};
        }
      }
    }
    return out;
  }
  HPRS_REQUIRE(plane.holds(cube, row_begin, row_end, u),
               "correlation plane does not hold the sweep's rows and targets");

  // Each lane gathers the correlation vectors of up to four consecutive
  // pixels of a row, solves their first active-set round in one
  // multi-right-hand-side call over the full-set factor
  // (Unmixer::full_set_solve), and hands each pixel its solution.  The
  // gather buffers are lane-owned, sized once per sweep.
  constexpr std::size_t kGroup = 4;
  struct Lane {
    linalg::FclsScratch scratch;
    std::vector<double> corr, au;  // kGroup x t each
    Count flops = 0;
    Candidate best{0, 0, -1.0};
  };
  std::vector<Lane> lanes(sweep_lanes(row_begin, row_end));
  for (auto& lane : lanes) {
    lane.corr.resize(kGroup * t_cur);
    lane.au.resize(kGroup * t_cur);
  }
  out.best = lane_argmax(lanes, row_begin, row_end,
                         [&](Lane& lane, std::size_t r0, std::size_t r1) {
    const std::span<double> corr(lane.corr);
    const std::span<double> au(lane.au);
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c0 = 0; c0 < cols; c0 += kGroup) {
        const std::size_t m = std::min(kGroup, cols - c0);
        for (std::size_t p = 0; p < m; ++p) {
          const std::span<const double> bp = plane.corr(r, c0 + p);
          std::copy(bp.begin(), bp.end(), corr.begin() + p * t_cur);
        }
        unmixer.full_set_solve(corr.first(m * t_cur), m, au.first(m * t_cur));
        for (std::size_t p = 0; p < m; ++p) {
          const std::size_t c = c0 + p;
          const linalg::FclsStats unmix = unmixer.fcls_with_corr(
              corr.subspan(p * t_cur, t_cur), plane.norm_sq(r, c),
              lane.scratch, au.subspan(p * t_cur, t_cur));
          lane.flops += linalg::flops::fcls(
              bands, t_cur, static_cast<Count>(unmix.iterations) + 1);
          if (unmix.error_sq > lane.best.score) {
            lane.best = Candidate{r, c, unmix.error_sq};
          }
        }
      }
    }
  });
  for (const auto& lane : lanes) out.flops += lane.flops;
  return out;
}

linalg::Matrix ridged_row_gram(const linalg::Matrix& u) {
  linalg::Matrix g = u.multiply(u.transposed());
  double trace = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i) trace += g(i, i);
  const double ridge = 1e-10 * trace / static_cast<double>(g.rows());
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += ridge;
  return g;
}

std::vector<double> to_double(std::span<const float> pixel) {
  return std::vector<double>(pixel.begin(), pixel.end());
}

UniqueSetSelection consolidate_unique_set(
    std::span<const SpectralCandidate> pool, std::size_t c,
    double sad_threshold) {
  UniqueSetSelection out;

  struct Cluster {
    std::size_t exemplar;   // pool index of the first (best-quality) member
    std::size_t support = 1;
  };
  std::vector<Cluster> clusters;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bool merged = false;
    for (auto& cl : clusters) {
      ++out.sad_evals;
      if (hsi::sad<float, float>(pool[cl.exemplar].spectrum,
                                 pool[i].spectrum) <= sad_threshold) {
        ++cl.support;
        merged = true;
        break;
      }
    }
    if (!merged) {
      clusters.push_back(Cluster{i, 1});
    }
  }

  // Rank clusters by support, breaking ties by candidate quality and then
  // pool order (all deterministic).
  std::sort(clusters.begin(), clusters.end(),
            [&](const Cluster& a, const Cluster& b) {
              if (a.support != b.support) return a.support > b.support;
              if (pool[a.exemplar].weight != pool[b.exemplar].weight) {
                return pool[a.exemplar].weight > pool[b.exemplar].weight;
              }
              return a.exemplar < b.exemplar;
            });
  const std::size_t keep = std::min(c, clusters.size());
  out.chosen.reserve(keep);
  for (std::size_t k = 0; k < keep; ++k) {
    out.chosen.push_back(clusters[k].exemplar);
  }
  return out;
}

}  // namespace hprs::core::detail

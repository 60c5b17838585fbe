#include "core/pct.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "hsi/metrics.hpp"
#include "linalg/eigen.hpp"
#include "linalg/flops.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using linalg::flops::Count;

/// A unique-set member: where it came from and its full spectrum.
struct Rep {
  PixelLocation loc;
  std::vector<float> spectrum;
};

std::size_t rep_bytes(std::size_t bands, std::size_t count) {
  return count * (bands * sizeof(float) + 8);
}

/// Everything the workers need for the transform + labeling stage.
struct PctBundle {
  linalg::Matrix transform;      // c x bands (leading eigenvector rows)
  std::vector<double> mean;      // bands
  linalg::Matrix reduced_reps;   // label_count x c (reps in PCT space)
};

/// A worker's labeled slice.
struct LabelBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<std::uint16_t> labels;  // owned_rows * cols
};

using linalg::flops::Count;

// --- per-partition kernels, shared by the collective and fault-tolerant
// schedules (identical arithmetic either way) ------------------------------

/// Step 2: online SAD clustering of rows [row_begin, row_end); returns the
/// best-supported 3c exemplars and the SAD count for the caller to charge.
struct UniqueOut {
  std::vector<Rep> reps;
  Count sad_evals = 0;
};

UniqueOut local_unique_sets(const hsi::HsiCube& cube, std::size_t row_begin,
                            std::size_t row_end, const PctConfig& config) {
  const std::size_t cols = cube.cols();
  struct LocalCluster {
    Rep exemplar;
    std::size_t support = 1;
    double norm = 0.0;  // ||exemplar|| (fast path: hoisted out of sad)
  };
  const bool fast = !linalg::use_reference_kernels();
  UniqueOut out;
  std::vector<LocalCluster> local_clusters;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto px = cube.pixel(r, c);
      const double px_norm = fast ? linalg::norm(px) : 0.0;
      bool merged = false;
      for (auto& cl : local_clusters) {
        ++out.sad_evals;
        const double dist =
            fast ? hsi::sad_with_norms<float, float>(cl.exemplar.spectrum,
                                                     px, cl.norm, px_norm)
                 : hsi::sad<float, float>(cl.exemplar.spectrum, px);
        if (dist <= config.sad_threshold) {
          ++cl.support;
          merged = true;
          break;
        }
      }
      if (!merged) {
        local_clusters.push_back(LocalCluster{
            Rep{{r, c}, std::vector<float>(px.begin(), px.end())}, 1,
            px_norm});
      }
    }
  }
  std::sort(local_clusters.begin(), local_clusters.end(),
            [](const LocalCluster& a, const LocalCluster& b) {
              if (a.support != b.support) return a.support > b.support;
              if (a.exemplar.loc.row != b.exemplar.loc.row) {
                return a.exemplar.loc.row < b.exemplar.loc.row;
              }
              return a.exemplar.loc.col < b.exemplar.loc.col;
            });
  const std::size_t local_cap =
      std::min<std::size_t>(3 * config.classes, local_clusters.size());
  out.reps.reserve(local_cap);
  for (std::size_t k = 0; k < local_cap; ++k) {
    out.reps.push_back(std::move(local_clusters[k].exemplar));
  }
  return out;
}

/// Step 3 (master): merges the per-partition unique sets, in partition
/// order, into at most c exemplars.  Charges the consolidation SADs.
std::vector<Rep> merge_unique_sets(vmpi::Comm& comm,
                                   std::vector<std::vector<Rep>> rep_sets,
                                   const PctConfig& config,
                                   std::size_t bands) {
  std::vector<detail::SpectralCandidate> pool;
  for (auto& set : rep_sets) {
    for (auto& rep : set) {
      pool.push_back(detail::SpectralCandidate{rep.loc,
                                               std::move(rep.spectrum),
                                               0.0});
    }
  }
  const auto selection = detail::consolidate_unique_set(
      pool, config.classes, config.sad_threshold);
  std::vector<Rep> unique;
  for (const std::size_t idx : selection.chosen) {
    unique.push_back(Rep{pool[idx].loc, std::move(pool[idx].spectrum)});
  }
  comm.compute(selection.sad_evals * hsi::flops::sad(bands),
               vmpi::Phase::kSequential);
  return unique;
}

/// Steps 4-6: band sums of rows [row_begin, row_end).
struct MeanOut {
  std::vector<double> sums;
  Count flops = 0;
};

/// Accumulates the band sums of rows [row_begin, row_end) into `sums`
/// (length bands) and returns the flops performed.  Tiles of a partition
/// call this back to back on one shared `sums`: each band's addition chain
/// extends strictly in row order, so any tiling of the owned range is
/// bit-identical to the monolithic sweep.
Count accum_mean_rows(const hsi::HsiCube& cube, std::size_t row_begin,
                      std::size_t row_end, double* sums) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  Count flops = 0;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto px = cube.pixel(r, c);
      for (std::size_t b = 0; b < bands; ++b) {
        sums[b] += px[b];
      }
      flops += bands;
    }
  }
  return flops;
}

MeanOut local_mean_sums(const hsi::HsiCube& cube, std::size_t row_begin,
                        std::size_t row_end) {
  MeanOut out;
  out.sums.assign(cube.bands(), 0.0);
  out.flops = accum_mean_rows(cube, row_begin, row_end, out.sums.data());
  return out;
}

/// Master fold of the partition band sums (partition order) into the mean.
std::vector<double> fold_mean(vmpi::Comm& comm,
                              const std::vector<std::vector<double>>& parts,
                              std::size_t pixel_count, std::size_t bands) {
  std::vector<double> mean(bands, 0.0);
  for (const auto& part : parts) {
    for (std::size_t b = 0; b < bands; ++b) mean[b] += part[b];
  }
  const double n = static_cast<double>(pixel_count);
  for (auto& m : mean) m /= n;
  comm.compute(parts.size() * bands + bands, vmpi::Phase::kSequential);
  return mean;
}

/// Upper-triangle covariance accumulation over rows [row_begin, row_end),
/// dispatching between the per-pixel rank-1 loop and the strip syrk fast
/// path (bit-identical sums).
struct CovOut {
  std::vector<double> tri;
  Count flops = 0;
};

/// Accumulates the centered covariance triangle of rows
/// [row_begin, row_end) into `tri` and returns the flops performed.  Like
/// accum_mean_rows, tiles extend each triangle element's addition chain in
/// row order on a shared `tri`, so any tiling is bit-identical to the
/// monolithic sweep.
Count accum_cov_rows(const hsi::HsiCube& cube, std::size_t row_begin,
                     std::size_t row_end, const std::vector<double>& mean,
                     double* tri) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  const std::size_t tri_n = bands * (bands + 1) / 2;
  Count flops = 0;
  if (linalg::use_reference_kernels()) {
    std::vector<double> centered(bands);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto px = cube.pixel(r, c);
        for (std::size_t b = 0; b < bands; ++b) {
          centered[b] = static_cast<double>(px[b]) - mean[b];
        }
        std::size_t k = 0;
        for (std::size_t i = 0; i < bands; ++i) {
          const double di = centered[i];
          for (std::size_t j = i; j < bands; ++j) {
            tri[k++] += di * centered[j];
          }
        }
        flops += bands + 2 * tri_n;
      }
    }
    return flops;
  }
  // Strip fast path: center a strip of pixels once, then apply one
  // rank-m syrk update to the packed triangle.  The per-element p-chain
  // extends the running value in the triangle, so the sums are
  // bit-identical to the per-pixel rank-1 loop above.
  constexpr std::size_t kStrip = 64;
  std::vector<double> cstrip(kStrip * bands);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const float* row = cube.pixel(r, 0).data();
    for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
      const std::size_t m = std::min(kStrip, cols - c0);
      const float* x = row + c0 * bands;
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t b = 0; b < bands; ++b) {
          cstrip[p * bands + b] =
              static_cast<double>(x[p * bands + b]) - mean[b];
        }
      }
      linalg::syrk_tri_update(cstrip.data(), m, bands, tri);
      flops += static_cast<Count>(m) * (bands + 2 * tri_n);
    }
  }
  return flops;
}

CovOut local_cov_sums(const hsi::HsiCube& cube, std::size_t row_begin,
                      std::size_t row_end, const std::vector<double>& mean) {
  CovOut out;
  out.tri.assign(cube.bands() * (cube.bands() + 1) / 2, 0.0);
  out.flops =
      accum_cov_rows(cube, row_begin, row_end, mean, out.tri.data());
  return out;
}

/// Step 7 (master): folds the covariance parts (partition order), solves
/// the eigenproblem, and builds the transform/labeling bundle.
PctBundle build_bundle(vmpi::Comm& comm,
                       const std::vector<std::vector<double>>& cov_parts,
                       const std::vector<double>& mean,
                       const std::vector<Rep>& unique,
                       const PctConfig& config, const hsi::HsiCube& cube) {
  const std::size_t bands = cube.bands();
  const std::size_t tri = bands * (bands + 1) / 2;
  std::vector<double> cov_sum(tri, 0.0);
  for (const auto& part : cov_parts) {
    for (std::size_t k = 0; k < tri; ++k) cov_sum[k] += part[k];
  }
  linalg::Matrix cov(bands, bands);
  const double n = static_cast<double>(cube.pixel_count());
  std::size_t k = 0;
  for (std::size_t i = 0; i < bands; ++i) {
    for (std::size_t j = i; j < bands; ++j) {
      cov(i, j) = cov_sum[k] / n;
      cov(j, i) = cov(i, j);
      ++k;
    }
  }
  comm.compute(cov_parts.size() * tri + tri, vmpi::Phase::kSequential);

  // Memoized: repeated covariances (shared scenes and partitions) reuse
  // the bit-identical decomposition, sweep count included.
  const auto eig = linalg::jacobi_eigen_memo(cov);
  comm.compute(static_cast<Count>(eig.sweeps) *
                   linalg::flops::jacobi_sweep(bands),
               vmpi::Phase::kSequential);

  PctBundle bundle;
  bundle.transform = linalg::Matrix(config.classes, bands);
  for (std::size_t comp = 0; comp < config.classes; ++comp) {
    for (std::size_t b = 0; b < bands; ++b) {
      bundle.transform(comp, b) = eig.vectors(comp, b);
    }
  }
  bundle.mean = mean;

  // Project the unique set into the reduced space.
  const std::size_t label_count = unique.size();
  std::vector<double> centered(bands);
  bundle.reduced_reps = linalg::Matrix(label_count, config.classes);
  for (std::size_t u = 0; u < label_count; ++u) {
    for (std::size_t b = 0; b < bands; ++b) {
      centered[b] =
          static_cast<double>(unique[u].spectrum[b]) - mean[b];
    }
    const auto y = bundle.transform.multiply(centered);
    for (std::size_t comp = 0; comp < config.classes; ++comp) {
      bundle.reduced_reps(u, comp) = y[comp];
    }
  }
  comm.compute(label_count * (bands + linalg::flops::matvec(
                                          config.classes, bands)),
               vmpi::Phase::kSequential);
  return bundle;
}

/// Steps 8-9: transform + reduced-space labeling of [row_begin, row_end).
struct LabelOut {
  LabelBlock block;
  Count flops = 0;
};

LabelOut label_partition(const hsi::HsiCube& cube, std::size_t row_begin,
                         std::size_t row_end, const PctBundle& bundle,
                         const PctConfig& config) {
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  const std::size_t reps = bundle.reduced_reps.rows();
  LabelOut out;
  out.block.row_begin = row_begin;
  out.block.row_end = row_end;
  out.block.labels.reserve((row_end - row_begin) * cols);
  const auto classify = [&](std::span<const double> y) {
    std::uint16_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < reps; ++u) {
      // Minimum Euclidean distance in the reduced space: the PCT
      // projection is mean-centered, so distances (not angles) are the
      // meaningful similarity there.
      double dist = 0.0;
      const auto rep = bundle.reduced_reps.row(u);
      for (std::size_t k = 0; k < config.classes; ++k) {
        const double diff = rep[k] - y[k];
        dist += diff * diff;
      }
      if (dist < best_d) {
        best_d = dist;
        best = static_cast<std::uint16_t>(u);
      }
    }
    return best;
  };
  if (linalg::use_reference_kernels()) {
    std::vector<double> centered(bands);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto px = cube.pixel(r, c);
        for (std::size_t b = 0; b < bands; ++b) {
          centered[b] = static_cast<double>(px[b]) - bundle.mean[b];
        }
        const auto y = bundle.transform.multiply(centered);
        out.block.labels.push_back(classify(y));
        out.flops += bands +
                     linalg::flops::matvec(config.classes, bands) +
                     reps * 3 * config.classes;
      }
    }
    return out;
  }
  // Strip fast path: center a strip once, project all its pixels with
  // one BLAS3 dot_strip call, and classify from the projection buffer.
  // dot_strip reproduces the matvec's per-row dot chains exactly, so
  // the labels match the reference pass bit for bit.
  constexpr std::size_t kStrip = 64;
  std::vector<double> cstrip(kStrip * bands);
  std::vector<double> ystrip(kStrip * config.classes);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const float* row = cube.pixel(r, 0).data();
    for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
      const std::size_t m = std::min(kStrip, cols - c0);
      const float* x = row + c0 * bands;
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t b = 0; b < bands; ++b) {
          cstrip[p * bands + b] =
              static_cast<double>(x[p * bands + b]) - bundle.mean[b];
        }
      }
      linalg::dot_strip(bundle.transform, cstrip.data(), m,
                        std::span<double>(ystrip));
      for (std::size_t p = 0; p < m; ++p) {
        out.block.labels.push_back(classify(std::span<const double>(
            ystrip.data() + p * config.classes, config.classes)));
        out.flops += bands +
                     linalg::flops::matvec(config.classes, bands) +
                     reps * 3 * config.classes;
      }
    }
  }
  return out;
}

/// Master assembly of the final label image (partition order irrelevant:
/// blocks write disjoint row ranges).
void assemble_label_image(vmpi::Comm& comm,
                          const std::vector<LabelBlock>& blocks,
                          const hsi::HsiCube& cube, std::size_t reps,
                          ClassificationResult& result) {
  result.labels.assign(cube.pixel_count(), 0);
  for (const auto& blk : blocks) {
    std::copy(blk.labels.begin(), blk.labels.end(),
              result.labels.begin() +
                  static_cast<std::ptrdiff_t>(blk.row_begin * cube.cols()));
  }
  result.label_count = std::max<std::size_t>(1, reps);
  comm.compute(cube.pixel_count() / 8, vmpi::Phase::kSequential);
}

}  // namespace

/// The fault-tolerant schedule (core/ft.hpp): the same kernels and folds,
/// with the mean and bundle shipped as phase payloads instead of broadcasts.
ft::Program pct_ft_program(const hsi::HsiCube& cube, const PctConfig& config,
                           ClassificationResult& result) {
  ft::Program prog;
  prog.model = pct_workload(cube.bands(), config.classes);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  // Phase 0: local unique spectral sets.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        const std::size_t bands = cube.bands();
        UniqueOut out = local_unique_sets(cube, chunk.part.row_begin,
                                          chunk.part.row_end, config);
        c.compute(out.sad_evals * hsi::flops::sad(bands) *
                  config.replication);
        const std::size_t count = out.reps.size();
        return ft::ChunkOutcome{std::move(out.reps),
                                rep_bytes(bands, count)};
      });
  // Phase 1: band sums.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        MeanOut out =
            local_mean_sums(cube, chunk.part.row_begin, chunk.part.row_end);
        c.compute(out.flops * config.replication);
        return ft::ChunkOutcome{std::move(out.sums),
                                cube.bands() * sizeof(double)};
      });
  // Phase 2: covariance triangle against the shipped mean.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& mean = std::any_cast<const std::vector<double>&>(*payload);
        CovOut out = local_cov_sums(cube, chunk.part.row_begin,
                                    chunk.part.row_end, mean);
        c.compute(out.flops * config.replication);
        const std::size_t tri = cube.bands() * (cube.bands() + 1) / 2;
        return ft::ChunkOutcome{std::move(out.tri), tri * sizeof(double)};
      });
  // Phase 3: transform + labeling against the shipped bundle.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& bundle = std::any_cast<const PctBundle&>(*payload);
        LabelOut out = label_partition(cube, chunk.part.row_begin,
                                       chunk.part.row_end, bundle, config);
        c.compute(out.flops * config.replication);
        const std::size_t bytes =
            out.block.labels.size() * sizeof(std::uint16_t) *
            config.replication;
        return ft::ChunkOutcome{std::move(out.block), bytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& master,
                                         const std::vector<ft::Handler>& h) {
    const std::size_t bands = cube.bands();

    // Steps 2-3: unique sets, merged in chunk (== rank) order.
    auto rep_any = master.phase(0, h[0]);
    std::vector<std::vector<Rep>> rep_sets;
    rep_sets.reserve(rep_any.size());
    for (auto& a : rep_any) {
      rep_sets.push_back(std::any_cast<std::vector<Rep>>(std::move(a)));
    }
    const std::vector<Rep> unique =
        merge_unique_sets(comm, std::move(rep_sets), config, bands);

    // Steps 4-6: mean, then covariance against it.
    auto mean_any = master.phase(1, h[1]);
    std::vector<std::vector<double>> mean_parts;
    mean_parts.reserve(mean_any.size());
    for (auto& a : mean_any) {
      mean_parts.push_back(std::any_cast<std::vector<double>>(std::move(a)));
    }
    const std::vector<double> mean =
        fold_mean(comm, mean_parts, cube.pixel_count(), bands);

    auto cov_any = master.phase(2, h[2],
                                std::make_shared<const std::any>(mean),
                                bands * sizeof(double));
    std::vector<std::vector<double>> cov_parts;
    cov_parts.reserve(cov_any.size());
    for (auto& a : cov_any) {
      cov_parts.push_back(std::any_cast<std::vector<double>>(std::move(a)));
    }

    // Step 7: sequential eigendecomposition + bundle at the master.
    PctBundle bundle =
        build_bundle(comm, cov_parts, mean, unique, config, cube);
    const std::size_t reps = bundle.reduced_reps.rows();
    const std::size_t bundle_bytes =
        config.classes * bands * sizeof(double) + bands * sizeof(double) +
        config.classes * config.classes * sizeof(double);

    // Steps 8-9: labeling against the shipped bundle.
    auto block_any = master.phase(3, h[3],
                                  std::make_shared<const std::any>(
                                      std::move(bundle)),
                                  bundle_bytes);
    std::vector<LabelBlock> blocks;
    blocks.reserve(block_any.size());
    for (auto& a : block_any) {
      blocks.push_back(std::any_cast<LabelBlock>(std::move(a)));
    }
    master.finish();
    assemble_label_image(comm, blocks, cube, reps, result);
  };
  return prog;
}

WorkloadModel pct_workload(std::size_t bands, std::size_t classes) {
  // Unique-set comparisons, mean + covariance accumulation, projection, and
  // reduced-space labeling per pixel.
  const Count unique = 3 * classes * hsi::flops::sad(bands);
  const Count stats = bands + bands + bands * (bands + 1);
  const Count project = linalg::flops::matvec(classes, bands) + bands;
  const Count label = classes * hsi::flops::sad(classes);
  WorkloadModel model;
  model.flops_per_pixel =
      static_cast<double>(unique + stats + project + label);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = 4.0;  // unique sets, mean, covariance, labeling
  // Nominal 8-sweep Jacobi eigensolve of the band covariance on the master
  // -- the serial O(bands^3)-per-sweep section every rank waits on.
  model.seq_flops = 8.0 * static_cast<double>(linalg::flops::jacobi_sweep(
                              static_cast<Count>(bands)));
  return model;
}

void pct_body(vmpi::Comm& comm, const hsi::HsiCube& cube,
              const PctConfig& config, ClassificationResult& result) {
  WorkloadModel model = pct_workload(cube.bands(), config.classes);
  model.scatter_input = config.charge_data_staging;
  const std::size_t bands = cube.bands();
  const bool streaming = config.tile_stream;
  model.tile_stream = streaming;
  const PartitionView view = detail::distribute_partitions(
      comm, cube, model, config.policy, config.memory_fraction,
      /*overlap=*/0, config.replication, /*defer_staging=*/streaming);
  // Tile plan over the owned rows; with streaming on, every tile's
  // host->device copy is enqueued here and drains behind the unique-set
  // phase below, so the mean/covariance sweeps mostly find their tiles
  // already resident.
  const detail::TileStream tiles = detail::begin_tile_stream(
      comm, view, streaming, config.replication);

  // --- Step 2: local unique spectral sets -----------------------------
  // Online SAD clustering of the local pixels: each pixel either joins
  // the first cluster whose exemplar is within the threshold or founds a
  // new cluster.  The best-supported 3c exemplars go to the master, so
  // rare mixtures do not crowd out the partition's real constituents.
  UniqueOut local_u = local_unique_sets(cube, view.part.row_begin,
                                        view.part.row_end, config);
  comm.compute(local_u.sad_evals * hsi::flops::sad(bands) *
               config.replication);

  // --- Step 3: master merges the unique sets --------------------------
  const std::size_t local_count = local_u.reps.size();
  auto rep_sets = comm.gather(comm.root(), std::move(local_u.reps),
                              rep_bytes(bands, local_count));
  std::vector<Rep> unique;
  if (comm.is_root()) {
    unique = merge_unique_sets(comm, std::move(rep_sets), config, bands);
  }

  // --- Steps 4-6: parallel mean and covariance ------------------------
  // Tiled sweep over the shared band sums: tiles extend each band's
  // addition chain in row order, so the result (and, with streaming off,
  // the single compute charge) is bit-identical to the monolithic sweep.
  MeanOut local_m;
  local_m.sums.assign(bands, 0.0);
  detail::tiled_sweep(comm, tiles, config.replication,
                      [&](const detail::TileDesc& t) {
                        return accum_mean_rows(cube, t.row_begin, t.row_end,
                                               local_m.sums.data());
                      });
  auto mean_parts = comm.gather(comm.root(), std::move(local_m.sums),
                                bands * sizeof(double));
  std::vector<double> mean_acc(bands, 0.0);
  if (comm.is_root()) {
    mean_acc = fold_mean(comm, mean_parts, cube.pixel_count(), bands);
  }
  // Shared broadcast: every rank centers against the same immutable mean.
  const auto mean_view = comm.bcast_shared(comm.root(), std::move(mean_acc),
                                           bands * sizeof(double));
  const std::vector<double>& mean = *mean_view;

  // Upper-triangle covariance accumulation over owned pixels, tiled like
  // the mean.
  const std::size_t tri = bands * (bands + 1) / 2;
  CovOut local_c;
  local_c.tri.assign(tri, 0.0);
  detail::tiled_sweep(comm, tiles, config.replication,
                      [&](const detail::TileDesc& t) {
                        return accum_cov_rows(cube, t.row_begin, t.row_end,
                                              mean, local_c.tri.data());
                      });
  auto cov_parts = comm.gather(comm.root(), std::move(local_c.tri),
                               tri * sizeof(double));

  // --- Step 7: sequential eigendecomposition at the master ------------
  PctBundle bundle;
  if (comm.is_root()) {
    bundle = build_bundle(comm, cov_parts, mean, unique, config, cube);
  }

  // --- Steps 8-9: parallel transform + reduced-space labeling ---------
  // Shared broadcast: all ranks label against one immutable bundle.
  const std::size_t bundle_bytes =
      config.classes * bands * sizeof(double) + bands * sizeof(double) +
      config.classes * config.classes * sizeof(double);
  const auto bundle_view =
      comm.bcast_shared(comm.root(), std::move(bundle), bundle_bytes);
  const PctBundle& shared_bundle = *bundle_view;
  const std::size_t reps = shared_bundle.reduced_reps.rows();

  LabelOut local_l = label_partition(cube, view.part.row_begin,
                                     view.part.row_end, shared_bundle,
                                     config);
  comm.compute(local_l.flops * config.replication);

  const std::size_t block_bytes = local_l.block.labels.size() *
                                  sizeof(std::uint16_t) *
                                  config.replication;
  auto blocks =
      comm.gather(comm.root(), std::move(local_l.block), block_bytes);

  // Master assembles the final label image.
  if (comm.is_root()) {
    assemble_label_image(comm, blocks, cube, reps, result);
  }
}

ClassificationResult run_pct(const simnet::Platform& platform,
                             const hsi::HsiCube& cube, const PctConfig& config,
                             vmpi::Options options) {
  HPRS_REQUIRE(config.classes >= 1, "need at least one class");
  HPRS_REQUIRE(config.classes <= cube.bands(),
               "cannot extract more components than bands");
  HPRS_REQUIRE(!cube.empty(), "empty cube");

  vmpi::Engine engine(platform, options);
  ClassificationResult result;

  if (config.fault_tolerant) {
    ft::require_immortal_root(options);
    const ft::Program prog = pct_ft_program(cube, config, result);
    result.report = engine.run(
        [&](vmpi::Comm& comm) { ft::run_program(comm, cube, prog); });
    return result;
  }
  result.report = engine.run(
      [&](vmpi::Comm& comm) { pct_body(comm, cube, config, result); });
  return result;
}

}  // namespace hprs::core

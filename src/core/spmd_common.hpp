// Building blocks shared by the SPMD algorithm implementations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "linalg/fcls.hpp"
#include "linalg/flops.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core::detail {

/// Wire size of the partition descriptor scattered when image data is
/// pre-staged on the nodes (row range, halo range, cube geometry).
inline constexpr std::size_t kPartitionDescriptorBytes = 64;

/// A worker's local argmax/argmin proposal sent back to the master.
struct Candidate {
  std::size_t row = 0;
  std::size_t col = 0;
  double score = 0.0;
};
/// Wire size of one candidate: two 32-bit coordinates plus the score (the
/// real implementation would send exactly this struct).
inline constexpr std::size_t kCandidateBytes = 2 * 4 + 8;

/// Step 1 of every algorithm: the master runs the WEA over the platform and
/// scatters one partition view per rank (wire-charging the full block
/// transfer); every rank returns its own view.  `overlap` requests halo
/// rows (MORPH).
///
/// `replication` is the virtual-scale knob shared by all algorithms: each
/// physical pixel stands for `replication` identical scene pixels, so
/// per-pixel virtual costs (compute charges, block wire sizes) are
/// multiplied by it while the numerics run once.  Because every algorithm
/// here does identical independent work per pixel, this linear
/// extrapolation of virtual time to the paper's full 2133x512 scene is
/// exact; DESIGN.md discusses the substitution.
///
/// `defer_staging` skips the host->device staging charge after the scatter;
/// the caller then owes a begin_tile_stream (which stages the same bytes,
/// monolithically or per tile).  Default false keeps every historic call
/// site's accounting untouched.
PartitionView distribute_partitions(vmpi::Comm& comm,
                                    const hsi::HsiCube& cube,
                                    const WorkloadModel& model,
                                    PartitionPolicy policy,
                                    double memory_fraction,
                                    std::size_t overlap = 0,
                                    std::size_t replication = 1,
                                    bool defer_staging = false);

/// One row-strip tile of a partition's owned block.
struct TileDesc {
  std::size_t row_begin = 0;  ///< first image row of the tile
  std::size_t row_end = 0;    ///< one past the last image row
  std::size_t bytes = 0;      ///< host->device wire bytes of the tile

  [[nodiscard]] std::size_t rows() const { return row_end - row_begin; }
};

/// Cuts [row_begin, row_end) into tiles of `tile_rows` rows (the last tile
/// may be ragged).  `bytes_per_row` sizes the staged copy of each tile.
/// An empty range yields no tiles; tile_rows must be >= 1.
[[nodiscard]] std::vector<TileDesc> make_row_tiles(std::size_t row_begin,
                                                   std::size_t row_end,
                                                   std::size_t bytes_per_row,
                                                   std::size_t tile_rows);

/// Tile height for a partition of `owned_rows` rows: a split into at most
/// kTilesPerPartition tiles, ceil(owned_rows / 4).  Always >= 1.
inline constexpr std::size_t kTilesPerPartition = 4;
[[nodiscard]] constexpr std::size_t tile_rows_for(std::size_t owned_rows) {
  return owned_rows == 0
             ? 1
             : (owned_rows + kTilesPerPartition - 1) / kTilesPerPartition;
}

/// One rank's tile plan for the tiled BLAS3 sweeps: row-strip tiles over
/// the partition's owned rows plus, in streaming mode, the virtual
/// completion time of each tile's asynchronous host->device copy.
struct TileStream {
  std::vector<TileDesc> tiles;
  /// Parallel to `tiles`; empty unless `streaming`.
  std::vector<double> staged_until;
  bool streaming = false;
};

/// Builds the tile plan for `view` (tile_rows_for the owned rows).  Callers
/// pass `defer_staging = streaming` to distribute_partitions: with
/// streaming off the distribute already staged the whole block
/// synchronously (the historic charge, bit-identical) and this only cuts
/// tiles; with streaming on this enqueues one stage_to_device_async per
/// tile in ascending tile order, so the DMA pipeline drains in the shadow
/// of whatever host-side phases precede the device sweeps.
[[nodiscard]] TileStream begin_tile_stream(vmpi::Comm& comm,
                                           const PartitionView& view,
                                           bool streaming,
                                           std::size_t replication);

/// Runs `body` once per tile of `ts` in ascending tile order (accumulators
/// extend strictly in tile order, which is what keeps tiled sums
/// bit-identical to the monolithic sweep) and charges the sweep's virtual
/// time.  `body` returns the flops it performed on the tile.
/// Non-streaming: flops accumulate across tiles and the sweep charges ONE
/// compute -- the same single multiply-then-charge as the monolithic path,
/// so virtual time is bit-identical.  Streaming: each tile first waits out
/// the exposed part of its staged copy, then charges its own compute,
/// paying the kernel-launch latency only on the sweep's first tile (one
/// batched launch per sweep).  All copies were enqueued by
/// begin_tile_stream, so the copy of tile k+1 is in flight while tile k
/// computes: the two-stage linear pipeline.
template <typename Body>
void tiled_sweep(vmpi::Comm& comm, const TileStream& ts,
                 std::size_t replication, Body&& body) {
  if (!ts.streaming) {
    std::uint64_t flops = 0;
    for (const TileDesc& tile : ts.tiles) flops += body(tile);
    comm.compute(flops * replication);
    return;
  }
  for (std::size_t k = 0; k < ts.tiles.size(); ++k) {
    comm.stage_wait(ts.staged_until[k]);
    const std::uint64_t flops = body(ts.tiles[k]);
    comm.compute_tile(flops * replication, /*first=*/k == 0);
  }
}

/// OSP score ||P_U_perp x||^2 = x.x - b . G^-1 b computed against the
/// factored Gram of the current target matrix.  Cost:
/// linalg::flops::osp_score(n, U.rows()).
[[nodiscard]] double osp_score(const linalg::Matrix& targets,
                               const linalg::Cholesky& gram_factor,
                               std::span<const float> pixel);

/// A rank's correlation plane for the ATDCA/UFCLS target sweeps: b = U^T x
/// (pixel-major, `stride` values per pixel, target i at offset i) and
/// ||x||^2 for every pixel of rows [row_begin, row_end) of one cube.
///
/// Both algorithms append one target to U per round, and every element
/// b_i(x) depends on target row i and pixel x alone: linalg::dot_strip
/// gives each (target, pixel) element its own ascending-k addition chain
/// whatever the number of rows it is handed.  So a round only has to
/// compute the new target rows; the rows already held are bit-identical to
/// a from-scratch product.  sync() checks the plane's validity key -- the
/// cube (sample address and shape), the row range, the band count, the
/// stride and a bytewise copy of each held target row -- and recomputes
/// whatever the key no longer covers.  The cube's samples must not change
/// while a plane refers to them.
///
/// Memory: owned pixels x stride doubles plus one double per pixel.
class CorrPlane {
 public:
  /// Brings the plane up to date with `u` over rows [row_begin, row_end)
  /// of `cube`.  A changed cube, row range, band count or stride resets
  /// the plane.  Otherwise the held target rows are kept up to the first
  /// one whose stored copy differs bytewise from U's row, and every later
  /// row of U is computed through linalg::dot_strip.  Publishes host
  /// counters core.corr_plane.rows_{computed,reused} (target rows).
  void sync(const hsi::HsiCube& cube, std::size_t row_begin,
            std::size_t row_end, const linalg::Matrix& u, std::size_t stride);

  /// True when the plane covers rows [row_begin, row_end) of `cube` and
  /// holds exactly the rows of `u`.
  [[nodiscard]] bool holds(const hsi::HsiCube& cube, std::size_t row_begin,
                           std::size_t row_end, const linalg::Matrix& u) const;

  /// U^T x of pixel (r, c): one value per held target row.
  [[nodiscard]] std::span<const double> corr(std::size_t r,
                                             std::size_t c) const {
    return {corr_.data() + offset(r, c) * key_.stride, held_};
  }
  /// ||x||^2 of pixel (r, c).
  [[nodiscard]] double norm_sq(std::size_t r, std::size_t c) const {
    return xx_[offset(r, c)];
  }

 private:
  struct Key {
    const float* samples = nullptr;
    std::size_t rows = 0, cols = 0, bands = 0;
    std::size_t row_begin = 0, row_end = 0, stride = 0;
    bool operator==(const Key&) const = default;
  };
  [[nodiscard]] std::size_t offset(std::size_t r, std::size_t c) const {
    HPRS_ASSERT(r >= key_.row_begin && r < key_.row_end && c < key_.cols);
    return (r - key_.row_begin) * key_.cols + c;
  }
  [[nodiscard]] static Key key_of(const hsi::HsiCube& cube,
                                  std::size_t row_begin, std::size_t row_end,
                                  std::size_t stride);

  Key key_;
  std::size_t held_ = 0;       // target rows computed
  std::vector<double> rows_;   // held_ x bands: copy of U's leading rows
  std::vector<double> corr_;   // pixels x stride
  std::vector<double> xx_;     // pixels
};

/// Argmax of the OSP score over whole rows [row_begin, row_end) of the
/// cube, scanning pixels in row-major order with strictly-greater updates.
/// Dispatches between the per-pixel reference loop (osp_score per pixel)
/// and the plane path, which reads U^T x and ||x||^2 from `plane` (synced
/// by the caller to cover the rows and hold exactly `targets`),
/// back-solves each pixel into per-lane scratch and never touches the heap
/// per pixel.  Contiguous row blocks run in kernel-thread lanes folded in
/// ascending lane order.  Both paths return bit-identical candidates.  The
/// caller charges linalg::flops::osp_score(bands, U.rows()) per pixel.
[[nodiscard]] Candidate osp_argmax_sweep(const linalg::Matrix& targets,
                                         const linalg::Cholesky& gram_factor,
                                         const hsi::HsiCube& cube,
                                         std::size_t row_begin,
                                         std::size_t row_end,
                                         const CorrPlane& plane,
                                         linalg::ScratchArena& arena);

/// Argmax of the FCLS reconstruction error over rows [row_begin, row_end)
/// plus the flops to charge (linalg::flops::fcls per pixel, with that
/// pixel's active-set iterations).
struct ErrorSweepOut {
  Candidate best{0, 0, -1.0};
  linalg::flops::Count flops = 0;
};

/// Hetero-UFCLS's per-round sweep.  Dispatches between the per-pixel
/// reference loop (Unmixer::fcls per pixel) and the plane path, which hands
/// each pixel's column of `plane` (synced by the caller to cover the rows
/// and hold exactly `u`) to Unmixer::fcls_with_corr over per-lane scratch;
/// lanes and fold as in osp_argmax_sweep.  Bit-identical results.
[[nodiscard]] ErrorSweepOut fcls_error_sweep(const hsi::HsiCube& cube,
                                             const linalg::Matrix& u,
                                             const linalg::Unmixer& unmixer,
                                             std::size_t row_begin,
                                             std::size_t row_end,
                                             const CorrPlane& plane);

/// Gram matrix of the rows of U with a tiny relative ridge so the Cholesky
/// factorization survives nearly collinear targets.
[[nodiscard]] linalg::Matrix ridged_row_gram(const linalg::Matrix& u);

/// Copies a float pixel spectrum into a double row for the target matrix.
[[nodiscard]] std::vector<double> to_double(std::span<const float> pixel);

/// A unique-set candidate as gathered from the workers: a pixel spectrum
/// plus an optional quality weight (MORPH's MEI score; zero for PCT).
struct SpectralCandidate {
  PixelLocation loc;
  std::vector<float> spectrum;
  double weight = 0.0;
};

struct UniqueSetSelection {
  /// Indices into the candidate pool of the chosen exemplars (at most c).
  std::vector<std::size_t> chosen;
  /// SAD evaluations performed (for virtual-time charging).
  std::uint64_t sad_evals = 0;
};

/// Master-side consolidation of the workers' unique-set candidates (paper
/// step "the P unique sets are combined"): an online clustering pass merges
/// candidates within `sad_threshold` of a cluster exemplar (pool order,
/// which the callers pre-sort by quality), then the exemplars of the `c`
/// best-supported clusters are selected.  Ranking clusters by how many
/// workers' candidates they absorbed keeps rare outliers (single fire
/// pixels, odd mixtures) from displacing the scene's real constituents --
/// the behaviour the paper's accuracy tables imply but whose mechanism it
/// leaves unspecified.
[[nodiscard]] UniqueSetSelection consolidate_unique_set(
    std::span<const SpectralCandidate> pool, std::size_t c,
    double sad_threshold);

}  // namespace hprs::core::detail

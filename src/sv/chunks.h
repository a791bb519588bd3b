// Chunk decomposition of the padded SVB and the zero-padded A-matrix
// (paper §4.1, Fig. 4b).
//
// In the padded view-major SVB, a voxel's data in view-row v occupies the
// column window [ws(v), ws(v) + count(v)) where ws(v) = first_channel(v) -
// band_lo(v). The window drifts sinusoidally across views. A *chunk* is a
// rectangular block — a fixed column window [base, base + W) spanning a
// maximal run of consecutive views whose voxel windows all fit inside it.
// On the modeled device the A-matrix is re-packed per chunk as nrows x W
// dense rows, zero-padded outside the voxel's true footprint, so the
// kernel's inner loop is a plain element-by-element multiply over perfectly
// rectangular, aligned rows — the coalesced-access shape GPUs want. Zero
// padding guarantees the non-voxel-related SVB elements inside the window
// never affect correctness (a property the test suite pins against the
// global-sinogram reference). The profiler charges that layout from
// (nrows, W, aligned); totalDataElements() and paddingRatio() describe it.
//
// Each chunk row also records its band: where the voxel's true footprint
// sits inside the window ([i0, i0 + n), 2 bytes per row), so the update
// kernel walks whole chunks without looking the footprint up in the
// SystemMatrix again.
//
// The host stores the same rows band-compact: a row keeps only the whole
// 8-lane groups covering its band, window columns
// [i0 & ~7, roundUp8(i0 + n)), zero-padded, and the rows of a chunk are
// packed back to back (storedGroups() in core/simd.h gives a row's group
// count from its band, so no per-row offset is stored). Every group starts
// at a multiple of 8, so each element keeps its lane (window column mod 8)
// and the chunk ops compute the bits of the W-wide layout; the groups they
// skip held only zeros. storedElements() counts this layout.
//
// The same table can be built with uint8-quantized A entries (§4.3.1):
// q = round(A / voxelMax * 255), dequantized on the fly by q * scale with
// scale = voxelMax / 255 stored once per voxel.
//
// A plan depends only on the matrix, the SV's band and (W, quantize), so
// like the paper's device-resident A-chunks it is built once and shared:
// sharedChunkPlan() looks it up in the matrix's plan store
// (core/plan_store.h), and every job, device and shard slab on that matrix
// reads the same immutable plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/aligned.h"
#include "core/error.h"
#include "core/simd.h"
#include "geom/system_matrix.h"
#include "sv/svb.h"

namespace mbir {

struct ChunkDesc {
  std::int32_t local_voxel;     ///< voxel index within the SV (row-major)
  std::int32_t view0;           ///< first view (SVB row) of the chunk
  std::int32_t nrows;           ///< consecutive views covered
  std::int32_t base;            ///< SVB column of the window start
  std::uint32_t band_offset;    ///< first row of this chunk (index of its band)
  std::uint32_t data_offset;    ///< start of this chunk's stored A rows (elements)
  bool aligned;                 ///< base is a multiple of the alignment unit
};

/// Bytes the modeled kernel reads per chunk descriptor: the device layout's
/// voxel, view0, nrows, base, row offset and aligned flag. Its rows are W
/// apart, so it needs no second offset for compact A rows.
inline constexpr std::size_t kDeviceChunkDescBytes = 24;

struct ChunkPlanOptions {
  /// Chunk width W in elements (paper Fig. 6 sweeps 8..128; best 32). At
  /// most 255, so a row's band fits RowBand's uint8 fields.
  int chunk_width = 32;
  /// Store A entries as uint8 with per-voxel scale (paper §4.3.1) instead
  /// of float.
  bool quantize = true;
};

/// Per-SV chunk table + re-packed A data. Immutable once built; reads
/// only the band of `svb_plan`, never its padded width.
class ChunkPlan {
 public:
  ChunkPlan(const SystemMatrix& A, const SvbPlan& svb_plan,
            ChunkPlanOptions options);

  int chunkWidth() const { return options_.chunk_width; }
  bool quantized() const { return options_.quantize; }
  const SuperVoxel& sv() const { return sv_; }

  std::span<const ChunkDesc> chunksOf(int local_voxel) const;
  std::size_t numChunks() const { return descs_.size(); }

  /// Chunk A rows, band-compact: row i holds 8 * storedGroups(bands[i])
  /// elements starting at window column bands[i].i0 & ~7, and the rows are
  /// back to back. Exactly one of these is live depending on quantized().
  /// Inline, so a hot loop that takes only data() never sums the bands.
  std::span<const float> dataFloat(const ChunkDesc& d) const {
    MBIR_CHECK(!options_.quantize);
    return {fdata_.data() + d.data_offset, storedElementsOf(d)};
  }
  std::span<const std::uint8_t> dataQuant(const ChunkDesc& d) const {
    MBIR_CHECK(options_.quantize);
    return {qdata_.data() + d.data_offset, storedElementsOf(d)};
  }

  /// Per-row bands of a chunk (nrows entries): row i's footprint occupies
  /// window columns [i0, i0 + n), n >= 1, i.e. first_channel - lo(v) - base
  /// for view v = view0 + i.
  std::span<const RowBand> bandsOf(const ChunkDesc& d) const {
    return {bands_.data() + d.band_offset, std::size_t(d.nrows)};
  }

  /// Dequantization scale for a voxel (voxelMax / 255); 0 for empty columns.
  float scaleOf(int local_voxel) const { return scale_[std::size_t(local_voxel)]; }

  /// Reconstructed A value at (chunk row r, window column c), 0 outside the
  /// row's stored groups — dequantizes when quantized. Walks the chunk's
  /// rows to find row r, so it is for tests and tools, not hot loops.
  float aValue(const ChunkDesc& d, int r, int c) const;

  /// A elements the host stores (8 per covered lane group).
  std::size_t storedElements() const {
    return options_.quantize ? qdata_.size() : fdata_.size();
  }

  // --- occupancy/bandwidth accounting for the GPU timing model ---
  /// A elements of the device layout (every chunk row W wide).
  std::size_t totalDataElements() const { return total_elements_; }
  std::size_t trueNnz() const { return true_nnz_; }
  /// padded elements / true nonzeros (>= 1); the §4.1 redundancy cost.
  double paddingRatio() const;
  /// Fraction of chunks whose base is alignment-friendly.
  double alignedFraction() const;
  /// Bytes of A data per element (1 when quantized, 4 otherwise).
  int bytesPerElement() const { return options_.quantize ? 1 : 4; }

  /// Padded SVB row pitch every chunk window fits in (the largest
  /// base + W): grow the SvbPlan to this before an SVB is read through the
  /// plan (SvbPlan::growPaddedWidth).
  int requiredPaddedWidth() const { return required_padded_width_; }
  /// Heap bytes the plan holds (its plan-store charge): the compact rows,
  /// not the device layout's.
  std::size_t heapBytes() const;

 private:
  ChunkPlanOptions options_;
  SuperVoxel sv_;
  std::vector<ChunkDesc> descs_;
  std::vector<std::uint32_t> voxel_begin_;  // per local voxel, into descs_
  AlignedBuffer<float> fdata_;
  AlignedBuffer<std::uint8_t> qdata_;
  std::vector<float> scale_;
  std::vector<RowBand> bands_;  // one per chunk row, in chunk order
  std::size_t total_elements_ = 0;
  std::size_t true_nnz_ = 0;
  int required_padded_width_ = 0;

  /// Stored A elements of the first `rows` rows of chunk d.
  std::size_t storedElementsOf(const ChunkDesc& d, int rows) const {
    std::size_t n = 0;
    for (const RowBand& b : bandsOf(d).first(std::size_t(rows)))
      n += std::size_t(storedGroups(b)) * kSimdLanes;
    return n;
  }
  std::size_t storedElementsOf(const ChunkDesc& d) const {
    return storedElementsOf(d, d.nrows);
  }
};

/// Plan-store key of the plan for `svb_plan`'s SV: the SV rect, the band's
/// pad alignment, W and quantize. Not the SV id, so grids of different SV
/// sides never share a plan.
std::string chunkPlanKey(const SvbPlan& svb_plan, ChunkPlanOptions options);

struct SharedChunkPlan {
  std::shared_ptr<const ChunkPlan> plan;
  bool built = false;  ///< this lookup built the plan (a store miss)
};

/// The plan for `svb_plan`'s SV from A's plan store, built when the store
/// holds none for its key. The returned shared_ptr keeps the plan alive
/// across eviction.
SharedChunkPlan sharedChunkPlan(const SystemMatrix& A, const SvbPlan& svb_plan,
                                ChunkPlanOptions options);

}  // namespace mbir

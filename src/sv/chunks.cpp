#include "sv/chunks.h"

#include <algorithm>
#include <cmath>

namespace mbir {

ChunkPlan::ChunkPlan(const SystemMatrix& A, const SvbPlan& svb_plan,
                     ChunkPlanOptions options)
    : options_(options), sv_(svb_plan.sv()) {
  MBIR_CHECK(options.chunk_width >= 1);
  MBIR_CHECK_MSG(options.chunk_width >= A.maxFootprintWidth(),
                 "chunk width " << options.chunk_width
                                << " below max footprint width "
                                << A.maxFootprintWidth());
  MBIR_CHECK_MSG(options.chunk_width <= 255,
                 "chunk width " << options.chunk_width
                                << " above 255 (row bands are uint8)");

  const int W = options.chunk_width;
  const int align_unit = std::min(W, svb_plan.padAlign());
  const int num_views = A.numViews();
  const int image_size = A.geometry().image_size;
  const int num_voxels = sv_.numVoxels();

  voxel_begin_.assign(std::size_t(num_voxels) + 1, 0);
  scale_.assign(std::size_t(num_voxels), 0.0f);

  // Pass 1: build descriptors and row bands (no A data yet). A chunk's
  // band rows follow the previous chunk's.
  int max_column_end = 0;
  for (int k = 0; k < num_voxels; ++k) {
    voxel_begin_[std::size_t(k)] = std::uint32_t(descs_.size());
    const std::size_t voxel = std::size_t(sv_.voxelAt(k, image_size));
    scale_[std::size_t(k)] = A.voxelMax(voxel) / 255.0f;

    bool open = false;
    ChunkDesc cur{};
    auto close = [&] {
      if (open) descs_.push_back(cur);
      open = false;
    };

    for (int v = 0; v < num_views; ++v) {
      const SystemMatrix::Run& r = A.run(voxel, v);
      if (r.count == 0) {
        close();
        continue;
      }
      const int ws = int(r.first_channel) - svb_plan.lo(v);
      const int we = ws + int(r.count);
      MBIR_CHECK_MSG(ws >= 0 && we <= svb_plan.width(v),
                     "voxel run outside SVB band (voxel " << voxel << " view "
                                                          << v << ")");
      true_nnz_ += std::size_t(r.count);

      if (open && ws >= cur.base && we <= cur.base + W &&
          cur.view0 + cur.nrows == v) {
        ++cur.nrows;
        bands_.push_back(
            RowBand{std::uint8_t(ws - cur.base), std::uint8_t(r.count)});
        continue;
      }
      close();
      // Aligned base when the window fits behind the alignment boundary;
      // otherwise fall back to an unaligned base at the window start
      // (possible when W is barely above the footprint width).
      int base = ws / align_unit * align_unit;
      bool aligned = true;
      if (we > base + W) {
        base = ws;
        aligned = false;
      }
      cur = ChunkDesc{k, v, 1, base, std::uint32_t(bands_.size()), 0, aligned};
      bands_.push_back(RowBand{std::uint8_t(ws - base), std::uint8_t(r.count)});
      open = true;
      max_column_end = std::max(max_column_end, base + W);
    }
    close();
  }
  voxel_begin_[std::size_t(num_voxels)] = std::uint32_t(descs_.size());
  // Both grew by push_back; drop the slack so heapBytes() is what is held.
  descs_.shrink_to_fit();
  bands_.shrink_to_fit();

  // The padded SVB must be readable over every chunk window.
  required_padded_width_ = max_column_end;

  // Pass 2: stored-A offsets. A chunk's stored rows follow the previous
  // chunk's stored groups.
  total_elements_ = bands_.size() * std::size_t(W);
  std::size_t stored = 0;
  for (ChunkDesc& d : descs_) {
    d.data_offset = std::uint32_t(stored);
    stored += storedElementsOf(d);
    MBIR_CHECK_MSG(stored <= UINT32_MAX, "chunk table exceeds uint32 offsets");
  }

  // Pass 3: fill the stored groups (zero-padded outside the voxel's true
  // footprint).
  if (options_.quantize)
    qdata_ = AlignedBuffer<std::uint8_t>(stored);
  else
    fdata_ = AlignedBuffer<float>(stored);

  for (const ChunkDesc& d : descs_) {
    const std::size_t voxel =
        std::size_t(sv_.voxelAt(d.local_voxel, image_size));
    const float vmax = A.voxelMax(voxel);
    std::size_t row_off = d.data_offset;
    for (int i = 0; i < d.nrows; ++i) {
      const RowBand b = bands_[d.band_offset + std::size_t(i)];
      const auto aw = A.weights(voxel, d.view0 + i);
      // Stored column of band element k: its window column minus the
      // row's first stored column.
      const int first = b.i0 % kSimdLanes;
      for (int k = 0; k < int(b.n); ++k) {
        const std::size_t idx = row_off + std::size_t(first + k);
        if (options_.quantize) {
          // Normalize by the voxel max so the 8 bits carry the MSBs
          // (paper §4.3.1), with +0.5 rounding.
          const float q = vmax > 0.0f ? aw[std::size_t(k)] / vmax * 255.0f + 0.5f : 0.0f;
          qdata_[idx] = std::uint8_t(std::min(q, 255.0f));
        } else {
          fdata_[idx] = aw[std::size_t(k)];
        }
      }
      row_off += std::size_t(storedGroups(b)) * kSimdLanes;
    }
  }
}

std::span<const ChunkDesc> ChunkPlan::chunksOf(int local_voxel) const {
  const std::size_t b = voxel_begin_[std::size_t(local_voxel)];
  const std::size_t e = voxel_begin_[std::size_t(local_voxel) + 1];
  return {descs_.data() + b, e - b};
}

float ChunkPlan::aValue(const ChunkDesc& d, int r, int c) const {
  const std::span<const RowBand> bands = bandsOf(d);
  const RowBand b = bands[std::size_t(r)];
  const int g0 = b.i0 & ~(kSimdLanes - 1);
  if (c < g0 || c >= g0 + storedGroups(b) * kSimdLanes) return 0.0f;
  const std::size_t idx =
      d.data_offset + storedElementsOf(d, r) + std::size_t(c - g0);
  if (options_.quantize)
    return float(qdata_[idx]) * scale_[std::size_t(d.local_voxel)];
  return fdata_[idx];
}

std::size_t ChunkPlan::heapBytes() const {
  return descs_.size() * sizeof(ChunkDesc) +
         voxel_begin_.size() * sizeof(std::uint32_t) +
         fdata_.size() * sizeof(float) + qdata_.size() +
         scale_.size() * sizeof(float) + bands_.size() * sizeof(RowBand);
}

double ChunkPlan::paddingRatio() const {
  if (true_nnz_ == 0) return 1.0;
  return double(total_elements_) / double(true_nnz_);
}

double ChunkPlan::alignedFraction() const {
  if (descs_.empty()) return 1.0;
  std::size_t aligned = 0;
  for (const ChunkDesc& d : descs_)
    if (d.aligned) ++aligned;
  return double(aligned) / double(descs_.size());
}

std::string chunkPlanKey(const SvbPlan& svb_plan, ChunkPlanOptions options) {
  const SuperVoxel& sv = svb_plan.sv();
  return "chunk_plan/" + std::to_string(sv.row0) + ',' + std::to_string(sv.row1) +
         ',' + std::to_string(sv.col0) + ',' + std::to_string(sv.col1) + "/a" +
         std::to_string(svb_plan.padAlign()) + "/w" +
         std::to_string(options.chunk_width) + (options.quantize ? "/q" : "/f");
}

SharedChunkPlan sharedChunkPlan(const SystemMatrix& A, const SvbPlan& svb_plan,
                                ChunkPlanOptions options) {
  PlanStore::Lookup l =
      A.planStore().getOrBuild(chunkPlanKey(svb_plan, options), [&] {
        auto plan = std::make_shared<const ChunkPlan>(A, svb_plan, options);
        const std::size_t bytes = plan->heapBytes();
        return PlanStore::Built{std::move(plan), bytes};
      });
  return {std::static_pointer_cast<const ChunkPlan>(std::move(l.value)),
          l.built};
}

}  // namespace mbir

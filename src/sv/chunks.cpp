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

  // Pass 1: build descriptors (no data yet).
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
      cur = ChunkDesc{k, v, 1, base, 0, aligned};
      open = true;
      max_column_end = std::max(max_column_end, base + W);
    }
    close();
  }
  voxel_begin_[std::size_t(num_voxels)] = std::uint32_t(descs_.size());

  // The padded SVB must be readable over every chunk window.
  required_padded_width_ = max_column_end;

  // Assign data offsets.
  std::size_t offset = 0;
  for (ChunkDesc& d : descs_) {
    d.data_offset = std::uint32_t(offset);
    offset += std::size_t(d.nrows) * std::size_t(W);
    MBIR_CHECK_MSG(offset <= UINT32_MAX, "chunk table exceeds uint32 offsets");
  }
  total_elements_ = offset;
  bands_.resize(total_elements_ / std::size_t(W));

  // Pass 2: fill A rows (zero-padded outside the voxel's true footprint).
  if (options_.quantize)
    qdata_ = AlignedBuffer<std::uint8_t>(total_elements_);
  else
    fdata_ = AlignedBuffer<float>(total_elements_);

  for (const ChunkDesc& d : descs_) {
    const std::size_t voxel =
        std::size_t(sv_.voxelAt(d.local_voxel, image_size));
    const float vmax = A.voxelMax(voxel);
    for (int i = 0; i < d.nrows; ++i) {
      const int v = d.view0 + i;
      const SystemMatrix::Run& r = A.run(voxel, v);
      const auto aw = A.weights(voxel, v);
      const int ws = int(r.first_channel) - svb_plan.lo(v);
      const std::size_t row_off = d.data_offset + std::size_t(i) * std::size_t(W);
      bands_[row_off / std::size_t(W)] =
          RowBand{std::uint8_t(ws - d.base), std::uint8_t(r.count)};
      for (int k = 0; k < int(r.count); ++k) {
        const int col = ws + k - d.base;
        MBIR_CHECK(col >= 0 && col < W);
        if (options_.quantize) {
          // Normalize by the voxel max so the 8 bits carry the MSBs
          // (paper §4.3.1), with +0.5 rounding.
          const float q = vmax > 0.0f ? aw[std::size_t(k)] / vmax * 255.0f + 0.5f : 0.0f;
          qdata_[row_off + std::size_t(col)] =
              std::uint8_t(std::min(q, 255.0f));
        } else {
          fdata_[row_off + std::size_t(col)] = aw[std::size_t(k)];
        }
      }
    }
  }
}

std::span<const ChunkDesc> ChunkPlan::chunksOf(int local_voxel) const {
  const std::size_t b = voxel_begin_[std::size_t(local_voxel)];
  const std::size_t e = voxel_begin_[std::size_t(local_voxel) + 1];
  return {descs_.data() + b, e - b};
}

std::span<const RowBand> ChunkPlan::bandsOf(const ChunkDesc& d) const {
  return {bands_.data() + d.data_offset / std::uint32_t(options_.chunk_width),
          std::size_t(d.nrows)};
}

std::span<const float> ChunkPlan::dataFloat(const ChunkDesc& d) const {
  MBIR_CHECK(!options_.quantize);
  return {fdata_.data() + d.data_offset,
          std::size_t(d.nrows) * std::size_t(options_.chunk_width)};
}

std::span<const std::uint8_t> ChunkPlan::dataQuant(const ChunkDesc& d) const {
  MBIR_CHECK(options_.quantize);
  return {qdata_.data() + d.data_offset,
          std::size_t(d.nrows) * std::size_t(options_.chunk_width)};
}

float ChunkPlan::aValue(const ChunkDesc& d, int r, int c) const {
  const std::size_t idx =
      d.data_offset + std::size_t(r) * std::size_t(options_.chunk_width) + std::size_t(c);
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

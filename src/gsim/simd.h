// gsim façade over the core SIMD lane-group layer (core/simd.h).
//
// The lane-group primitives live in core so layers below gsim — notably the
// geom projector, which gsim itself depends on through icd — can run their
// row loops on the same dispatch tables. Simulator code addresses them
// through this alias header: kernels receive the resolved table in
// BlockCtx::warp (gsim/executor.h) and never resolve a path themselves.
#pragma once

#include "core/simd.h"

namespace mbir::gsim {

using mbir::kSimdLanes;
using mbir::RowBand;
using mbir::SimdMode;
using mbir::SimdOps;
using mbir::ThetaLanes;

using mbir::avx2SimdOps;
using mbir::parseSimdMode;
using mbir::reduceLanes;
using mbir::resolveSimdOps;
using mbir::scalarSimdOps;
using mbir::simdModeFromEnv;
using mbir::simdModeName;

}  // namespace mbir::gsim

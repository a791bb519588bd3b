// Forward and back projection through the sparse system matrix.
//
// MBIR itself never forward-projects during iterations (ICD maintains the
// error sinogram incrementally), but projectors are needed to (a) simulate
// scans, (b) initialize e = y - A x0, and (c) verify adjointness and column
// correctness in tests.
#pragma once

#include "geom/image.h"
#include "geom/sinogram.h"
#include "geom/system_matrix.h"

namespace mbir {

// The projectors run on globalThreadPool(), so none of them may be called
// from inside one of its tasks (ThreadPool::parallelFor). Their results do
// not depend on the pool size.

/// y = A x. Accumulates into a fresh sinogram.
Sinogram forwardProject(const SystemMatrix& A, const Image2D& x);

/// x_hat = A^T s (unweighted backprojection; used by tests and FBP-like init).
Image2D backProject(const SystemMatrix& A, const Sinogram& s);

/// e = y - A x (the initial error sinogram of Algs. 1-3).
Sinogram errorSinogram(const SystemMatrix& A, const Sinogram& y, const Image2D& x);

/// <A x, s> computed two ways must agree; returns <y, A x>.
double innerProductSino(const Sinogram& a, const Sinogram& b);

}  // namespace mbir

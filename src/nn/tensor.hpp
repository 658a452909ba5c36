// Activation-tensor conventions and helpers for the NN substrate.
// Activations are col-major Matrix values: rows = feature dimension,
// cols = tokens (sequence positions) or batch elements — exactly the
// X in the paper's Y = W.X, so every layer feeds the GEMM/BiQGEMM
// kernels without reshuffling.
#pragma once

#include <vector>

#include "matrix/matrix.hpp"

namespace biq::nn {

/// Column-wise copy of src into dst (shapes must match). Views — arena
/// slots and buffer windows copy without staging.
void copy_into(ConstMatrixView src, MatrixView dst);

/// dst = a + b element-wise (residual connections). dst may alias a or b.
void add_into(ConstMatrixView a, ConstMatrixView b, MatrixView dst);

/// Plain transpose (used by attention score math in tests).
[[nodiscard]] Matrix transpose(const Matrix& a);

/// Deterministic Xavier-uniform initialized weight matrix
/// (limit sqrt(6/(fan_in+fan_out))) — shared by float and quantized
/// builds so both see identical parameters.
[[nodiscard]] Matrix xavier_uniform(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace biq::nn

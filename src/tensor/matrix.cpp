#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/parallel.hpp"
#include "tensor/vec.hpp"

namespace splpg::tensor {

void Matrix::add_inplace(const Matrix& other) noexcept {
  assert(same_shape(other));
  // axpy with alpha = 1: the product is exact, so this is bit-identical to
  // the plain += loop on every backend.
  vec_kernels().axpy_f32(data_.data(), other.data_.data(), 1.0F, data_.size());
}

void Matrix::axpy_inplace(float alpha, const Matrix& other) noexcept {
  assert(same_shape(other));
  vec_kernels().axpy_f32(data_.data(), other.data_.data(), alpha, data_.size());
}

void Matrix::scale_inplace(float alpha) noexcept {
  for (float& x : data_) x *= alpha;
}

double Matrix::squared_norm() const noexcept {
  double total = 0.0;
  for (const float x : data_) total += static_cast<double>(x) * x;
  return total;
}

Matrix Matrix::map(const std::function<float(float)>& fn) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = fn(data_[i]);
  return out;
}

Matrix Matrix::transposed() const {
  // Blocked to keep both the reads and the writes inside a cache-resident
  // tile: the naive loop strides one of the two matrices by `cols_` floats
  // per element, which thrashes once a row exceeds the L1. Pure data
  // movement — bytes are identical to the naive transpose.
  constexpr std::size_t kBlock = 32;
  Matrix out(cols_, rows_);
  for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
    const std::size_t r_end = std::min(rows_, rb + kBlock);
    for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
      const std::size_t c_end = std::min(cols_, cb + kBlock);
      for (std::size_t r = rb; r < r_end; ++r) {
        for (std::size_t c = cb; c < c_end; ++c) out.at(c, r) = at(r, c);
      }
    }
  }
  return out;
}

namespace {

/// C rows per scheduled GEMM task. The serial path runs the same blocks, and
/// each C element's arithmetic lives inside one kernel call either way, so
/// the block size and the pool width affect scheduling only, never bytes.
constexpr std::size_t kRowBlock = 16;

/// Runs block(first_row, rows) over [0, rows) in kRowBlock-row blocks, on
/// the compute pool when `flops` pays for the fan-out.
template <class Block>
void for_row_blocks(std::size_t rows, std::size_t flops, const Block& block) {
  const auto run = [&](std::size_t index) {
    const std::size_t first = index * kRowBlock;
    block(first, std::min(kRowBlock, rows - first));
  };
  const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  if (util::ThreadPool* pool = pool_for(flops)) {
    pool->parallel_for(0, blocks, run);
  } else {
    for (std::size_t index = 0; index < blocks; ++index) run(index);
  }
}

}  // namespace

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(c.rows() == a.rows() && c.cols() == b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const VecKernels& kern = vec_kernels();
  // Skipping alpha == 0 exploits activation sparsity but masks NaN/Inf in
  // the skipped B row (IEEE says 0 * NaN = NaN); see vec.hpp for the flag.
  const bool skip_zero = kernels_assume_finite();
  for_row_blocks(m, sat_flops(m, k, n), [&](std::size_t first, std::size_t rows) {
    kern.gemm_acc_f32(c.row(first).data(), n, a.row(first).data(), k, 1, b.data().data(), n,
                      rows, k, n, skip_zero);
  });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_acc(a, b, c);
  return c;
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  // C(k x n) += A^T(k x m) * B(m x n): C row p reads column p of A, so the
  // kernel walks A with row stride 1 and reduction stride k.
  assert(a.rows() == b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (m == 0) return;  // no terms; an empty A has no column offsets to take
  const VecKernels& kern = vec_kernels();
  const bool skip_zero = kernels_assume_finite();
  for_row_blocks(k, sat_flops(m, k, n), [&](std::size_t first, std::size_t rows) {
    kern.gemm_acc_f32(c.row(first).data(), n, a.data().data() + first, 1, k, b.data().data(), n,
                      rows, m, n, skip_zero);
  });
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_acc(a, b, c);
  return c;
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  // C(m x n) += A(m x k) * B^T(k x n) where B is n x k: dot products of rows.
  assert(a.cols() == b.cols());
  assert(c.rows() == a.rows() && c.cols() == b.rows());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  const VecKernels& kern = vec_kernels();
  for_row_blocks(m, sat_flops(m, k, n), [&](std::size_t first, std::size_t rows) {
    for (std::size_t i = first; i < first + rows; ++i) {
      kern.dots_acc_f32(c.row(i).data(), a.row(i).data(), b.data().data(), k, n, k);
    }
  });
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_nt_acc(a, b, c);
  return c;
}

Matrix add(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c = a;
  c.add_inplace(b);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c = a;
  c.axpy_inplace(-1.0F, b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c(a.rows(), a.cols());
  const auto da = a.data();
  const auto db = b.data();
  const auto dc = c.data();
  for (std::size_t i = 0; i < da.size(); ++i) dc[i] = da[i] * db[i];
  return c;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  float best = 0.0F;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    best = std::max(best, std::abs(da[i] - db[i]));
  }
  return best;
}

}  // namespace splpg::tensor

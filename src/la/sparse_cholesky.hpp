// Sparse Cholesky factorization with a fixed pattern.
//
// The interior-point solver's Newton step solves H dx = -g, where H is
// symmetric positive definite and as sparse as the constraints: each
// inequality couples only the variables it names, so on an execution DAG
// H has O(n + |E|) nonzeros. The pattern is the same at every Newton step
// of a solve, so the work splits in two:
//
//   - symbolic (once, at construction): a minimum-degree elimination order
//     and the factor's pattern, column- and row-wise;
//   - numeric (every step): an in-place left-looking factorization of the
//     values the caller assembled into the factor's own storage, then a
//     permuted triangular solve. Neither allocates.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace reclaim::la {

class SparseCholesky {
 public:
  /// Symbolic analysis of the n x n symmetric pattern made of the diagonal
  /// plus every off-diagonal position in `pattern` (either triangle,
  /// duplicates allowed). Throws InvalidArgument on an index >= n.
  SparseCholesky(std::size_t n,
                 std::span<const std::pair<std::size_t, std::size_t>> pattern);

  [[nodiscard]] std::size_t size() const noexcept { return perm_.size(); }

  /// Nonzeros of the factor, diagonal and fill included.
  [[nodiscard]] std::size_t factor_nonzeros() const noexcept {
    return values_.size();
  }

  /// Storage slot of entry (i, j), equal to that of (j, i). Throws
  /// InvalidArgument when the entry is neither diagonal nor in the pattern.
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const;

  /// Zeroes every slot (fill included) before a new matrix is assembled.
  void clear() noexcept;

  /// The matrix entries, indexed by slot(); after factor() they hold the
  /// factor instead.
  [[nodiscard]] std::span<double> values() noexcept { return values_; }

  /// Factorizes the assembled matrix in place. A pivot <= `jitter` throws
  /// NumericalError when jitter is 0 and is lifted to `jitter` otherwise —
  /// a standard modified-Cholesky safeguard for nearly singular Hessians.
  void factor(double jitter = 0.0);

  /// Solves A x = b in place (b becomes x), using the last factor().
  void solve(std::span<double> b);

 private:
  std::vector<std::size_t> perm_;      ///< elimination position -> variable
  std::vector<std::size_t> inv_perm_;  ///< variable -> elimination position
  // Factor columns (elimination coordinates): the diagonal first, then the
  // rows below it in increasing order.
  std::vector<std::size_t> col_ptr_;
  std::vector<std::size_t> row_idx_;
  // Factor rows: for row j, the slots L(j, k) of its off-diagonal entries,
  // ordered by column k, with k itself alongside.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> row_slot_;
  std::vector<std::size_t> row_col_;
  std::vector<double> values_;
  std::vector<std::size_t> position_;  ///< factor scratch: row -> slot
  std::vector<double> work_;           ///< solve scratch (elimination order)
};

}  // namespace reclaim::la

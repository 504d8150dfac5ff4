#include "la/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <queue>

#include "util/error.hpp"

namespace reclaim::la {

SparseCholesky::SparseCholesky(
    std::size_t n, std::span<const std::pair<std::size_t, std::size_t>> pattern)
    : perm_(n), inv_perm_(n), col_ptr_(n + 1, 0), row_ptr_(n + 1, 0),
      position_(n), work_(n) {
  std::vector<std::vector<std::size_t>> adjacent(n);
  for (const auto& [i, j] : pattern) {
    util::require(i < n && j < n, "SparseCholesky: pattern index out of range");
    if (i == j) continue;
    adjacent[i].push_back(j);
    adjacent[j].push_back(i);
  }
  for (auto& a : adjacent) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  // Minimum-degree order on the elimination graph: eliminating v joins its
  // remaining neighbours into a clique, and those neighbours are exactly
  // the rows of v's factor column. Ties go to the lowest index; stale heap
  // entries (degree changed since the push) are skipped.
  using Candidate = std::pair<std::size_t, std::size_t>;  // degree, vertex
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  for (std::size_t v = 0; v < n; ++v) heap.emplace(adjacent[v].size(), v);
  std::vector<bool> eliminated(n, false);
  std::vector<std::vector<std::size_t>> column_rows(n);  // by variable
  std::vector<std::size_t> merged;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t v = 0;
    for (;;) {
      const auto [degree, candidate] = heap.top();
      heap.pop();
      if (!eliminated[candidate] && degree == adjacent[candidate].size()) {
        v = candidate;
        break;
      }
    }
    eliminated[v] = true;
    perm_[k] = v;
    inv_perm_[v] = k;
    const std::vector<std::size_t>& clique = adjacent[v];
    for (std::size_t u : clique) {
      merged.clear();
      std::set_union(adjacent[u].begin(), adjacent[u].end(), clique.begin(),
                     clique.end(), std::back_inserter(merged));
      const auto is_endpoint = [&](std::size_t w) { return w == u || w == v; };
      merged.erase(std::remove_if(merged.begin(), merged.end(), is_endpoint),
                   merged.end());
      adjacent[u].swap(merged);
      heap.emplace(adjacent[u].size(), u);
    }
    column_rows[v] = std::move(adjacent[v]);
  }

  // Factor columns in elimination coordinates. Every row of column k is a
  // variable eliminated after k, so its position exceeds k.
  for (std::size_t k = 0; k < n; ++k) {
    col_ptr_[k + 1] = col_ptr_[k] + 1 + column_rows[perm_[k]].size();
  }
  row_idx_.resize(col_ptr_[n]);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = col_ptr_[k];
    row_idx_[p++] = k;
    const std::size_t first = p;
    for (std::size_t u : column_rows[perm_[k]]) row_idx_[p++] = inv_perm_[u];
    std::sort(row_idx_.begin() + static_cast<std::ptrdiff_t>(first),
              row_idx_.begin() + static_cast<std::ptrdiff_t>(p));
  }
  values_.assign(row_idx_.size(), 0.0);

  // Row structure of the factor, ordered by column (columns are visited in
  // increasing order).
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = col_ptr_[k] + 1; p < col_ptr_[k + 1]; ++p)
      ++row_ptr_[row_idx_[p] + 1];
  }
  for (std::size_t j = 0; j < n; ++j) row_ptr_[j + 1] += row_ptr_[j];
  row_slot_.resize(row_ptr_[n]);
  row_col_.resize(row_ptr_[n]);
  std::vector<std::size_t> next(row_ptr_.begin(), row_ptr_.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = col_ptr_[k] + 1; p < col_ptr_[k + 1]; ++p) {
      const std::size_t e = next[row_idx_[p]]++;
      row_slot_[e] = p;
      row_col_[e] = k;
    }
  }
}

std::size_t SparseCholesky::slot(std::size_t i, std::size_t j) const {
  util::require(i < size() && j < size(), "SparseCholesky: index out of range");
  const std::size_t a = inv_perm_[i];
  const std::size_t b = inv_perm_[j];
  const std::size_t col = std::min(a, b);
  const std::size_t row = std::max(a, b);
  if (row == col) return col_ptr_[col];
  const auto at = [&](std::size_t p) {
    return row_idx_.begin() + static_cast<std::ptrdiff_t>(p);
  };
  const auto end = at(col_ptr_[col + 1]);
  const auto it = std::lower_bound(at(col_ptr_[col] + 1), end, row);
  util::require(it != end && *it == row,
                "SparseCholesky: entry is not in the pattern");
  return static_cast<std::size_t>(it - row_idx_.begin());
}

void SparseCholesky::clear() noexcept {
  std::fill(values_.begin(), values_.end(), 0.0);
}

void SparseCholesky::factor(double jitter) {
  double* l = values_.data();
  for (std::size_t j = 0; j < size(); ++j) {
    const std::size_t diag = col_ptr_[j];
    const std::size_t end = col_ptr_[j + 1];
    for (std::size_t p = diag; p < end; ++p) position_[row_idx_[p]] = p;
    // Left-looking: subtract L(j:, k) L(j, k) for every earlier column k
    // with L(j, k) != 0. The rows of column k from j down all lie in
    // column j's pattern (the elimination-graph clique property).
    for (std::size_t e = row_ptr_[j]; e < row_ptr_[j + 1]; ++e) {
      const std::size_t q = row_slot_[e];
      const double ljk = l[q];
      const std::size_t k_end = col_ptr_[row_col_[e] + 1];
      for (std::size_t p = q; p < k_end; ++p)
        l[position_[row_idx_[p]]] -= l[p] * ljk;
    }
    double pivot = l[diag];
    if (pivot <= jitter) {
      util::require_numeric(jitter > 0.0,
                            "SparseCholesky: matrix is not positive definite");
      pivot = jitter;
    }
    const double ljj = std::sqrt(pivot);
    l[diag] = ljj;
    for (std::size_t p = diag + 1; p < end; ++p) l[p] /= ljj;
  }
}

void SparseCholesky::solve(std::span<double> b) {
  util::require(b.size() == size(),
                "SparseCholesky::solve: dimension mismatch");
  const std::size_t n = size();
  const double* l = values_.data();
  double* y = work_.data();
  for (std::size_t k = 0; k < n; ++k) y[k] = b[perm_[k]];
  // Forward substitution: L y = P b.
  for (std::size_t j = 0; j < n; ++j) {
    const double yj = y[j] / l[col_ptr_[j]];
    y[j] = yj;
    for (std::size_t p = col_ptr_[j] + 1; p < col_ptr_[j + 1]; ++p)
      y[row_idx_[p]] -= l[p] * yj;
  }
  // Backward substitution: L^T z = y.
  for (std::size_t j = n; j-- > 0;) {
    double s = y[j];
    for (std::size_t p = col_ptr_[j] + 1; p < col_ptr_[j + 1]; ++p)
      s -= l[p] * y[row_idx_[p]];
    y[j] = s / l[col_ptr_[j]];
  }
  for (std::size_t k = 0; k < n; ++k) b[perm_[k]] = y[k];
}

}  // namespace reclaim::la

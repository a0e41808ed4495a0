// HaloDec — the column-split decomposed format of one distributed shard.
//
// A rank's shard is stored as two CSR submatrices over the same rows:
//
//   local : the columns the rank owns (rebased to [0, x_width)),
//   halo  : every other column, renumbered into the compact halo index
//           space (position in the shard plan's sorted halo_cols).
//
// An SpMV over the shard reads x laid out [owned slice | halo values] —
// exactly the buffer the halo exchange fills — and runs the local pass
// first (zero-filling y), then accumulates the halo pass. That is the
// same two-pass decomposed-format protocol BcsrDec/BcsdDec use, so
// HaloDec plugs into the generic spmv()/ThreadedSpmv drivers through a
// FormatOps specialisation alone; the distributed rank runtime
// (src/dist/rank.*) drives the two passes itself so the local pass can
// run while halo bytes are still in flight.
//
// Like the out-of-tree toy format (tests/test_toy_format.cpp), HaloDec
// never joins AnyFormat's registry, so kKind reuses FormatKind::kCsr.
#pragma once

#include <vector>

#include "src/formats/csr.hpp"
#include "src/formats/format_ops.hpp"
#include "src/formats/validate.hpp"

namespace bspmv::dist {

template <class V>
class HaloDec {
 public:
  HaloDec() = default;

  /// Column-split rows [row_begin, row_end) of `a` against the owned
  /// x range [x_begin, x_end). halo_cols ends up sorted ascending (the
  /// compact halo index space the shard plan's segments address).
  static HaloDec split(const Csr<V>& a, index_t row_begin, index_t row_end,
                       index_t x_begin, index_t x_end);

  /// Assemble from pre-built parts (the wire-decode path). Validated:
  /// both parts must agree on rows and halo_cols must match halo.cols().
  HaloDec(Csr<V> local, Csr<V> halo, std::vector<index_t> halo_cols);

  index_t rows() const { return local_.rows(); }
  /// Logical input width: owned slice + halo values, concatenated.
  index_t cols() const { return local_.cols() + halo_.cols(); }
  std::size_t nnz() const { return local_.nnz() + halo_.nnz(); }

  index_t local_cols() const { return local_.cols(); }
  index_t halo_count() const { return halo_.cols(); }

  const Csr<V>& local() const { return local_; }
  const Csr<V>& halo() const { return halo_; }
  /// Global column ids of the halo entries (sorted; empty when built
  /// whole-local by FormatOps::convert).
  const std::vector<index_t>& halo_cols() const { return halo_cols_; }

  std::size_t working_set_bytes() const {
    return local_.working_set_bytes() + halo_.working_set_bytes();
  }

 private:
  Csr<V> local_;
  Csr<V> halo_;
  std::vector<index_t> halo_cols_;
};

extern template class HaloDec<float>;
extern template class HaloDec<double>;

}  // namespace bspmv::dist

namespace bspmv {

template <class V>
struct FormatOps<dist::HaloDec<V>> {
  using value_type = V;
  /// Reuses kCsr: HaloDec is not in BuiltinFormats, so the kind is never
  /// used for registry dispatch (same convention as the toy format).
  static constexpr FormatKind kKind = FormatKind::kCsr;
  static constexpr const char* kName = "halo_dec";
  static constexpr bool kParallel = true;
  /// Pass 0 is the local-columns submatrix (zeroes y), pass 1 the
  /// halo-columns accumulation — the BcsrDec blocked/remainder pattern.
  static constexpr int kPasses = 2;

  static dist::HaloDec<V> convert(const Csr<V>& a, const Candidate&) {
    // Single-process view: everything is local, the halo is empty.
    return dist::HaloDec<V>::split(a, 0, a.rows(), 0, a.cols());
  }
  static void validate(const dist::HaloDec<V>& m) {
    bspmv::validate(m.local());
    bspmv::validate(m.halo());
    BSPMV_CHECK_MSG(m.local().rows() == m.halo().rows(),
                    "halo_dec parts disagree on rows");
  }
  static std::size_t working_set_bytes(const dist::HaloDec<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const dist::HaloDec<V>& a, const V* x, V* y,
                       Impl impl) {
    FormatOps<Csr<V>>::spmv_add(a.local(), x, y, impl);
    FormatOps<Csr<V>>::spmv_add(a.halo(), x + a.local_cols(), y, impl);
  }

  static std::vector<std::size_t> pass_weights(const dist::HaloDec<V>& a,
                                               int pass) {
    return FormatOps<Csr<V>>::pass_weights(
        pass == 0 ? a.local() : a.halo(), 0);
  }
  static index_t pass_first_row(const dist::HaloDec<V>&, int, index_t g) {
    return g;
  }
  static void pass_run(const dist::HaloDec<V>& a, int pass, index_t g0,
                       index_t g1, const V* x, V* y, Impl impl) {
    if (pass == 0)
      FormatOps<Csr<V>>::pass_run(a.local(), 0, g0, g1, x, y, impl);
    else
      FormatOps<Csr<V>>::pass_run(a.halo(), 0, g0, g1, x + a.local_cols(),
                                  y, impl);
  }
};

}  // namespace bspmv

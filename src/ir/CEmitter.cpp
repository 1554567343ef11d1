//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/CEmitter.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

using namespace convgen;
using namespace convgen::ir;

std::string ir::cTensorStructDecl() {
  return strfmt(R"(typedef struct {
  int64_t dims[%d];
  int64_t params[%d];
  int32_t *pos[%d];
  int64_t pos_len[%d];
  int32_t *crd[%d];
  int64_t crd_len[%d];
  int32_t *perm[%d];
  int64_t perm_len[%d];
  double *vals;
  int64_t vals_len;
} cvg_tensor_t;
)",
                kMaxLevels + 1, kMaxLevels + 1, kMaxLevels + 1, kMaxLevels + 1,
                kMaxLevels + 1, kMaxLevels + 1, kMaxLevels + 1,
                kMaxLevels + 1);
}

namespace {

/// The sorted-ranking prelude helpers a function body calls. Each helper
/// (and its OpenMP pragmas) is emitted only into routines that need it,
/// keeping every other routine's emitted C — and its exact parallel-loop
/// census, which tests pin — unchanged.
struct HelperUse {
  bool SortUniqueRank = false; ///< Any SortUniqueRank statement.
  bool LeadSort = false;       ///< ... with 0 < OrderedLead < Arity.
  bool PackedSort = false;     ///< ... with pack widths (radix full sort).
  bool MergeSort = false;      ///< ... without (merge full sort).
  bool UniquePrefix = false;
  bool HashDistinct = false;
  bool Search = false;       ///< Tuple-compare LowerBound.
  bool PackedSearch = false; ///< Packed-key LowerBound.

  bool any() const {
    return SortUniqueRank || UniquePrefix || HashDistinct || Search ||
           PackedSearch;
  }

  void scan(const Expr &E) {
    if (!E)
      return;
    if (E->Kind == ExprKind::LowerBound)
      (E->PackWidths.empty() ? Search : PackedSearch) = true;
    for (const Expr &Arg : E->Args)
      scan(Arg);
    scan(E->A);
    scan(E->B);
    scan(E->C);
  }

  void scan(const Stmt &S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::SortUniqueRank:
      SortUniqueRank = true;
      LeadSort =
          LeadSort || (S->OrderedLead > 0 && S->OrderedLead < S->Arity);
      (S->PackWidths.empty() ? MergeSort : PackedSort) = true;
      break;
    case StmtKind::UniquePrefix:
      UniquePrefix = true;
      break;
    case StmtKind::HashDistinct:
      HashDistinct = true;
      break;
    default:
      break;
    }
    scan(S->A);
    scan(S->B);
    for (const Stmt &Sub : S->Stmts)
      scan(Sub);
    scan(S->Body);
    scan(S->Else);
  }
};

} // namespace

/// Emits the prologue line that binds one function parameter to a local
/// variable named exactly as the IR references it.
static std::string bindParam(const Param &P) {
  SlotRef Ref = parseSlotName(P.Name);
  switch (Ref.Role) {
  case SlotRef::RoleKind::Dim:
    return strfmt("  int64_t %s = A->dims[%d];\n", P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Param:
    return strfmt("  int64_t %s = A->params[%d];\n", P.Name.c_str(),
                  Ref.Level);
  case SlotRef::RoleKind::Pos:
    return strfmt("  const int32_t *restrict %s = A->pos[%d];\n",
                  P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Crd:
    return strfmt("  const int32_t *restrict %s = A->crd[%d];\n",
                  P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Perm:
    return strfmt("  const int32_t *restrict %s = A->perm[%d];\n",
                  P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Vals:
    return strfmt("  const double *restrict %s = A->vals;\n", P.Name.c_str());
  case SlotRef::RoleKind::Unknown:
    break;
  }
  fatalError(("C emitter: parameter '" + P.Name +
              "' does not follow the tensor naming convention")
                 .c_str());
}

/// The sorted-ranking prelude: only the helpers \p Use names. Tuples are
/// `arity` consecutive int32 elements; every helper's output is a pure
/// function of its input (never of the partition count), so any thread
/// count — and the interpreter's serial oracle — produce bit-identical
/// buffers.
static std::string sortedRankingHelpers(const HelperUse &Use) {
  std::string Out;
  if (!Use.any())
    return Out;
  Out += R"(static int cvg_tuple_cmp(const int32_t *a, const int32_t *b,
                         int64_t arity) {
  for (int64_t i = 0; i < arity; i++) {
    if (a[i] != b[i])
      return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}
)";
  // The comparison merge sort: a bottom-up merge whose per-width merge
  // passes parallelize under OpenMP.
  if (Use.MergeSort)
    Out += R"(static void cvg_merge_tuples(int32_t *dst, const int32_t *src, int64_t lo,
                             int64_t mid, int64_t hi, int64_t arity) {
  int64_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if (cvg_tuple_cmp(src + i * arity, src + j * arity, arity) <= 0)
      memcpy(dst + (k++) * arity, src + (i++) * arity,
             (size_t)arity * sizeof(int32_t));
    else
      memcpy(dst + (k++) * arity, src + (j++) * arity,
             (size_t)arity * sizeof(int32_t));
  }
  if (i < mid)
    memcpy(dst + k * arity, src + i * arity,
           (size_t)((mid - i) * arity) * sizeof(int32_t));
  if (j < hi)
    memcpy(dst + (k + (mid - i)) * arity, src + j * arity,
           (size_t)((hi - j) * arity) * sizeof(int32_t));
}
static void cvg_sort_tuples(int32_t *buf, int64_t n, int64_t arity) {
  if (n <= 1)
    return;
  int32_t *tmp = (int32_t *)malloc((size_t)(n * arity) * sizeof(int32_t));
  int32_t *src = buf, *dst = tmp;
  for (int64_t width = 1; width < n; width *= 2) {
    #pragma omp parallel for
    for (int64_t lo = 0; lo < n; lo += 2 * width) {
      int64_t mid = cvg_min(lo + width, n);
      int64_t hi = cvg_min(lo + 2 * width, n);
      cvg_merge_tuples(dst, src, lo, mid, hi, arity);
    }
    int32_t *swap = src;
    src = dst;
    dst = swap;
  }
  if (src != buf)
    memcpy(buf, src, (size_t)(n * arity) * sizeof(int32_t));
  free(tmp);
}
)";
  if (Use.Search)
    Out += R"(static int64_t cvg_lower_bound(const int32_t *buf, int64_t n, int64_t arity,
                               const int64_t *key) {
  int64_t lo = 0, hi = n;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    const int32_t *t = buf + mid * arity;
    int cmp = 0;
    for (int64_t i = 0; i < arity && cmp == 0; i++)
      cmp = (int64_t)t[i] < key[i] ? -1 : ((int64_t)t[i] > key[i] ? 1 : 0);
    if (cmp < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}
)";
  // Compacts the distinct leading dst_arity components of the n sorted src
  // tuples (arity src_arity) into dst, preserving order. Blocked two-pass
  // compaction: each partition counts its first-of-prefix tuples (the i-1
  // comparison reads across partition boundaries, src is const), a serial
  // pass turns counts into write offsets, and a second parallel pass copies.
  // The output never depends on the partition count, so any thread count (and
  // the interpreter's serial oracle) agree exactly.
  if (Use.UniquePrefix)
    Out += R"(static int64_t cvg_unique_prefix(const int32_t *src, int64_t n,
                                 int64_t src_arity, int32_t *dst,
                                 int64_t dst_arity) {
  int64_t p = cvg_nparts();
  if (p > n)
    p = n;
  if (p < 1)
    p = 1;
  int64_t *offs = (int64_t *)malloc((size_t)(p + 1) * sizeof(int64_t));
  #pragma omp parallel for
  for (int64_t b = 0; b < p; b++) {
    int64_t firsts = 0;
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
      if (i == 0 || cvg_tuple_cmp(src + i * src_arity,
                                  src + (i - 1) * src_arity, dst_arity) != 0)
        firsts++;
    offs[b + 1] = firsts;
  }
  offs[0] = 0;
  for (int64_t b = 0; b < p; b++)
    offs[b + 1] += offs[b];
  #pragma omp parallel for
  for (int64_t b = 0; b < p; b++) {
    int64_t u = offs[b];
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
      if (i == 0 || cvg_tuple_cmp(src + i * src_arity,
                                  src + (i - 1) * src_arity, dst_arity) != 0)
        memcpy(dst + (u++) * dst_arity, src + i * src_arity,
               (size_t)dst_arity * sizeof(int32_t));
  }
  int64_t total = offs[p];
  free(offs);
  return total;
}
)";
  // Gathers the distinct tuples of src into dst (first-seen order) through an
  // open-addressing table of 2n power-of-two slots holding dst indices. O(n)
  // memory, serial insertion: the win over sorting is algorithmic (distinct
  // log distinct instead of n log n comparison work), not thread-level.
  if (Use.HashDistinct)
    Out += R"(static int64_t cvg_hash_distinct(const int32_t *src, int64_t n,
                                 int64_t arity, int32_t *dst) {
  if (n == 0)
    return 0;
  int64_t cap = 1;
  while (cap < 2 * n)
    cap <<= 1;
  int64_t *table = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
  for (int64_t i = 0; i < cap; i++)
    table[i] = -1;
  int64_t u = 0;
  for (int64_t i = 0; i < n; i++) {
    const int32_t *t = src + i * arity;
    uint64_t h = 1469598103934665603ull;
    for (int64_t k = 0; k < arity; k++) {
      h ^= (uint32_t)t[k];
      h *= 1099511628211ull;
    }
    for (int64_t slot = (int64_t)(h & (uint64_t)(cap - 1));;
         slot = (slot + 1) & (cap - 1)) {
      int64_t o = table[slot];
      if (o < 0) {
        table[slot] = u;
        memcpy(dst + (u++) * arity, t, (size_t)arity * sizeof(int32_t));
        break;
      }
      if (cvg_tuple_cmp(dst + o * arity, t, arity) == 0)
        break;
    }
  }
  free(table);
  return u;
}

)";
  // Checks that the n tuples of buf are in non-decreasing lexicographic
  // order and, when they are, dedups them in place and scatters each
  // tuple's rank in the distinct list to rank_out[slot[i]] (slot NULL: slot
  // i; rank_out NULL: no ranks). Returns the distinct count, or -1 with buf
  // and rank_out untouched when some adjacent pair is out of order. The
  // check is a blocked parallel pass (the i-1 comparison reads across
  // partition boundaries) that also counts first-of-run tuples; without
  // duplicates the ranks are the positions themselves, scattered in
  // parallel with no further compares. With duplicates a serial forward
  // compaction runs: it writes only at or behind its read position, and
  // never over a tuple it has yet to compare.
  if (Use.SortUniqueRank)
    Out += R"(static int64_t cvg_unique_sorted(int32_t *buf, int64_t n, int64_t arity,
                                 const int32_t *slot, int32_t *rank_out) {
  int64_t p = cvg_nparts();
  if (p > n)
    p = n;
  if (p < 1)
    p = 1;
  int64_t total = 0;
  int unsorted = 0;
  #pragma omp parallel for reduction(| : unsorted) reduction(+ : total)
  for (int64_t b = 0; b < p; b++) {
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++) {
      int c = i == 0 ? -1
                     : cvg_tuple_cmp(buf + (i - 1) * arity, buf + i * arity,
                                     arity);
      if (c > 0) {
        unsorted = 1;
        break;
      }
      total += c < 0;
    }
  }
  if (unsorted)
    return -1;
  if (total == n) {
    if (rank_out) {
      #pragma omp parallel for
      for (int64_t i = 0; i < n; i++)
        rank_out[slot ? slot[i] : i] = (int32_t)i;
    }
    return n;
  }
  int64_t u = 0;
  for (int64_t i = 0; i < n; i++) {
    if (i == 0 ||
        cvg_tuple_cmp(buf + (i - 1) * arity, buf + i * arity, arity) != 0) {
      if (u != i)
        memcpy(buf + u * arity, buf + i * arity,
               (size_t)arity * sizeof(int32_t));
      u++;
    }
    if (rank_out)
      rank_out[slot ? slot[i] : i] = (int32_t)(u - 1);
  }
  return u;
}
)";
  // Stable radix ordering by packed keys, shared by the ordered-lead sort
  // (the first `ncomp` = lead components) and the packed full sort (all of
  // them): each slot's components pack into one uint64_t key (component 0
  // most significant, the planner's widths or 32 bits each, so unsigned
  // key order equals lexicographic order), an LSD radix sort carries the
  // slot index as its payload, and the tuples are gathered into a fresh
  // buffer in slot order. Digit counts are a pure function of the key
  // multiset, not of the arrangement, so one upfront sweep prices every
  // 11-bit-digit pass (6 passes cover 64 bits; 2048 scatter buckets still
  // fit the cache) and passes whose digit is constant are skipped
  // outright. Each pass rebuilds per-partition histograms over a fixed
  // blocking of [0, n) and turns them into scatter bases with one serial
  // (digit, partition) offset scan. Every pass is a stable scatter, and a
  // stable LSD sort's output is uniquely determined by the input
  // sequence, so any partition count produces the same order by
  // construction.
  if (Use.LeadSort || Use.PackedSort)
    Out += R"(static int32_t *cvg_radix_gather(const int32_t *restrict buf, int64_t n,
                                 int64_t arity, int64_t ncomp,
                                 const int64_t *restrict widths,
                                 int32_t **slot_out) {
  enum { CVG_RADIX_BITS = 11, CVG_RADIX_SIZE = 1 << CVG_RADIX_BITS };
  int64_t bits = 0;
  for (int64_t d = 0; d < ncomp; d++)
    bits += widths ? widths[d] : 32;
  uint64_t *keys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
  uint64_t *aux = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
  int32_t *idx = (int32_t *)malloc((size_t)n * sizeof(int32_t));
  int32_t *iaux = (int32_t *)malloc((size_t)n * sizeof(int32_t));
  #pragma omp parallel for
  for (int64_t i = 0; i < n; i++) {
    uint64_t k = 0;
    for (int64_t d = 0; d < ncomp; d++)
      k = (k << (widths ? widths[d] : 32)) |
          (uint64_t)(uint32_t)buf[i * arity + d];
    keys[i] = k;
    idx[i] = (int32_t)i;
  }
  int64_t p = cvg_nparts();
  if (p > n)
    p = n;
  if (p < 1)
    p = 1;
  int64_t passes = (bits + CVG_RADIX_BITS - 1) / CVG_RADIX_BITS;
  int64_t span = passes * CVG_RADIX_SIZE;
  int64_t *totals = (int64_t *)calloc((size_t)(span + 1), sizeof(int64_t));
  int64_t *hist =
      (int64_t *)malloc((size_t)(p * (span + 1)) * sizeof(int64_t));
  #pragma omp parallel for
  for (int64_t b = 0; b < p; b++) {
    int64_t *h = hist + b * (span + 1);
    memset(h, 0, (size_t)span * sizeof(int64_t));
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
      for (int64_t pass = 0; pass < passes; pass++)
        h[pass * CVG_RADIX_SIZE +
          ((keys[i] >> (CVG_RADIX_BITS * pass)) & (CVG_RADIX_SIZE - 1))]++;
  }
  for (int64_t b = 0; b < p; b++)
    for (int64_t j = 0; j < span; j++)
      totals[j] += hist[b * (span + 1) + j];
  for (int64_t pass = 0; pass < passes; pass++) {
    int64_t shift = CVG_RADIX_BITS * pass;
    const int64_t *tot = totals + pass * CVG_RADIX_SIZE;
    int64_t constant = 0;
    for (int64_t digit = 0; digit < CVG_RADIX_SIZE; digit++)
      if (tot[digit] == n)
        constant = 1;
    if (constant)
      continue;
    #pragma omp parallel for
    for (int64_t b = 0; b < p; b++) {
      int64_t *h = hist + b * CVG_RADIX_SIZE;
      memset(h, 0, CVG_RADIX_SIZE * sizeof(int64_t));
      for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
        h[(keys[i] >> shift) & (CVG_RADIX_SIZE - 1)]++;
    }
    int64_t base = 0;
    for (int64_t digit = 0; digit < CVG_RADIX_SIZE; digit++)
      for (int64_t b = 0; b < p; b++) {
        int64_t c = hist[b * CVG_RADIX_SIZE + digit];
        hist[b * CVG_RADIX_SIZE + digit] = base;
        base += c;
      }
    #pragma omp parallel for
    for (int64_t b = 0; b < p; b++) {
      int64_t *h = hist + b * CVG_RADIX_SIZE;
      for (int64_t i = n * b / p; i < n * (b + 1) / p; i++) {
        int64_t dst = h[(keys[i] >> shift) & (CVG_RADIX_SIZE - 1)]++;
        aux[dst] = keys[i];
        iaux[dst] = idx[i];
      }
    }
    uint64_t *swap = keys;
    keys = aux;
    aux = swap;
    int32_t *iswap = idx;
    idx = iaux;
    iaux = iswap;
  }
  free(hist);
  free(totals);
  free(keys);
  free(aux);
  free(iaux);
  int32_t *sorted = (int32_t *)malloc((size_t)(n * arity) * sizeof(int32_t));
  #pragma omp parallel for
  for (int64_t i = 0; i < n; i++)
    memcpy(sorted + i * arity, buf + (int64_t)idx[i] * arity,
           (size_t)arity * sizeof(int32_t));
  *slot_out = idx;
  return sorted;
}
)";
  // Full comparison sort. With ranks, each tuple carries its slot as a
  // trailing sort component: ties then order by slot, and the slot
  // survives the sort to address rank_out (workspace: two copies of
  // n * (arity + 1) ints).
  if (Use.MergeSort)
    Out += R"(static int64_t cvg_sort_merge_full(int32_t *restrict buf, int64_t n,
                                   int64_t arity,
                                   int32_t *restrict rank_out) {
  if (!rank_out) {
    cvg_sort_tuples(buf, n, arity);
    return cvg_unique_sorted(buf, n, arity, NULL, NULL);
  }
  int64_t ea = arity + 1;
  int32_t *ext = (int32_t *)malloc((size_t)(n * ea) * sizeof(int32_t));
  #pragma omp parallel for
  for (int64_t i = 0; i < n; i++) {
    memcpy(ext + i * ea, buf + i * arity, (size_t)arity * sizeof(int32_t));
    ext[i * ea + arity] = (int32_t)i;
  }
  cvg_sort_tuples(ext, n, ea);
  int32_t *slot = (int32_t *)malloc((size_t)n * sizeof(int32_t));
  #pragma omp parallel for
  for (int64_t i = 0; i < n; i++) {
    memcpy(buf + i * arity, ext + i * ea, (size_t)arity * sizeof(int32_t));
    slot[i] = ext[i * ea + arity];
  }
  free(ext);
  int64_t u = cvg_unique_sorted(buf, n, arity, slot, rank_out);
  free(slot);
  return u;
}
)";
  // Packed-key binary search: when the planner proved the searched tuples
  // pack into 64 bits, each probe step packs the probed tuple and compares
  // one uint64_t against the pre-packed key — the branch-free equivalent of
  // the cvg_tuple_cmp loop. Unsigned packed order equals lexicographic
  // order whenever every stored coordinate fits its width (the same
  // contract as cvg_radix_gather), so the result index is identical
  // to cvg_lower_bound's.
  if (Use.PackedSearch)
    Out += R"(static int64_t cvg_lower_bound_packed(const int32_t *restrict buf,
                                       int64_t n, int64_t arity,
                                       const int64_t *restrict widths,
                                       const int64_t *restrict key) {
  uint64_t kk = 0;
  for (int64_t d = 0; d < arity; d++)
    kk = (kk << widths[d]) | (uint64_t)(uint32_t)(int32_t)key[d];
  int64_t lo = 0, hi = n;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    const int32_t *t = buf + mid * arity;
    uint64_t mk = 0;
    for (int64_t d = 0; d < arity; d++)
      mk = (mk << widths[d]) | (uint64_t)(uint32_t)t[d];
    if (mk < kk)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}
)";
  if (!Use.SortUniqueRank)
    return Out + "\n";
  // The order-aware sort + dedup + rank. The planner's ordered lead says
  // how many leading components the collection order leaves unsorted: a
  // stable radix ordering by just those into a fresh buffer (lead 0: the
  // buffer as collected), then one O(n) check that the whole list is
  // sorted, which also dedups and scatters the ranks. On success the
  // ordered buffer replaces the caller's. A failed check (a legal but
  // unsorted source, e.g. column-major COO) discards it and runs the full
  // sort on the original buffer: the radix ordering over every component
  // when the widths pack, the merge sort otherwise.
  Out += R"(static int64_t cvg_sort_unique_rank(int32_t **buf_io, int64_t n,
                                    int64_t arity, int64_t lead,
                                    const int64_t *restrict widths,
                                    int32_t *restrict rank_out) {
  int32_t *buf = *buf_io;
  (void)widths;
  if (n <= 1) {
    if (n == 1 && rank_out)
      rank_out[0] = 0;
    return n < 0 ? 0 : n;
  }
  int32_t *slot = NULL, *sorted = buf;
  if (lead < arity) {
)";
  if (Use.LeadSort)
    Out += R"(    if (lead > 0)
      sorted = cvg_radix_gather(buf, n, arity, lead, widths, &slot);
)";
  Out += R"(    int64_t u = cvg_unique_sorted(sorted, n, arity, slot, rank_out);
    free(slot);
    if (u >= 0 && sorted != buf) {
      free(buf);
      *buf_io = sorted;
    }
    if (u >= 0)
      return u;
    if (sorted != buf)
      free(sorted);
  }
)";
  if (Use.PackedSort)
    Out += R"(  if (widths) {
    sorted = cvg_radix_gather(buf, n, arity, arity, widths, &slot);
    int64_t u = cvg_unique_sorted(sorted, n, arity, slot, rank_out);
    free(slot);
    free(buf);
    *buf_io = sorted;
    return u;
  }
)";
  if (Use.MergeSort)
    Out += "  return cvg_sort_merge_full(buf, n, arity, rank_out);\n";
  else
    Out += "  return -1;\n";
  Out += "}\n";
  return Out + "\n";
}

std::string ir::emitC(const Function &F) {
  std::string Out;
  Out += "// Generated by convgen. Do not edit.\n";
  // clock_gettime needs POSIX visibility under strict -std=c11.
  Out += "#define _POSIX_C_SOURCE 199309L\n";
  Out += "#include <stdint.h>\n#include <stdlib.h>\n#include <string.h>\n"
         "#include <time.h>\n\n";
  Out += "#define cvg_min(a, b)                                              "
         "\\\n  ({ __typeof__(a) cvg_a = (a); __typeof__(b) cvg_b = (b);     "
         "\\\n     cvg_a < cvg_b ? cvg_a : cvg_b; })\n";
  Out += "#define cvg_max(a, b)                                              "
         "\\\n  ({ __typeof__(a) cvg_a = (a); __typeof__(b) cvg_b = (b);     "
         "\\\n     cvg_a > cvg_b ? cvg_a : cvg_b; })\n\n";
  // Partition count for blocked parallel passes (scans, cursor insertion).
  // Serial builds see one partition, so the same source stays valid C and
  // bit-identical: generated code is deterministic for any value >= 1.
  Out += "#ifdef _OPENMP\n"
         "#include <omp.h>\n"
         "#define cvg_nparts() ((int64_t)omp_get_max_threads())\n"
         "#else\n"
         "#define cvg_nparts() ((int64_t)1)\n"
         "#endif\n\n";
  HelperUse Use;
  Use.scan(F.Body);
  Out += sortedRankingHelpers(Use);
  // Per-phase wall-clock accumulators; <fn>_phase_seconds exposes them to
  // the benchmark harness (slots: analysis, edge insertion, insertion,
  // finalize). Thread-local so concurrent runs of a PlanCache-shared
  // routine never race: each caller thread accumulates (and reads back)
  // its own clock.
  Out += "static double cvg_now(void) {\n"
         "  struct timespec cvg_ts;\n"
         "  clock_gettime(CLOCK_MONOTONIC, &cvg_ts);\n"
         "  return (double)cvg_ts.tv_sec + 1e-9 * (double)cvg_ts.tv_nsec;\n"
         "}\n"
         "static _Thread_local double cvg_phase_secs[8];\n"
         "static _Thread_local double cvg_phase_t0;\n\n";
  Out += cTensorStructDecl();
  Out += "\ndouble *" + F.Name + "_phase_seconds(void) {\n"
         "  return cvg_phase_secs;\n}\n";
  Out += "\nvoid " + F.Name +
         "(const cvg_tensor_t *restrict A, cvg_tensor_t *restrict B) {\n";
  for (const Param &P : F.Params)
    Out += bindParam(P);
  Out += "\n";
  Out += printStmtAsC(F.Body, 1);
  Out += "}\n";
  return Out;
}

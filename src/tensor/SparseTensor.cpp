//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tensor/SparseTensor.h"

#include "remap/Bounds.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <functional>

using namespace convgen;
using namespace convgen::tensor;
using formats::LevelKind;
using formats::LevelSpec;

void SparseTensor::validate() const {
  auto failTensor = [&](const std::string &Msg) {
    fatalError(
        ("invalid " + Format.Name + " tensor: " + Msg).c_str());
  };
  if (static_cast<int>(Dims.size()) != Format.SrcOrder)
    failTensor("canonical dimension count mismatch");
  if (Levels.size() != Format.Levels.size())
    failTensor("level storage count mismatch");

  std::vector<remap::NumericDimBounds> Bounds =
      remap::analyzeBoundsNumeric(Format.Remap, Dims);

  int64_t Size = 1; // Number of positions at the current level.
  for (size_t K = 0; K < Format.Levels.size(); ++K) {
    const LevelSpec &Spec = Format.Levels[K];
    const LevelStorage &Data = Levels[K];
    const remap::NumericDimBounds &DimB = Bounds[static_cast<size_t>(
        Spec.Dim)];
    switch (Spec.Kind) {
    case LevelKind::Dense: {
      if (!DimB.Known)
        failTensor(strfmt("dense level %zu has unknown extent", K));
      Size *= DimB.extent();
      break;
    }
    case LevelKind::Compressed: {
      if (Data.Pos.size() != static_cast<size_t>(Size) + 1)
        failTensor(strfmt("level %zu pos has %zu entries, expected %lld", K,
                          Data.Pos.size(), static_cast<long long>(Size + 1)));
      if (Data.Pos.front() != 0)
        failTensor(strfmt("level %zu pos[0] != 0", K));
      for (size_t P = 1; P < Data.Pos.size(); ++P)
        if (Data.Pos[P] < Data.Pos[P - 1])
          failTensor(strfmt("level %zu pos not monotonic at %zu", K, P));
      int64_t Stored = Data.Pos.back();
      if (Data.Crd.size() != static_cast<size_t>(Stored))
        failTensor(strfmt("level %zu crd size mismatch", K));
      if (DimB.Known)
        for (int32_t C : Data.Crd)
          if (C < DimB.Lo || C > DimB.Hi)
            failTensor(strfmt("level %zu coordinate %d out of range", K, C));
      Size = Stored;
      break;
    }
    case LevelKind::Singleton: {
      if (Data.Crd.size() != static_cast<size_t>(Size))
        failTensor(strfmt("level %zu singleton crd size mismatch", K));
      if (DimB.Known)
        for (int32_t C : Data.Crd)
          if (C < DimB.Lo || C > DimB.Hi)
            failTensor(strfmt("level %zu coordinate %d out of range", K, C));
      break;
    }
    case LevelKind::Squeezed: {
      if (Data.SizeParam < 0)
        failTensor(strfmt("level %zu missing size parameter", K));
      if (Data.Perm.size() != static_cast<size_t>(Data.SizeParam))
        failTensor(strfmt("level %zu perm size != K", K));
      if (!std::is_sorted(Data.Perm.begin(), Data.Perm.end()))
        failTensor(strfmt("level %zu perm not ascending", K));
      if (DimB.Known)
        for (int32_t C : Data.Perm)
          if (C < DimB.Lo || C > DimB.Hi)
            failTensor(strfmt("level %zu offset %d out of range", K, C));
      Size *= Data.SizeParam;
      break;
    }
    case LevelKind::Sliced: {
      if (Data.SizeParam < 0)
        failTensor(strfmt("level %zu missing size parameter", K));
      Size *= Data.SizeParam;
      break;
    }
    case LevelKind::Skyline: {
      if (Data.Pos.size() != static_cast<size_t>(Size) + 1)
        failTensor(strfmt("level %zu pos size mismatch", K));
      if (Data.Pos.front() != 0)
        failTensor(strfmt("level %zu pos[0] != 0", K));
      for (size_t P = 1; P < Data.Pos.size(); ++P)
        if (Data.Pos[P] < Data.Pos[P - 1])
          failTensor(strfmt("level %zu pos not monotonic at %zu", K, P));
      Size = Data.Pos.back();
      break;
    }
    case LevelKind::Offset:
      break; // One child per parent; nothing stored.
    }
  }
  if (Vals.size() != static_cast<size_t>(Size))
    failTensor(strfmt("vals has %zu entries, expected %lld", Vals.size(),
                      static_cast<long long>(Size)));
}

namespace {

/// True if the first \p CheckLevels levels are a compressed root followed
/// by singletons (a COO-style group), whose stored tuples are the columns
/// of the crd arrays. Then \p *Ordered is set by one pass comparing each
/// tuple with its predecessor, and \p *At names the first regression.
bool cooTuplesOrdered(const SparseTensor &T, int CheckLevels, bool *Ordered,
                      size_t *At) {
  std::vector<const int32_t *> Crd;
  for (int K = 0; K < CheckLevels; ++K) {
    LevelKind Kind = T.Format.Levels[static_cast<size_t>(K)].Kind;
    if (Kind != (K ? LevelKind::Singleton : LevelKind::Compressed))
      return false;
    Crd.push_back(T.Levels[static_cast<size_t>(K)].Crd.data());
  }
  size_t N = T.Levels[0].Crd.size();
  *Ordered = true;
  for (size_t P = 1; P < N && *Ordered; ++P)
    for (const int32_t *C : Crd)
      if (C[P] != C[P - 1]) {
        if (C[P] < C[P - 1]) {
          *Ordered = false;
          *At = P;
        }
        break;
      }
  return true;
}

/// True if the first \p CheckLevels levels are dense or compressed and
/// every compressed segment strictly increases: then every level's
/// coordinate prefixes strictly increase in storage order, so the tuples
/// are ordered. False says nothing (a tie may still be ordered).
bool siblingsStrictlyIncrease(const SparseTensor &T, int CheckLevels) {
  for (int K = 0; K < CheckLevels; ++K) {
    const LevelStorage &L = T.Levels[static_cast<size_t>(K)];
    switch (T.Format.Levels[static_cast<size_t>(K)].Kind) {
    case LevelKind::Dense:
      break;
    case LevelKind::Compressed:
      for (size_t P = 0; P + 1 < L.Pos.size(); ++P)
        for (int64_t Q = int64_t(L.Pos[P]) + 1; Q < L.Pos[P + 1]; ++Q)
          if (L.Crd[static_cast<size_t>(Q)] <=
              L.Crd[static_cast<size_t>(Q) - 1])
            return false;
      break;
    default:
      return false;
    }
  }
  return true;
}

} // namespace

bool SparseTensor::lexOrderedUpTo(int CheckLevels, std::string *Why) const {
  CONVGEN_ASSERT(CheckLevels <= static_cast<int>(Format.Levels.size()),
                 "lex check deeper than the format");
  // Fast path for the dominant requirement (coo-style sources, one
  // level): the root's order is a flat scan, with none of the generic
  // walker's per-tuple overhead on the hot conversion path.
  if (CheckLevels == 1) {
    switch (Format.Levels[0].Kind) {
    case formats::LevelKind::Dense:
    case formats::LevelKind::Squeezed:
    case formats::LevelKind::Sliced:
      return true; // Sorted by construction.
    case formats::LevelKind::Compressed: {
      const OwnedArray<int32_t> &Crd = Levels[0].Crd;
      for (size_t P = 1; P < Crd.size(); ++P)
        if (Crd[P] < Crd[P - 1]) {
          if (Why)
            *Why = strfmt("level 0 crd regresses at position %zu", P);
          return false;
        }
      return true;
    }
    default:
      break; // Fall through to the generic walker.
    }
  }
  // Flat scans for the shapes the planner's order gate meets in practice
  // (coo-style tuples, and trees of sorted unique segments); the generic
  // walker below decides every other case exactly.
  bool Ordered = true;
  size_t At = 0;
  if (cooTuplesOrdered(*this, CheckLevels, &Ordered, &At)) {
    if (!Ordered && Why)
      *Why = strfmt("stored tuple at position %zu regresses "
                    "lexicographically (first %d levels)",
                    At, CheckLevels);
    return Ordered;
  }
  if (siblingsStrictlyIncrease(*this, CheckLevels))
    return true;
  std::vector<remap::NumericDimBounds> Bounds =
      remap::analyzeBoundsNumeric(Format.Remap, Dims);

  // Depth-first walk over the first CheckLevels levels in storage order,
  // comparing each coordinate tuple against its predecessor.
  std::vector<int64_t> Prev, Cur(static_cast<size_t>(CheckLevels));
  std::function<void(int, int64_t)> Walk = [&](int K, int64_t Parent) {
    if (!Ordered)
      return;
    if (K == CheckLevels) {
      if (!Prev.empty() &&
          std::lexicographical_compare(Cur.begin(), Cur.end(), Prev.begin(),
                                       Prev.end())) {
        if (Why)
          *Why = strfmt("stored tuple at level %d regresses "
                        "lexicographically (first %d levels)",
                        K, CheckLevels);
        Ordered = false;
        return;
      }
      Prev = Cur;
      return;
    }
    const formats::LevelSpec &Spec = Format.Levels[static_cast<size_t>(K)];
    const LevelStorage &Data = Levels[static_cast<size_t>(K)];
    const remap::NumericDimBounds &DimB =
        Bounds[static_cast<size_t>(Spec.Dim)];
    switch (Spec.Kind) {
    case formats::LevelKind::Dense: {
      for (int64_t C = 0; C < DimB.extent() && Ordered; ++C) {
        Cur[static_cast<size_t>(K)] = DimB.Lo + C;
        Walk(K + 1, Parent * DimB.extent() + C);
      }
      return;
    }
    case formats::LevelKind::Compressed: {
      for (int64_t P = Data.Pos[static_cast<size_t>(Parent)];
           P < Data.Pos[static_cast<size_t>(Parent) + 1] && Ordered; ++P) {
        Cur[static_cast<size_t>(K)] = Data.Crd[static_cast<size_t>(P)];
        Walk(K + 1, P);
      }
      return;
    }
    case formats::LevelKind::Singleton: {
      Cur[static_cast<size_t>(K)] = Data.Crd[static_cast<size_t>(Parent)];
      Walk(K + 1, Parent);
      return;
    }
    case formats::LevelKind::Squeezed: {
      for (int64_t S = 0; S < Data.SizeParam && Ordered; ++S) {
        Cur[static_cast<size_t>(K)] = Data.Perm[static_cast<size_t>(S)];
        Walk(K + 1, Parent * Data.SizeParam + S);
      }
      return;
    }
    case formats::LevelKind::Sliced: {
      for (int64_t S = 0; S < Data.SizeParam && Ordered; ++S) {
        Cur[static_cast<size_t>(K)] = S;
        Walk(K + 1, Parent * Data.SizeParam + S);
      }
      return;
    }
    case formats::LevelKind::Skyline: {
      // j = p - pos[parent+1] + i + 1: ascending within each parent.
      CONVGEN_ASSERT(K >= 1, "skyline levels cannot be the root");
      int64_t ParentCoord = Cur[static_cast<size_t>(K - 1)];
      for (int64_t P = Data.Pos[static_cast<size_t>(Parent)];
           P < Data.Pos[static_cast<size_t>(Parent) + 1] && Ordered; ++P) {
        Cur[static_cast<size_t>(K)] =
            P - Data.Pos[static_cast<size_t>(Parent) + 1] + ParentCoord + 1;
        Walk(K + 1, P);
      }
      return;
    }
    case formats::LevelKind::Offset: {
      const auto &Addends = Spec.AddendDims;
      Cur[static_cast<size_t>(K)] =
          Cur[static_cast<size_t>(Addends[0])] +
          Cur[static_cast<size_t>(Addends[1])];
      Walk(K + 1, Parent);
      return;
    }
    }
    convgen_unreachable("unknown level kind");
  };
  Walk(0, 0);
  return Ordered;
}

namespace {

std::string dumpArray(const char *Name, const std::vector<int32_t> &Data) {
  std::string Out = strfmt("  %s[%zu] =", Name, Data.size());
  size_t Limit = std::min<size_t>(Data.size(), 64);
  for (size_t I = 0; I < Limit; ++I)
    Out += strfmt(" %d", Data[I]);
  if (Limit < Data.size())
    Out += " ...";
  return Out + "\n";
}

} // namespace

std::string SparseTensor::dump() const {
  std::string Out = Format.summary() + "\n";
  std::string DimText;
  for (size_t D = 0; D < Dims.size(); ++D)
    DimText += (D ? " x " : "") + std::to_string(Dims[D]);
  Out += strfmt("  dims = %s, stored = %lld\n", DimText.c_str(),
                static_cast<long long>(storedSize()));
  for (size_t K = 0; K < Levels.size(); ++K) {
    const LevelStorage &L = Levels[K];
    Out += strfmt("  level %zu (%s):", K,
                  formats::levelKindName(Format.Levels[K].Kind));
    if (L.SizeParam >= 0)
      Out += strfmt(" K=%lld", static_cast<long long>(L.SizeParam));
    Out += "\n";
    if (!L.Pos.empty())
      Out += dumpArray("pos", L.Pos);
    if (!L.Crd.empty())
      Out += dumpArray("crd", L.Crd);
    if (!L.Perm.empty())
      Out += dumpArray("perm", L.Perm);
  }
  std::string ValsText = strfmt("  vals[%zu] =", Vals.size());
  size_t Limit = std::min<size_t>(Vals.size(), 32);
  for (size_t I = 0; I < Limit; ++I)
    ValsText += strfmt(" %g", Vals[I]);
  if (Limit < Vals.size())
    ValsText += " ...";
  return Out + ValsText + "\n";
}

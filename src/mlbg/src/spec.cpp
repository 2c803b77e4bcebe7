#include "shc/mlbg/spec.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace shc {

std::size_t ConstructionLevel::max_owned() const {
  std::size_t best = 0;
  for (const auto& s : owned_dims) best = std::max(best, s.size());
  return best;
}

std::size_t ConstructionLevel::min_owned() const {
  std::size_t best = owned_dims.empty() ? 0 : owned_dims.front().size();
  for (const auto& s : owned_dims) best = std::min(best, s.size());
  return best;
}

std::vector<std::vector<Dim>> partition_dims(int lo, int hi, Label classes) {
  assert(lo <= hi && classes >= 1);
  const int count = hi - lo;
  const int base = count / static_cast<int>(classes);
  const int extra = count % static_cast<int>(classes);
  std::vector<std::vector<Dim>> out(classes);
  Dim next = lo + 1;
  for (Label j = 0; j < classes; ++j) {
    const int size = base + (static_cast<int>(j) < extra ? 1 : 0);
    out[j].reserve(static_cast<std::size_t>(size));
    for (int t = 0; t < size; ++t) out[j].push_back(next++);
  }
  assert(next == hi + 1);
  return out;
}

namespace {

/// Caller input (explicit cut vectors and n arrive from requests):
/// guarded in Release builds too, at O(levels).
void check_range(int n, const std::vector<int>& cuts) {
  if (n < 2 || n > kMaxCubeDim) {
    throw std::invalid_argument("SparseHypercubeSpec: n must be in [2, " +
                                std::to_string(kMaxCubeDim) + "] (got " +
                                std::to_string(n) + ")");
  }
  if (cuts.empty() || cuts.front() < 1 || cuts.back() >= n) {
    throw std::invalid_argument(
        "SparseHypercubeSpec: need at least one cut, all in [1, n - 1]");
  }
  for (std::size_t t = 0; t + 1 < cuts.size(); ++t) {
    if (cuts[t] >= cuts[t + 1]) {
      throw std::invalid_argument("SparseHypercubeSpec: cuts must be strictly increasing");
    }
  }
}

}  // namespace

SparseHypercubeSpec::SparseHypercubeSpec(int n, std::vector<int> cuts,
                                         std::vector<ConstructionLevel> levels)
    : n_(n), cuts_(std::move(cuts)), levels_(std::move(levels)) {}

SparseHypercubeSpec SparseHypercubeSpec::construct_base(int n, int m,
                                                        CubeLabeling labeling) {
  return construct(n, {m}, {std::move(labeling)});
}

SparseHypercubeSpec SparseHypercubeSpec::construct_base(int n, int m) {
  return construct_base(n, m, lemma2_labeling(m));
}

SparseHypercubeSpec SparseHypercubeSpec::construct(int n, std::vector<int> cuts) {
  check_range(n, cuts);  // before any labeling is built from a window size
  std::vector<CubeLabeling> labelings;
  labelings.reserve(cuts.size());
  int prev = 0;
  for (int c : cuts) {
    labelings.push_back(lemma2_labeling(c - prev));
    prev = c;
  }
  return construct(n, std::move(cuts), std::move(labelings));
}

SparseHypercubeSpec SparseHypercubeSpec::construct(int n, std::vector<int> cuts,
                                                   std::vector<CubeLabeling> labelings) {
  check_range(n, cuts);
  if (cuts.size() != labelings.size()) {
    throw std::invalid_argument("SparseHypercubeSpec: need one labeling per cut");
  }

  std::vector<ConstructionLevel> levels;
  levels.reserve(cuts.size());
  int prev = 0;
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    const int win_lo = prev;
    const int win_hi = cuts[t];
    const int dim_lo = cuts[t];
    const int dim_hi = (t + 1 < cuts.size()) ? cuts[t + 1] : n;
    if (labelings[t].m() != win_hi - win_lo) {
      throw std::invalid_argument("SparseHypercubeSpec: labeling must match its window size");
    }
    assert(labelings[t].satisfies_condition_a() &&
           "construction requires a Condition-A labeling");

    ConstructionLevel level{win_lo, win_hi, dim_lo, dim_hi, std::move(labelings[t]),
                            {}, {}};
    level.owned_dims = partition_dims(dim_lo, dim_hi, level.labeling.num_labels());
    level.dim_owner.assign(static_cast<std::size_t>(dim_hi - dim_lo), 0);
    for (Label j = 0; j < level.labeling.num_labels(); ++j) {
      for (Dim d : level.owned_dims[j]) {
        level.dim_owner[static_cast<std::size_t>(d - dim_lo - 1)] = j;
      }
    }
    levels.push_back(std::move(level));
    prev = cuts[t];
  }
  return SparseHypercubeSpec(n, std::move(cuts), std::move(levels));
}

int SparseHypercubeSpec::level_of_dim(Dim i) const noexcept {
  assert(i >= 1 && i <= n_);
  if (i <= cuts_.front()) return -1;
  // levels_[t] governs (cuts_[t], next]; linear scan is fine (k <= 8).
  for (std::size_t t = 0; t < levels_.size(); ++t) {
    if (i <= levels_[t].dim_hi) return static_cast<int>(t);
  }
  return static_cast<int>(levels_.size()) - 1;  // unreachable for valid i
}

Label SparseHypercubeSpec::label_at(Vertex u, int level) const noexcept {
  const ConstructionLevel& lv = levels_[static_cast<std::size_t>(level)];
  return lv.labeling.at(window_value(u, lv.win_lo, lv.win_hi));
}

bool SparseHypercubeSpec::has_edge_dim(Vertex u, Dim i) const noexcept {
  const int t = level_of_dim(i);
  if (t < 0) return true;  // Rule 1 core dimension
  const ConstructionLevel& lv = levels_[static_cast<std::size_t>(t)];
  return lv.dim_owner[static_cast<std::size_t>(i - lv.dim_lo - 1)] == label_at(u, t);
}

Vertex SparseHypercubeSpec::dim_support_mask(Dim i) const noexcept {
  const int t = level_of_dim(i);
  if (t < 0) return 0;  // core edges exist unconditionally
  const ConstructionLevel& lv = levels_[static_cast<std::size_t>(t)];
  return mask_window(lv.win_lo, lv.win_hi);
}

bool SparseHypercubeSpec::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices() || !cube_adjacent(u, v)) return false;
  return has_edge_dim(u, differing_dim(u, v));
}

std::size_t SparseHypercubeSpec::degree(Vertex u) const noexcept {
  std::size_t d = static_cast<std::size_t>(core_dim());
  for (std::size_t t = 0; t < levels_.size(); ++t) {
    d += levels_[t].owned_dims[label_at(u, static_cast<int>(t))].size();
  }
  return d;
}

std::size_t SparseHypercubeSpec::max_degree() const noexcept {
  // Label classes are all nonempty (Condition A), so some vertex attains
  // the largest S_j at every level simultaneously only if labels can be
  // chosen independently per level — they can, because windows are
  // disjoint bit ranges.
  std::size_t d = static_cast<std::size_t>(core_dim());
  for (const auto& lv : levels_) d += lv.max_owned();
  return d;
}

std::size_t SparseHypercubeSpec::min_degree() const noexcept {
  std::size_t d = static_cast<std::size_t>(core_dim());
  for (const auto& lv : levels_) d += lv.min_owned();
  return d;
}

std::uint64_t SparseHypercubeSpec::num_edges() const {
  // Sum of degrees = 2^n * core + sum over levels/labels of
  // (#vertices with that label) * |S_label|; vertices with label j at
  // level t number class_size(j) * 2^(n - window_size).
  std::uint64_t twice_edges = cube_order(n_) * static_cast<std::uint64_t>(core_dim());
  for (const auto& lv : levels_) {
    const auto sizes = lv.labeling.class_sizes();
    const int wsize = lv.win_hi - lv.win_lo;
    const std::uint64_t copies = cube_order(n_ - wsize);
    for (Label j = 0; j < lv.labeling.num_labels(); ++j) {
      twice_edges += copies * sizes[j] * lv.owned_dims[j].size();
    }
  }
  assert(twice_edges % 2 == 0);
  return twice_edges / 2;
}

Graph SparseHypercubeSpec::materialize() const {
  assert(n_ <= 26 && "materialization guarded; use the implicit oracle instead");
  GraphBuilder b(static_cast<VertexId>(num_vertices()));
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (Dim i = 1; i <= n_; ++i) {
      const Vertex v = flip(u, i);
      if (u < v && has_edge_dim(u, i)) {
        b.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      }
    }
  }
  return std::move(b).build();
}

std::vector<Vertex> SparseHypercubeSpec::neighbors(Vertex u) const {
  std::vector<Vertex> nb;
  nb.reserve(degree(u));
  for (Dim i = 1; i <= n_; ++i) {
    if (has_edge_dim(u, i)) nb.push_back(flip(u, i));
  }
  return nb;
}

}  // namespace shc

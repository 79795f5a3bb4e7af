#include "core/opinion_plane.hpp"

#include <algorithm>

namespace divlib {

OpinionPlane::OpinionPlane(const Graph& graph,
                           std::span<const Opinion> opinions)
    : graph_(&graph), n_(graph.num_vertices()) {
  if (n_ == 0) {
    throw std::invalid_argument("OpinionPlane: empty graph");
  }
  if (opinions.size() != n_) {
    throw std::invalid_argument("OpinionPlane: opinion vector size != n");
  }
  const auto [lo_it, hi_it] =
      std::minmax_element(opinions.begin(), opinions.end());
  range_lo_ = *lo_it;
  range_hi_ = *hi_it;
  const std::size_t width =
      static_cast<std::size_t>(range_hi_ - range_lo_) + 1;
  // A range wider than a byte can express needs full-width cells.
  wide_ = width > 256;
  if (wide_) {
    values32_.assign(opinions.begin(), opinions.end());
  } else {
    values8_.resize(n_);
    for (VertexId v = 0; v < n_; ++v) {
      values8_[v] = static_cast<std::uint8_t>(opinions[v] - range_lo_);
    }
  }
  counts_.assign(width, 0);
  for (VertexId v = 0; v < n_; ++v) {
    const Opinion value = opinions[v];
    ++counts_[static_cast<std::size_t>(value - range_lo_)];
    sum_ += value;
    degree_weighted_sum_ +=
        static_cast<std::int64_t>(graph_->degree(v)) * value;
  }
  min_active_ = range_lo_;
  max_active_ = range_hi_;
  num_active_ = static_cast<int>(
      std::count_if(counts_.begin(), counts_.end(),
                    [](std::int64_t c) { return c > 0; }));
  derived_fresh_ = true;
}

std::vector<Opinion> OpinionPlane::opinions() const {
  std::vector<Opinion> out(n_);
  for (VertexId v = 0; v < n_; ++v) {
    out[v] = opinion(v);
  }
  return out;
}

void OpinionPlane::refresh_derived_() const {
  if (derived_fresh_) {
    return;
  }
  num_active_ = 0;
  sum_ = 0;
  for (std::size_t idx = 0; idx < counts_.size(); ++idx) {
    const std::int64_t c = counts_[idx];
    if (c > 0) {
      ++num_active_;
    }
    sum_ += c * (range_lo_ + static_cast<Opinion>(idx));
  }
  degree_weighted_sum_ = 0;
  for (VertexId v = 0; v < n_; ++v) {
    degree_weighted_sum_ += static_cast<std::int64_t>(graph_->degree(v)) *
                            static_cast<std::int64_t>(opinion(v));
  }
  derived_fresh_ = true;
}

double OpinionPlane::z_total() const {
  refresh_derived_();
  return static_cast<double>(n_) *
         (static_cast<double>(degree_weighted_sum_) /
          static_cast<double>(graph_->total_degree()));
}

}  // namespace divlib

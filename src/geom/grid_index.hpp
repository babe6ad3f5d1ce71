// Uniform-grid spatial index.
//
// The channel must find "all nodes within carrier-sense range of the
// transmitter" for every frame; it queries the grid at most once per sender
// and refresh epoch (phy/channel.hpp). A brute-force scan is O(N); with the
// grid the query is O(nodes in the 3×3 neighbourhood of cells), which is
// what makes 90-node × 150 s runs fast. Cell size is chosen as the query
// radius so a radius query touches at most 9 cells.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"

namespace manet {

class GridIndex {
 public:
  /// `area` is the bounding region; `cell` the cell edge length in metres.
  GridIndex(Area area, double cell);

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const { return pos_.size(); }

  /// Add a point; returns its id (dense, starting at 0).
  std::uint32_t insert(Vec2 p);

  /// Move point `id` to a new position.
  void update(std::uint32_t id, Vec2 p);

  /// Current position of a point.
  [[nodiscard]] Vec2 position(std::uint32_t id) const { return pos_[id]; }

  /// Collect ids of all points within `radius` of `center` (inclusive),
  /// excluding `exclude` (pass a value >= size() to exclude nothing).
  /// Results are appended to `out` in ascending id order.
  void query(Vec2 center, double radius, std::uint32_t exclude,
             std::vector<std::uint32_t>& out) const;

 private:
  [[nodiscard]] std::size_t cell_of(Vec2 p) const;

  Area area_;
  double cell_;
  std::size_t nx_, ny_;
  std::vector<std::vector<std::uint32_t>> cells_;  // ids per cell
  std::vector<Vec2> pos_;
  std::vector<std::size_t> cell_idx_;  // current cell of each id
};

}  // namespace manet

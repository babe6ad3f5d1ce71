// 2-D geometry primitives. Simulation areas in the paper family are planar
// rectangles (e.g. 1000 m × 1000 m, 1500 m × 300 m).
#pragma once

#include <cmath>

namespace manet {

/// A point or displacement in the plane, in metres.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Vec2 operator*(Vec2 a, double k) { return {a.x * k, a.y * k}; }
  friend constexpr Vec2 operator*(double k, Vec2 a) { return {a.x * k, a.y * k}; }
  friend constexpr bool operator==(Vec2, Vec2) = default;

  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
  [[nodiscard]] double norm() const { return std::sqrt(norm2()); }
};

/// Euclidean distance.
[[nodiscard]] inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// Squared distance — prefer for range comparisons (no sqrt).
[[nodiscard]] constexpr double distance2(Vec2 a, Vec2 b) { return (a - b).norm2(); }

/// An axis-aligned rectangle [0,width] × [0,height] anchored at the origin.
struct Area {
  double width = 0.0;
  double height = 0.0;

  friend constexpr bool operator==(const Area&, const Area&) = default;

  [[nodiscard]] constexpr bool contains(Vec2 p) const {
    return p.x >= 0.0 && p.x <= width && p.y >= 0.0 && p.y <= height;
  }
  /// Clamp a point into the area.
  [[nodiscard]] constexpr Vec2 clamp(Vec2 p) const {
    auto cl = [](double v, double hi) { return v < 0.0 ? 0.0 : (v > hi ? hi : v); };
    return {cl(p.x, width), cl(p.y, height)};
  }
};

}  // namespace manet

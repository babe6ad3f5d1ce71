// MLNT011 suppressed fixture: the same shapes as mutable_globals.cpp, every
// one carrying a tagged rationale. Must lint clean under a src/ path.
#include <cstdint>

namespace manet {

// manet-lint: allow-global-state - fixture: config knob written before the run starts
int g_counter = 0;
// manet-lint: allow-global-state - fixture: read-only after initialization
static double g_rate{1.0};

class Widget {
 public:
  // manet-lint: allow-global-state - fixture: debug-only instance census
  static int live_count_;
};

int bump() {
  // manet-lint: allow-global-state - fixture: memoized pure value
  static std::uint64_t calls = 0;
  return static_cast<int>(++calls);
}

}  // namespace manet

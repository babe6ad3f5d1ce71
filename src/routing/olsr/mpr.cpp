#include "routing/olsr/mpr.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace manet::olsr {

std::vector<NodeId> select_mprs(NodeId self, const std::vector<NodeId>& n1,
                                const std::vector<std::pair<NodeId, NodeId>>& links) {
  std::vector<NodeId> one_hop(n1);
  std::sort(one_hop.begin(), one_hop.end());
  one_hop.erase(std::unique(one_hop.begin(), one_hop.end()), one_hop.end());
  const std::size_t k = one_hop.size();
  const auto index_of = [&](NodeId n) {
    const auto it = std::lower_bound(one_hop.begin(), one_hop.end(), n);
    return it != one_hop.end() && *it == n ? static_cast<std::size_t>(it - one_hop.begin()) : k;
  };

  // Each (strict 2-hop node v, index i of a 1-hop neighbour covering it)
  // once, packed as v << 32 | i and sorted, so that v's providers are
  // adjacent.
  std::vector<std::uint64_t> covers;
  covers.reserve(links.size());
  for (const auto& [n, v] : links) {
    if (v == self || index_of(v) != k) continue;
    if (const std::size_t i = index_of(n); i != k) covers.push_back((std::uint64_t{v} << 32) | i);
  }
  std::sort(covers.begin(), covers.end());
  covers.erase(std::unique(covers.begin(), covers.end()), covers.end());
  const auto node_of = [](std::uint64_t c) { return static_cast<NodeId>(c >> 32); };
  const auto provider_of = [](std::uint64_t c) { return static_cast<std::size_t>(c & 0xffffffffU); };

  // Number the strict 2-hop nodes and list what each provider i covers in
  // provided[begin[i], begin[i + 1]). A sole provider is a mandatory MPR.
  std::vector<std::uint32_t> begin(k + 1, 0);
  for (const std::uint64_t c : covers) ++begin[provider_of(c) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<std::uint32_t> provided(covers.size());
  std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
  std::vector<char> mpr(k, 0);
  std::uint32_t n2_count = 0;
  for (std::size_t b = 0; b < covers.size(); ++n2_count) {
    std::size_t e = b;
    for (; e < covers.size() && node_of(covers[e]) == node_of(covers[b]); ++e) {
      provided[next[provider_of(covers[e])]++] = n2_count;
    }
    if (e - b == 1) mpr[provider_of(covers[b])] = 1;
    b = e;
  }

  std::vector<char> covered(n2_count, 0);
  std::size_t uncovered = n2_count;
  const auto take = [&](std::size_t i) {
    mpr[i] = 1;
    for (std::uint32_t p = begin[i]; p < begin[i + 1]; ++p) {
      if (covered[provided[p]] == 0) {
        covered[provided[p]] = 1;
        --uncovered;
      }
    }
  };
  for (std::size_t i = 0; i < k; ++i) {
    if (mpr[i] != 0) take(i);
  }

  // Greedy: repeatedly take the neighbour covering the most uncovered 2-hop
  // nodes, ties towards the smaller id (the smaller index). Every uncovered
  // node has a provider that is not yet an MPR, so each round takes one.
  while (uncovered > 0) {
    std::size_t best = 0;
    std::size_t best_cover = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (mpr[i] != 0) continue;
      std::size_t count = 0;
      for (std::uint32_t p = begin[i]; p < begin[i + 1]; ++p) {
        count += covered[provided[p]] == 0 ? 1 : 0;
      }
      if (count > best_cover) {
        best_cover = count;
        best = i;
      }
    }
    take(best);
  }

  std::vector<NodeId> out;
  for (std::size_t i = 0; i < k; ++i) {
    if (mpr[i] != 0) out.push_back(one_hop[i]);
  }
  return out;
}

}  // namespace manet::olsr

#include "routing/olsr/mpr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/rng.hpp"

namespace manet::olsr {
namespace {

TEST(Mpr, EmptyNeighborhood) {
  EXPECT_TRUE(select_mprs(0, {}, {}).empty());
}

TEST(Mpr, NoTwoHopNeighborsNeedsNoMprs) {
  EXPECT_TRUE(select_mprs(0, {1}, {{1, 0}}).empty());  // 1 only knows us
}

TEST(Mpr, SoleProviderIsMandatory) {
  const auto mprs = select_mprs(0, {1, 2}, {{1, 0}, {1, 5}, {2, 0}});
  EXPECT_EQ(mprs, (std::vector<NodeId>{1}));
}

TEST(Mpr, GreedyPicksBestCover) {
  const auto mprs =
      select_mprs(0, {1, 2, 3}, {{1, 10}, {1, 11}, {2, 10}, {2, 11}, {2, 12}, {3, 12}});
  EXPECT_EQ(mprs, (std::vector<NodeId>{2}));  // 2 covers everything
}

TEST(Mpr, OneHopNeighborsNotCountedAsTwoHop) {
  // 2 is already a 1-hop neighbour
  EXPECT_TRUE(select_mprs(0, {1, 2}, {{1, 2}, {2, 1}}).empty());
}

TEST(Mpr, TieBreaksTowardsSmallerId) {
  const auto mprs = select_mprs(0, {3, 5}, {{5, 20}, {3, 20}});
  EXPECT_EQ(mprs, (std::vector<NodeId>{3}));
}

// Properties over random neighbourhoods.
class MprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MprProperty, CoversAllTwoHopNeighbors) {
  RngStream rng(GetParam());
  const NodeId self = 0;
  std::vector<NodeId> n1;
  std::unordered_map<NodeId, std::vector<NodeId>> n2_of;
  std::vector<std::pair<NodeId, NodeId>> links;
  const int n1_count = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < n1_count; ++i) n1.push_back(static_cast<NodeId>(i + 1));
  for (const NodeId n : n1) {
    const int deg = static_cast<int>(rng.uniform_int(0, 8));
    for (int j = 0; j < deg; ++j) {
      n2_of[n].push_back(static_cast<NodeId>(rng.uniform_int(1, 40)));
      links.emplace_back(n, n2_of[n].back());
    }
  }
  const auto mprs = select_mprs(self, n1, links);

  // MPR set is a subset of the 1-hop set.
  const std::unordered_set<NodeId> n1_set(n1.begin(), n1.end());
  for (const NodeId m : mprs) EXPECT_TRUE(n1_set.contains(m));

  // Every strict 2-hop neighbour is covered by some MPR.
  std::unordered_set<NodeId> mpr_set(mprs.begin(), mprs.end());
  std::unordered_set<NodeId> covered;
  for (const NodeId m : mprs) {
    if (const auto it = n2_of.find(m); it != n2_of.end()) {
      covered.insert(it->second.begin(), it->second.end());
    }
  }
  for (const NodeId n : n1) {
    for (const NodeId v : n2_of[n]) {
      if (v == self || n1_set.contains(v)) continue;
      EXPECT_TRUE(covered.contains(v)) << "2-hop node " << v << " uncovered, seed "
                                       << GetParam();
    }
  }
}

TEST_P(MprProperty, Deterministic) {
  RngStream rng(GetParam() + 100);
  std::vector<NodeId> n1;
  std::vector<std::pair<NodeId, NodeId>> links;
  for (int i = 1; i <= 8; ++i) {
    n1.push_back(static_cast<NodeId>(i));
    for (int j = 0; j < 4; ++j) {
      links.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(rng.uniform_int(1, 30)));
    }
  }
  EXPECT_EQ(select_mprs(0, n1, links), select_mprs(0, n1, links));
}

TEST_P(MprProperty, IndependentOfInputOrder) {
  // Olsr hands its neighbours over sorted by id; the result must not depend
  // on that, nor on the order of each neighbour's list.
  RngStream rng(GetParam() + 200);
  std::vector<NodeId> n1;
  std::vector<std::pair<NodeId, NodeId>> links;
  for (int i = 1; i <= 10; ++i) {
    n1.push_back(static_cast<NodeId>(i));
    for (int j = 0; j < 5; ++j) {
      links.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(rng.uniform_int(1, 40)));
    }
  }
  const auto want = select_mprs(0, n1, links);
  std::reverse(n1.begin(), n1.end());
  std::reverse(links.begin(), links.end());
  EXPECT_EQ(select_mprs(0, n1, links), want);
  std::sort(links.begin(), links.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(select_mprs(0, n1, links), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MprProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace manet::olsr

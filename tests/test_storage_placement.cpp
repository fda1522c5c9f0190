// Placement map tests: determinism, replication, rack-disjointness,
// balance, stability under node-set changes, and exact equivalence
// with the full-sort ranking it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "storage/placement.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gm::storage {
namespace {

std::vector<NodeDescriptor> grid_nodes(int racks, int per_rack) {
  std::vector<NodeDescriptor> nodes;
  NodeId id = 0;
  for (int r = 0; r < racks; ++r)
    for (int n = 0; n < per_rack; ++n)
      nodes.push_back({id++, static_cast<RackId>(r)});
  return nodes;
}

PlacementConfig config_with(int replication, std::uint32_t groups) {
  PlacementConfig c;
  c.replication = replication;
  c.group_count = groups;
  return c;
}

TEST(Placement, EveryGroupHasExactlyRReplicas) {
  PlacementMap map(config_with(3, 256), grid_nodes(4, 8));
  for (GroupId g = 0; g < 256; ++g) {
    const auto& reps = map.replicas(g);
    EXPECT_EQ(reps.size(), 3u) << "group " << g;
    // Replicas are distinct nodes.
    std::set<NodeId> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), reps.size());
  }
}

TEST(Placement, ReplicasInDistinctRacks) {
  const auto nodes = grid_nodes(4, 8);
  PlacementMap map(config_with(3, 256), nodes);
  for (GroupId g = 0; g < 256; ++g) {
    std::set<RackId> racks;
    for (NodeId n : map.replicas(g)) racks.insert(nodes[n].rack);
    EXPECT_EQ(racks.size(), 3u) << "group " << g;
  }
}

TEST(Placement, RelaxesRackConstraintWhenImpossible) {
  // 2 racks but replication 3: still places 3 distinct nodes.
  PlacementMap map(config_with(3, 64), grid_nodes(2, 4));
  for (GroupId g = 0; g < 64; ++g) {
    const auto& reps = map.replicas(g);
    EXPECT_EQ(reps.size(), 3u);
    std::set<NodeId> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(Placement, DeterministicPerSeed) {
  PlacementConfig c = config_with(2, 128);
  PlacementMap a(c, grid_nodes(4, 4)), b(c, grid_nodes(4, 4));
  for (GroupId g = 0; g < 128; ++g)
    EXPECT_EQ(a.replicas(g), b.replicas(g));

  c.seed = 99;
  PlacementMap other(c, grid_nodes(4, 4));
  int moved = 0;
  for (GroupId g = 0; g < 128; ++g)
    if (a.replicas(g) != other.replicas(g)) ++moved;
  EXPECT_GT(moved, 64);  // different seed reshuffles most groups
}

TEST(Placement, LoadIsBalanced) {
  const auto nodes = grid_nodes(4, 8);
  PlacementMap map(config_with(3, 4096), nodes);
  std::vector<int> load(nodes.size(), 0);
  for (GroupId g = 0; g < 4096; ++g)
    for (NodeId n : map.replicas(g)) ++load[n];
  const double expected = 4096.0 * 3 / nodes.size();  // 384
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_GT(*lo, expected * 0.7);
  EXPECT_LT(*hi, expected * 1.3);
}

TEST(Placement, GroupsOnInvertsReplicas) {
  const auto nodes = grid_nodes(3, 5);
  PlacementMap map(config_with(2, 200), nodes);
  for (const auto& nd : nodes) {
    for (GroupId g : map.groups_on(nd.id)) {
      const auto& reps = map.replicas(g);
      EXPECT_NE(std::find(reps.begin(), reps.end(), nd.id), reps.end());
    }
  }
  // Total group-slots match.
  std::size_t total = 0;
  for (const auto& nd : nodes) total += map.groups_on(nd.id).size();
  EXPECT_EQ(total, 200u * 2u);
}

TEST(Placement, ObjectToGroupStableAndUniform) {
  PlacementMap map(config_with(2, 64), grid_nodes(2, 4));
  std::vector<int> hits(64, 0);
  for (ObjectId o = 0; o < 64000; ++o) {
    const GroupId g = map.group_of(o);
    EXPECT_EQ(g, map.group_of(o));
    ASSERT_LT(g, 64u);
    ++hits[g];
  }
  const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_GT(*lo, 700);
  EXPECT_LT(*hi, 1300);
}

TEST(Placement, MinimalMovementOnNodeRemoval) {
  // Rendezvous property: dropping one node only moves the groups that
  // had a replica there.
  auto nodes = grid_nodes(4, 8);
  PlacementConfig c = config_with(2, 512);
  PlacementMap full(c, nodes);

  auto fewer = nodes;
  const NodeId removed = 17;
  fewer.erase(std::remove_if(fewer.begin(), fewer.end(),
                             [&](const NodeDescriptor& d) {
                               return d.id == removed;
                             }),
              fewer.end());
  PlacementMap reduced(c, fewer);

  for (GroupId g = 0; g < 512; ++g) {
    const auto& before = full.replicas(g);
    const auto& after = reduced.replicas(g);
    const bool touched =
        std::find(before.begin(), before.end(), removed) != before.end();
    if (!touched) {
      EXPECT_EQ(before, after) << "untouched group " << g << " moved";
    } else {
      // The surviving replica keeps its slot.
      for (NodeId n : before) {
        if (n != removed) {
          EXPECT_NE(std::find(after.begin(), after.end(), n),
                    after.end());
        }
      }
    }
  }
}

TEST(Placement, ValidationErrors) {
  EXPECT_THROW(PlacementMap(config_with(0, 10), grid_nodes(2, 2)),
               InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(2, 0), grid_nodes(2, 2)),
               InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(2, 10), {}), InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(2, 10),
                            {{0, 0}, {0, 1}}),  // duplicate id
               InvalidArgument);
}

TEST(Placement, ReservedNodeIdIsRejected) {
  // kInvalidNode as a descriptor id would wrap the id table's size.
  EXPECT_THROW(PlacementMap(config_with(2, 10),
                            {{0, 0}, {kInvalidNode, 1}}),
               InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(1, 10), {{kInvalidNode, 0}}),
               InvalidArgument);
}

TEST(Placement, UnknownNodeQueriesThrow) {
  PlacementMap map(config_with(2, 16), grid_nodes(2, 2));
  EXPECT_THROW(map.groups_on(99), InvalidArgument);
  EXPECT_THROW(map.replicas(16), InvalidArgument);
}

// --- Equivalence with the full-sort ranking ------------------------------

/// TEST ORACLE, not production code: the placement algorithm
/// PlacementMap used before it switched to per-rack champions. For
/// each group it fully sorts every node by (score descending, id
/// ascending), keeps the first node of each unseen rack, and relaxes
/// the rack constraint if that falls short. PlacementMap must return
/// the same replicas in the same order.
struct OraclePlacement {
  std::vector<std::vector<NodeId>> replicas;           ///< per group
  std::map<NodeId, std::vector<GroupId>> groups_on;  ///< per node
};

OraclePlacement full_sort_placement(const PlacementConfig& config,
                                    const std::vector<NodeDescriptor>& nodes) {
  std::set<RackId> racks;
  for (const auto& n : nodes) racks.insert(n.rack);
  const bool rack_disjoint =
      racks.size() >= static_cast<std::size_t>(config.replication);

  OraclePlacement out;
  out.replicas.resize(config.group_count);
  for (const auto& n : nodes) out.groups_on[n.id];

  struct Scored {
    std::uint64_t score;
    NodeId node;
    RackId rack;
  };
  std::vector<Scored> scored;
  scored.reserve(nodes.size());
  for (GroupId g = 0; g < config.group_count; ++g) {
    scored.clear();
    for (const auto& n : nodes)
      scored.push_back(
          {mix_hash(mix_hash(config.seed, g), n.id), n.id, n.rack});
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.node < b.node;
              });

    auto& replicas = out.replicas[g];
    std::vector<RackId> used_racks;
    for (const auto& s : scored) {
      if (replicas.size() == static_cast<std::size_t>(config.replication))
        break;
      if (rack_disjoint &&
          std::find(used_racks.begin(), used_racks.end(), s.rack) !=
              used_racks.end())
        continue;
      replicas.push_back(s.node);
      used_racks.push_back(s.rack);
    }
    for (const auto& s : scored) {
      if (replicas.size() == static_cast<std::size_t>(config.replication))
        break;
      if (std::find(replicas.begin(), replicas.end(), s.node) ==
          replicas.end())
        replicas.push_back(s.node);
    }
    for (NodeId n : replicas) out.groups_on[n].push_back(g);
  }
  return out;
}

void expect_matches_oracle(const PlacementConfig& config,
                           const std::vector<NodeDescriptor>& nodes,
                           const std::string& label) {
  const OraclePlacement oracle = full_sort_placement(config, nodes);
  const PlacementMap map(config, nodes);
  for (GroupId g = 0; g < config.group_count; ++g)
    ASSERT_EQ(map.replicas(g), oracle.replicas[g])
        << label << ", group " << g;
  for (const auto& [node, groups] : oracle.groups_on)
    ASSERT_EQ(map.groups_on(node), groups) << label << ", node " << node;
}

/// `count` distinct values drawn from [0, bound).
std::vector<std::uint32_t> distinct_ids(Rng& rng, std::size_t count,
                                        std::uint64_t bound) {
  std::set<std::uint32_t> ids;
  while (ids.size() < count)
    ids.insert(static_cast<std::uint32_t>(rng.uniform_u64(bound)));
  std::vector<std::uint32_t> out(ids.begin(), ids.end());
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

TEST(PlacementEquivalence, MatchesFullSortOnRandomClusters) {
  Rng rng(20160523);
  for (int trial = 0; trial < 240; ++trial) {
    PlacementConfig config;
    config.seed = rng.next();
    config.replication = static_cast<int>(rng.uniform_int(1, 5));
    config.group_count = static_cast<std::uint32_t>(rng.uniform_int(1, 96));
    const int r = config.replication;

    // Rack count: fewer than, equal to, or more than the replication,
    // in turn. Every fifth trial has fewer nodes than replicas.
    int racks = 0;
    switch (trial % 3) {
      case 0: racks = r > 1 ? static_cast<int>(rng.uniform_int(1, r - 1))
                            : 1; break;
      case 1: racks = r; break;
      default: racks = static_cast<int>(rng.uniform_int(r + 1, r + 8));
    }
    const bool starved = trial % 5 == 4 && r > 1;
    if (starved) racks = std::min(racks, r - 1);

    // Uneven rack sizes, single-node racks included.
    std::vector<int> sizes(static_cast<std::size_t>(racks));
    for (auto& size : sizes)
      size = rng.bernoulli(0.3) ? 1 : static_cast<int>(rng.uniform_int(1, 9));
    int total = 0;
    for (int size : sizes) total += size;
    if (starved) {
      // Trim to at most r - 1 nodes, keeping every rack non-empty.
      std::fill(sizes.begin(), sizes.end(), 1);
      total = racks;
    }

    // Sparse, non-contiguous ids; descriptors in shuffled order.
    const auto rack_ids = distinct_ids(rng, sizes.size(), 1u << 30);
    const auto node_ids = distinct_ids(
        rng, static_cast<std::size_t>(total),
        static_cast<std::uint64_t>(4 * total + 64));
    std::vector<NodeDescriptor> nodes;
    std::size_t next = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k)
      for (int n = 0; n < sizes[k]; ++n)
        nodes.push_back({node_ids[next++], rack_ids[k]});
    std::shuffle(nodes.begin(), nodes.end(), rng);

    expect_matches_oracle(
        config, nodes,
        "trial " + std::to_string(trial) + " (R=" + std::to_string(r) +
            ", racks=" + std::to_string(racks) +
            ", nodes=" + std::to_string(nodes.size()) + ")");
    if (HasFatalFailure()) return;
  }
}

TEST(PlacementEquivalence, MatchesFullSortOnTheMassiveFleet) {
  // configs/massive_fleet_week.conf: 128 racks x 80 nodes, 8,192
  // groups, three replicas.
  PlacementConfig config = config_with(3, 8192);
  expect_matches_oracle(config, grid_nodes(128, 80), "massive fleet");
}

}  // namespace
}  // namespace gm::storage

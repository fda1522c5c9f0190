#include "storage/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace gm::storage {

void PlacementConfig::validate() const {
  GM_CHECK(group_count > 0, "placement needs at least one group");
  GM_CHECK(replication >= 1, "replication must be >= 1");
  GM_CHECK(mean_group_bytes > 0.0, "group data size must be positive");
  GM_CHECK(group_bytes_sigma >= 0.0, "negative data-size sigma");
}

PlacementMap::PlacementMap(const PlacementConfig& config,
                           std::vector<NodeDescriptor> nodes)
    : config_(config), nodes_(std::move(nodes)) {
  GM_OBS_SCOPE("storage.placement_build");
  config_.validate();
  GM_CHECK(!nodes_.empty(), "placement over an empty cluster");

  group_replicas_.resize(config_.group_count);
  node_groups_.resize(nodes_.size());

  // Per-group data volumes (lognormal around the configured mean).
  group_bytes_.resize(config_.group_count);
  Rng data_rng(config_.seed ^ 0xda7aULL);
  const double log_mu =
      std::log(config_.mean_group_bytes) -
      0.5 * config_.group_bytes_sigma * config_.group_bytes_sigma;
  for (auto& bytes : group_bytes_)
    bytes = sample_lognormal(data_rng, log_mu, config_.group_bytes_sigma);

  NodeId max_id = 0;
  for (const auto& n : nodes_) {
    // kInvalidNode is reserved, and max_id + 1 below must not wrap.
    GM_CHECK(n.id != kInvalidNode,
             "node id " << n.id << " is reserved (kInvalidNode)");
    max_id = std::max(max_id, n.id);
  }
  id_to_index_.assign(static_cast<std::size_t>(max_id) + 1, SIZE_MAX);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    GM_CHECK(id_to_index_[nodes_[i].id] == SIZE_MAX,
             "duplicate node id in placement: " << nodes_[i].id);
    id_to_index_[nodes_[i].id] = i;
  }

  // Rendezvous ranking: score descending, node id ascending. Node ids
  // are unique, so this is a strict total order and every selection
  // below is deterministic.
  struct Scored {
    std::uint64_t score;
    NodeId node;
  };
  const auto ranks_before = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  // Replicas come from distinct buckets: racks when there are at least
  // `replication` of them, single nodes otherwise. Walking the full
  // ranking and keeping the first node of each unseen bucket picks
  // exactly the bucket champions (each bucket's best-ranked node), met
  // in ranking order. So the replicas are the top `replication`
  // champions, found with one hash per node and a partial sort.
  std::unordered_map<RackId, std::uint32_t> rack_index;
  std::vector<std::uint32_t> bucket_of(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    bucket_of[i] =
        rack_index
            .try_emplace(nodes_[i].rack,
                         static_cast<std::uint32_t>(rack_index.size()))
            .first->second;
  const auto replication = static_cast<std::size_t>(config_.replication);
  const bool rack_disjoint = rack_index.size() >= replication;
  if (!rack_disjoint) std::iota(bucket_of.begin(), bucket_of.end(), 0u);
  const std::size_t buckets =
      rack_disjoint ? rack_index.size() : nodes_.size();
  const std::size_t keep = std::min(replication, buckets);

  // Node ids laid out bucket by bucket, ascending within each; bucket b
  // is bucket_nodes[bucket_start[b], bucket_start[b + 1]).
  std::vector<std::size_t> bucket_start(buckets + 1, 0);
  for (std::uint32_t b : bucket_of) ++bucket_start[b + 1];
  std::partial_sum(bucket_start.begin(), bucket_start.end(),
                   bucket_start.begin());
  std::vector<NodeId> bucket_nodes(nodes_.size());
  std::vector<std::size_t> next_free(bucket_start.begin(),
                                     bucket_start.end() - 1);
  for (const std::size_t i : id_to_index_)  // ascending node id
    if (i != SIZE_MAX) bucket_nodes[next_free[bucket_of[i]]++] = nodes_[i].id;

  std::vector<Scored> champions(buckets);
  for (GroupId g = 0; g < config_.group_count; ++g) {
    const std::uint64_t group_key = mix_hash(config_.seed, g);
    for (std::size_t b = 0; b < buckets; ++b) {
      // Ids ascend within the bucket, so keeping the first of equal
      // scores breaks ties by lower id, as the ranking does.
      std::size_t k = bucket_start[b];
      Scored champion{mix_hash(group_key, bucket_nodes[k]), bucket_nodes[k]};
      for (++k; k < bucket_start[b + 1]; ++k) {
        const std::uint64_t score = mix_hash(group_key, bucket_nodes[k]);
        if (score > champion.score) champion = {score, bucket_nodes[k]};
      }
      champions[b] = champion;
    }
    const auto top = champions.begin() + static_cast<std::ptrdiff_t>(keep);
    std::partial_sort(champions.begin(), top, champions.end(),
                      ranks_before);

    auto& replicas = group_replicas_[g];
    replicas.reserve(keep);
    for (auto it = champions.begin(); it != top; ++it) {
      replicas.push_back(it->node);
      node_groups_[id_to_index_[it->node]].push_back(g);
    }
  }
}

std::uint32_t shard_of_group(GroupId group, std::uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  // Fixed seed (not the placement seed): shard membership is a
  // scheduling concern and must not move when placement is reseeded.
  return static_cast<std::uint32_t>(mix_hash(0x5aa5c0de0005ULL, group) %
                                    shard_count);
}

GroupId PlacementMap::group_of(ObjectId object) const {
  return static_cast<GroupId>(mix_hash(config_.seed ^ 0xabcdef12345ULL,
                                       object) %
                              config_.group_count);
}

const std::vector<NodeId>& PlacementMap::replicas(GroupId group) const {
  GM_CHECK(group < group_replicas_.size(),
           "group out of range: " << group);
  return group_replicas_[group];
}

std::size_t PlacementMap::index_of(NodeId node) const {
  GM_CHECK(node < id_to_index_.size() && id_to_index_[node] != SIZE_MAX,
           "unknown node in placement: " << node);
  return id_to_index_[node];
}

const std::vector<GroupId>& PlacementMap::groups_on(NodeId node) const {
  return node_groups_[index_of(node)];
}

double PlacementMap::group_bytes(GroupId group) const {
  GM_CHECK(group < group_bytes_.size(), "group out of range: " << group);
  return group_bytes_[group];
}

double PlacementMap::node_bytes(NodeId node) const {
  double total = 0.0;
  for (GroupId g : node_groups_[index_of(node)]) total += group_bytes_[g];
  return total;
}

double PlacementMap::total_physical_bytes() const {
  double total = 0.0;
  for (GroupId g = 0; g < config_.group_count; ++g)
    total += group_bytes_[g] *
             static_cast<double>(group_replicas_[g].size());
  return total;
}

}  // namespace gm::storage

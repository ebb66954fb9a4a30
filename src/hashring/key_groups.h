#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

/// \file key_groups.h
/// Consistent hashing with virtual nodes (paper §3.2, requirement R2).
///
/// The key space is hashed into a fixed number of *key groups* (the paper
/// uses 2^15). Contiguous key-group ranges are grouped into *virtual
/// nodes*, the finest granularity of a reconfiguration: a handover moves
/// one or more virtual nodes from an origin instance to a target instance
/// by editing the routing table; keys never move between key groups.

namespace rhino::hashring {

/// Half-open range [begin, end) of key groups.
struct KeyGroupRange {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
  bool Contains(uint32_t kg) const { return kg >= begin && kg < end; }
  bool operator==(const KeyGroupRange&) const = default;
};

/// Maps a record key to its key group. Stable for the lifetime of a query.
inline uint32_t KeyGroupFor(uint64_t key, uint32_t num_key_groups) {
  return static_cast<uint32_t>(HashKey(key) % num_key_groups);
}

/// Static partitioning of key groups into virtual nodes.
///
/// With parallelism `p` and `v` virtual nodes per instance there are
/// `p * v` virtual nodes, each covering a contiguous range of key groups
/// (ranges differ by at most one key group when the division is not exact).
class VirtualNodeMap {
 public:
  VirtualNodeMap(uint32_t num_key_groups, uint32_t parallelism,
                 uint32_t vnodes_per_instance)
      : num_key_groups_(num_key_groups),
        num_vnodes_(parallelism * vnodes_per_instance),
        vnodes_per_instance_(vnodes_per_instance) {
    RHINO_CHECK_GT(num_key_groups, 0u);
    RHINO_CHECK_GT(num_vnodes_, 0u);
    RHINO_CHECK_GE(num_key_groups, num_vnodes_);
    // Spread key groups as evenly as possible over virtual nodes.
    ranges_.reserve(num_vnodes_);
    uint32_t base = num_key_groups / num_vnodes_;
    uint32_t extra = num_key_groups % num_vnodes_;
    uint32_t cursor = 0;
    for (uint32_t v = 0; v < num_vnodes_; ++v) {
      uint32_t len = base + (v < extra ? 1 : 0);
      ranges_.push_back(KeyGroupRange{cursor, cursor + len});
      cursor += len;
    }
    RHINO_CHECK_EQ(cursor, num_key_groups);
  }

  uint32_t num_key_groups() const { return num_key_groups_; }
  uint32_t num_vnodes() const { return num_vnodes_; }
  uint32_t vnodes_per_instance() const { return vnodes_per_instance_; }

  const KeyGroupRange& range(uint32_t vnode) const {
    return ranges_[vnode];
  }

  /// Virtual node owning a key group (binary search over ranges).
  uint32_t VnodeForKeyGroup(uint32_t kg) const {
    RHINO_CHECK_LT(kg, num_key_groups_);
    uint32_t lo = 0, hi = num_vnodes_ - 1;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (ranges_[mid].end <= kg) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  uint32_t VnodeForKey(uint64_t key) const {
    return VnodeForKeyGroup(KeyGroupFor(key, num_key_groups_));
  }

 private:
  uint32_t num_key_groups_;
  uint32_t num_vnodes_;
  uint32_t vnodes_per_instance_;
  std::vector<KeyGroupRange> ranges_;
};

/// Mutable virtual-node → operator-instance routing table.
///
/// A handover (or failure recovery) edits only this table; upstream
/// instances consult it to route records, and its version number lets
/// components detect configuration epochs (paper §4.1.1).
class RoutingTable {
 public:
  explicit RoutingTable(const VirtualNodeMap* map)
      : map_(map), owner_(map->num_vnodes()) {
    // Default assignment: virtual node v belongs to instance
    // v / vnodes_per_instance (contiguous blocks, as in Flink key groups).
    for (uint32_t v = 0; v < owner_.size(); ++v) {
      owner_[v] = v / map->vnodes_per_instance();
    }
  }

  const VirtualNodeMap& map() const { return *map_; }

  uint32_t InstanceForVnode(uint32_t vnode) const { return owner_[vnode]; }

  uint32_t InstanceForKey(uint64_t key) const {
    return InstanceForVnode(map_->VnodeForKey(key));
  }

  uint32_t InstanceForKeyGroup(uint32_t kg) const {
    return InstanceForVnode(map_->VnodeForKeyGroup(kg));
  }

  /// Reassigns a virtual node to a new owner and bumps the version.
  void Assign(uint32_t vnode, uint32_t instance) {
    owner_[vnode] = instance;
    version_ += 1;
  }

  /// All virtual nodes currently owned by `instance`.
  std::vector<uint32_t> VnodesOfInstance(uint32_t instance) const {
    std::vector<uint32_t> out;
    for (uint32_t v = 0; v < owner_.size(); ++v) {
      if (owner_[v] == instance) out.push_back(v);
    }
    return out;
  }

  uint64_t version() const { return version_; }

 private:
  const VirtualNodeMap* map_;
  std::vector<uint32_t> owner_;
  uint64_t version_ = 0;
};

}  // namespace rhino::hashring

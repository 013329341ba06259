#include "src/crystal/hash_ring.h"

#include <algorithm>

#include "src/common/hash.h"

namespace rock::crystal {

HashRing::HashRing(int virtual_nodes) : virtual_nodes_(virtual_nodes) {}

uint64_t HashRing::VirtualPosition(const std::string& node,
                                   int replica) const {
  // CRC-32 of "node#replica", widened by mixing so 2^32 positions do not
  // collide for large rings.
  std::string key = node;
  key += '#';
  key += std::to_string(replica);
  return MixHash64(Crc32(key));
}

Status HashRing::AddNode(const std::string& node) {
  if (std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end()) {
    return Status::AlreadyExists("node already on ring: " + node);
  }
  nodes_.push_back(node);
  for (int r = 0; r < virtual_nodes_; ++r) {
    ring_[VirtualPosition(node, r)] = node;
  }
  return Status::Ok();
}

Status HashRing::RemoveNode(const std::string& node) {
  auto it = std::find(nodes_.begin(), nodes_.end(), node);
  if (it == nodes_.end()) {
    return Status::NotFound("node not on ring: " + node);
  }
  nodes_.erase(it);
  for (int r = 0; r < virtual_nodes_; ++r) {
    ring_.erase(VirtualPosition(node, r));
  }
  return Status::Ok();
}

Result<std::string> HashRing::Locate(std::string_view key) const {
  return LocateHash(MixHash64(Crc32(key)));
}

Result<std::string> HashRing::LocateHash(uint64_t key_hash) const {
  if (ring_.empty()) {
    return Status::FailedPrecondition("hash ring has no nodes");
  }
  auto it = ring_.lower_bound(key_hash);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::string> HashRing::Nodes() const { return nodes_; }

}  // namespace rock::crystal

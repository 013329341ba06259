#include "src/crystal/object_store.h"

#include "src/common/strings.h"

#include <algorithm>

namespace rock::crystal {

void MetadataDirectory::Register(const std::string& object, int seq,
                                 const std::string& node) {
  entries_[Key(object, seq)] = node;
}

void MetadataDirectory::Unregister(const std::string& object) {
  std::string prefix = object + '\0';
  auto it = entries_.lower_bound(prefix);
  while (it != entries_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = entries_.erase(it);
  }
}

Result<std::string> MetadataDirectory::Lookup(const std::string& object,
                                              int seq) const {
  auto it = entries_.find(Key(object, seq));
  if (it == entries_.end()) {
    return Status::NotFound(
        StrFormat("no placement for %s block %d", object.c_str(), seq));
  }
  return it->second;
}

std::vector<std::pair<int, std::string>> MetadataDirectory::Placements(
    const std::string& object) const {
  std::vector<std::pair<int, std::string>> out;
  std::string prefix = object + '\0';
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    int seq = std::stoi(it->first.substr(prefix.size()));
    out.emplace_back(seq, it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string MetadataDirectory::Key(const std::string& object, int seq) {
  return object + '\0' + std::to_string(seq);
}

ObjectStore::ObjectStore(int virtual_nodes, size_t block_size)
    : ring_(virtual_nodes), block_size_(block_size) {}

std::string ObjectStore::BlockKey(const std::string& object, int seq) {
  return object + '\0' + std::to_string(seq);
}

std::string ObjectStore::OwnerOf(const std::string& object, int seq) const {
  auto owner = ring_.Locate(BlockKey(object, seq));
  return owner.ok() ? *owner : std::string();
}

Status ObjectStore::AddNode(const std::string& node) {
  ROCK_RETURN_IF_ERROR(ring_.AddNode(node));
  node_blocks_.emplace(node, std::map<std::string, Block>());
  return Status::Ok();
}

Result<RemapStats> ObjectStore::AddNodeWithRebalance(const std::string& node) {
  ROCK_RETURN_IF_ERROR(ring_.AddNode(node));
  node_blocks_.emplace(node, std::map<std::string, Block>());
  return Rebalance();
}

Result<RemapStats> ObjectStore::RemoveNode(const std::string& node) {
  ROCK_RETURN_IF_ERROR(ring_.RemoveNode(node));
  if (ring_.num_nodes() == 0) {
    return Status::FailedPrecondition("cannot remove the last node");
  }
  auto stats = Rebalance();
  node_blocks_.erase(node);
  return stats;
}

RemapStats ObjectStore::Rebalance() {
  RemapStats stats;
  std::vector<Block> moved;
  // Drain nodes in sorted order: node_blocks_ is an unordered_map, and the
  // order blocks land in `moved` decides directory registration order, so a
  // hash-order walk would leak the hash seed into RemapStats consumers.
  std::vector<std::string> nodes;
  nodes.reserve(node_blocks_.size());
  for (const auto& [node, blocks] : node_blocks_) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());
  for (const std::string& node : nodes) {
    auto& blocks = node_blocks_[node];
    for (auto it = blocks.begin(); it != blocks.end();) {
      stats.total_blocks++;
      std::string owner = OwnerOf(it->second.object, it->second.seq);
      if (owner != node) {
        moved.push_back(std::move(it->second));
        it = blocks.erase(it);
        stats.remapped_blocks++;
      } else {
        ++it;
      }
    }
  }
  for (Block& block : moved) {
    std::string owner = OwnerOf(block.object, block.seq);
    directory_.Register(block.object, block.seq, owner);
    std::string key = BlockKey(block.object, block.seq);
    node_blocks_[owner][key] = std::move(block);
  }
  return stats;
}

Status ObjectStore::Put(const std::string& object, std::string bytes) {
  if (ring_.num_nodes() == 0) {
    return Status::FailedPrecondition("object store has no nodes");
  }
  // Replace semantics: drop any previous version (NotFound is fine).
  Status ignored = Delete(object);
  (void)ignored;
  int seq = 0;
  size_t offset = 0;
  do {
    Block block;
    block.object = object;
    block.seq = seq;
    block.bytes = bytes.substr(offset, block_size_);
    std::string owner = OwnerOf(object, seq);
    directory_.Register(object, seq, owner);
    node_blocks_[owner][BlockKey(object, seq)] = std::move(block);
    offset += block_size_;
    ++seq;
  } while (offset < bytes.size());
  object_num_blocks_[object] = seq;
  return Status::Ok();
}

Result<std::string> ObjectStore::Get(const std::string& object) const {
  auto it = object_num_blocks_.find(object);
  if (it == object_num_blocks_.end()) {
    return Status::NotFound("no such object: " + object);
  }
  std::string out;
  for (int seq = 0; seq < it->second; ++seq) {
    auto node = directory_.Lookup(object, seq);
    if (!node.ok()) return node.status();
    auto node_it = node_blocks_.find(*node);
    if (node_it == node_blocks_.end()) {
      return Status::Internal("directory points at missing node " + *node);
    }
    auto block_it = node_it->second.find(BlockKey(object, seq));
    if (block_it == node_it->second.end()) {
      return Status::Internal("block missing on node " + *node);
    }
    out += block_it->second.bytes;
  }
  return out;
}

Status ObjectStore::Delete(const std::string& object) {
  auto it = object_num_blocks_.find(object);
  if (it == object_num_blocks_.end()) {
    return Status::NotFound("no such object: " + object);
  }
  for (int seq = 0; seq < it->second; ++seq) {
    auto node = directory_.Lookup(object, seq);
    if (node.ok()) {
      auto node_it = node_blocks_.find(*node);
      if (node_it != node_blocks_.end()) {
        node_it->second.erase(BlockKey(object, seq));
      }
    }
  }
  directory_.Unregister(object);
  object_num_blocks_.erase(it);
  return Status::Ok();
}

size_t ObjectStore::BlocksOnNode(const std::string& node) const {
  auto it = node_blocks_.find(node);
  return it == node_blocks_.end() ? 0 : it->second.size();
}

}  // namespace rock::crystal

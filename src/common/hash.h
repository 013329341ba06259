#pragma once

#include <cstdint>
#include <cstddef>
#include <string_view>

namespace rock {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Crystal uses CRC-32 to hash
/// node addresses onto the consistent-hash ring (paper §5.1).
uint32_t Crc32(std::string_view data);

/// 64-bit FNV-1a hash of a byte string; the workhorse hash for blocking
/// keys and hashed feature indices.
uint64_t Hash64(std::string_view data);

/// Mixes a 64-bit integer (SplitMix64 finalizer). Useful for hashing ids.
uint64_t MixHash64(uint64_t x);

/// Combines two hashes (boost-style) into one.
uint64_t HashCombine(uint64_t seed, uint64_t value);

}  // namespace rock


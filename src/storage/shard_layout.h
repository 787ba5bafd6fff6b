// Power-of-two entity-id-hashed shard layout, shared by both storage
// engines (PropertyGraph and Table) so the id arithmetic cannot drift:
// global ids stay dense in creation order, the owning shard is the low
// bits (id & mask), and the position inside the shard is the high bits
// (id >> shift). Round-robin assignment keeps shards balanced for any
// dense id sequence.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace raptor::storage {

struct ShardLayout {
  uint64_t mask = 0;
  unsigned shift = 0;

  /// `shard_count` is rounded up to a power of two; 0 and 1 both yield
  /// the single-shard identity layout.
  explicit ShardLayout(size_t shard_count = 1) {
    size_t n = std::bit_ceil(shard_count == 0 ? size_t{1} : shard_count);
    mask = n - 1;
    shift = static_cast<unsigned>(std::countr_zero(n));
  }

  size_t count() const { return static_cast<size_t>(mask) + 1; }
  size_t ShardOf(uint64_t id) const { return id & mask; }
  size_t LocalOf(uint64_t id) const { return id >> shift; }
  uint64_t GlobalOf(size_t shard, size_t local) const {
    return (static_cast<uint64_t>(local) << shift) | shard;
  }
  /// How many of the dense ids [0, id_count) `shard` owns: its local
  /// positions are [0, SizeOf(shard, id_count)).
  size_t SizeOf(size_t shard, uint64_t id_count) const {
    return id_count > shard ? ((id_count - 1 - shard) >> shift) + 1 : 0;
  }
};

}  // namespace raptor::storage

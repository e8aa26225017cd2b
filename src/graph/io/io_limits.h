#ifndef UMGAD_GRAPH_IO_IO_LIMITS_H_
#define UMGAD_GRAPH_IO_IO_LIMITS_H_

#include <cstdint>

namespace umgad {
namespace io_limits {

/// Shared header sanity bounds for every graph loader (text, binary,
/// edge list): a corrupt or hostile size field must produce a Status, not
/// a multi-gigabyte allocation. The caps are far above any graph this
/// library can train on while keeping worst-case pre-validation
/// allocations harmless. One definition so the loaders cannot drift.
constexpr int64_t kMaxNodes = 100'000'000;
constexpr int64_t kMaxFeatures = 65'536;
constexpr int64_t kMaxRelations = 4'096;
constexpr int64_t kMaxNameLen = 4'096;
constexpr int64_t kMaxAttributeEntries = int64_t{1} << 31;  // 8 GiB of f32

/// Serving-side shard fan-out cap (umgad_cli serve --shards /
/// RouterOptions::num_shards): each shard is one OS thread plus a full
/// scorer replica, so the count must stay small whatever the input asks.
constexpr int64_t kMaxShards = 256;

/// Overflow-guarded element count: a * b as int64, or -1 when either
/// factor is negative or the product would overflow or exceed `cap`.
/// The one size-check helper shared by every size-field consumer —
/// the graph loaders (nodes x features attribute buffers), the CSR
/// validator behind SparseMatrix::FromCsr — so "multiply two
/// attacker-controlled sizes" is never re-derived ad hoc per site.
/// Header-only on purpose: the tensor layer includes it without
/// linking umgad_graph.
constexpr int64_t CheckedElemCount(int64_t a, int64_t b, int64_t cap) {
  return (a < 0 || b < 0 || cap < 0) ? -1
         : (a != 0 && b > cap / a)   ? -1
                                     : a * b;
}

}  // namespace io_limits
}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_IO_LIMITS_H_

#ifndef UMGAD_GRAPH_IO_BINARY_FORMAT_H_
#define UMGAD_GRAPH_IO_BINARY_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Versioned little-endian binary graph container ("umgad-binary v3" — the
/// text format is v1 of the on-disk story). Full spec in docs/FORMATS.md.
///
/// Layout: fixed magic/version/flags header, length-prefixed names, then
/// raw sections — per relation the CSR arrays exactly as stored in memory
/// (row_ptr int64, col_idx int32, values float32), the attribute matrix as
/// one float32 block, labels as int32 — closed by a trailer magic that
/// detects truncation. Load is one bulk read and in-place views over it
/// (no per-value parsing), which is what makes it ~two orders of magnitude
/// faster than the text path (bench_io_formats).
///
/// Round trips are bit-exact: the CSR arrays, attribute floats, and labels
/// are preserved verbatim in both directions.
///
/// LoadGraphBinary reads the file once into an owned 8-byte-aligned buffer
/// and parses it with ParseGraphImage, the same parser MappedGraph::Load
/// runs over a file mapping: the graph's CSR arrays and attribute matrix
/// are views into that buffer (the buffer lives as long as any of them).
Status SaveGraphBinary(const MultiplexGraph& graph, const std::string& path);
Result<MultiplexGraph> LoadGraphBinary(const std::string& path);

/// The one `.umgb` parser. Validates the `size` bytes at `data` (an image
/// starting on an 8-byte boundary) and builds a graph whose CSR arrays and
/// attribute matrix are borrowed views into them, each holding `keepalive`;
/// labels are copied. Every section is bounded by `size` before use, header
/// counts are capped (io_limits.h), and the CSR invariants are checked, so
/// any corrupt image yields a Status. `path` only labels messages.
/// `prefetch`, when set, is called with each byte range just before the
/// parse scans it (the mapped loader turns it into readahead advice).
using PrefetchFn = void (*)(const void* data, int64_t bytes);
Result<MultiplexGraph> ParseGraphImage(const std::string& path,
                                       const unsigned char* data,
                                       int64_t size,
                                       std::shared_ptr<const void> keepalive,
                                       PrefetchFn prefetch = nullptr);

/// True if the file starts with the binary magic (cheap format sniff used
/// by LoadDataset; does not validate anything past the first 4 bytes).
bool LooksLikeBinaryGraph(const std::string& path);

/// Canonical file extensions used by the tools layer ("umgb" / "txt").
extern const char kBinaryGraphExtension[];
extern const char kTextGraphExtension[];

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_BINARY_FORMAT_H_

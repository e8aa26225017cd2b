#ifndef UMGAD_SERVE_UPDATE_STREAM_H_
#define UMGAD_SERVE_UPDATE_STREAM_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <string>

#include "common/result.h"
#include "serve/online_scorer.h"

namespace umgad {
namespace serve {

/// The `umgad_cli serve --stream` text format: one update per line,
/// "+ src dst rel" inserts an edge and "- src dst rel" removes one. The
/// four fields are blank-separated and each id is a non-negative decimal
/// int. Blank lines and lines whose first non-blank character is '#' carry
/// no update. CRLF line endings are accepted.
///
/// Parses one line (without its '\n'). Returns the update, std::nullopt
/// for a blank or comment line, and InvalidArgument for anything else —
/// including any non-blank input after the relation field. Whether the
/// ids exist in the graph is the applier's check, not the parser's.
Result<std::optional<EdgeUpdate>> ParseUpdateLine(std::string line);

/// Reads `in` to the end and hands every update to `apply`, in stream
/// order. Returns the number of updates delivered. The first line that
/// fails to parse, or whose update `apply` rejects, stops the replay; the
/// returned Status names it as "<source>:<line>: ..." (an apply failure
/// keeps its code and quotes it in full).
Result<int64_t> ReplayUpdateStream(
    std::istream& in, const std::string& source,
    const std::function<Status(const EdgeUpdate&)>& apply);

}  // namespace serve
}  // namespace umgad

#endif  // UMGAD_SERVE_UPDATE_STREAM_H_

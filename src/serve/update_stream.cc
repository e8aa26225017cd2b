#include "serve/update_stream.h"

#include <charconv>
#include <sstream>
#include <system_error>

#include "common/string_util.h"

namespace umgad {
namespace serve {

Result<std::optional<EdgeUpdate>> ParseUpdateLine(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::istringstream in(line);
  std::string op;
  std::string ids[3];
  std::string extra;
  if (!(in >> op) || op[0] == '#') return std::optional<EdgeUpdate>();
  // Exactly four blank-separated fields, each id spelled entirely by an
  // int: "0+0", "0x" or a fifth field are errors, not relation 0.
  auto malformed = [&line] {
    return Status::InvalidArgument("expected '+|- src dst rel', got: " +
                                   line);
  };
  if ((op != "+" && op != "-") || !(in >> ids[0] >> ids[1] >> ids[2]) ||
      in >> extra) {
    return malformed();
  }
  int values[3];
  for (int i = 0; i < 3; ++i) {
    const char* end = ids[i].data() + ids[i].size();
    const std::from_chars_result parsed =
        std::from_chars(ids[i].data(), end, values[i]);
    if (parsed.ec != std::errc() || parsed.ptr != end) return malformed();
    if (values[i] < 0) {
      return Status::InvalidArgument("ids must be non-negative, got: " +
                                     line);
    }
  }
  EdgeUpdate update;
  update.src = values[0];
  update.dst = values[1];
  update.relation = values[2];
  update.add = op == "+";
  return std::optional<EdgeUpdate>(update);
}

Result<int64_t> ReplayUpdateStream(
    std::istream& in, const std::string& source,
    const std::function<Status(const EdgeUpdate&)>& apply) {
  int64_t delivered = 0;
  int64_t line_no = 0;
  auto where = [&] {
    return StrFormat("%s:%lld: ", source.c_str(),
                     static_cast<long long>(line_no));
  };
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    Result<std::optional<EdgeUpdate>> parsed = ParseUpdateLine(line);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    where() + parsed.status().message());
    }
    if (!parsed->has_value()) continue;
    const Status status = apply(**parsed);
    if (!status.ok()) return Status(status.code(), where() + status.ToString());
    ++delivered;
  }
  return delivered;
}

}  // namespace serve
}  // namespace umgad

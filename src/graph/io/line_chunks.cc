#include "graph/io/line_chunks.h"

#include <cstring>

#include "common/byte_io.h"

namespace umgad {

Status ReadFileToString(const std::string& path, std::string* out) {
  return ReadWholeFile(path, [out](size_t n) {
    out->resize(n);
    return &(*out)[0];
  });
}

std::vector<ByteRange> SplitNewlineAligned(const char* data, size_t size,
                                           int target_chunks) {
  std::vector<ByteRange> ranges;
  if (size == 0) return ranges;
  if (target_chunks < 1) target_chunks = 1;
  size_t begin = 0;
  for (int c = 0; c < target_chunks && begin < size; ++c) {
    // Ideal even split, then extend forward to the end of the current line.
    size_t end = (c + 1 == target_chunks)
                     ? size
                     : size / static_cast<size_t>(target_chunks) *
                           static_cast<size_t>(c + 1);
    if (end <= begin) end = begin;
    if (end < size) {
      const char* nl = static_cast<const char*>(
          std::memchr(data + end, '\n', size - end));
      end = nl == nullptr ? size : static_cast<size_t>(nl - data) + 1;
    }
    if (end > begin) ranges.push_back(ByteRange{begin, end});
    begin = end;
  }
  if (begin < size) {
    // target_chunks boundaries all collapsed forward; one tail range keeps
    // the concatenation exact.
    ranges.push_back(ByteRange{begin, size});
  }
  return ranges;
}

}  // namespace umgad

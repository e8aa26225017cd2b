#ifndef UMGAD_COMMON_BYTE_IO_H_
#define UMGAD_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/span.h"
#include "common/string_util.h"

namespace umgad {

/// The one byte layer behind both binary containers (`.umgb` graphs and
/// `.umgm` models, docs/FORMATS.md): a bounds-checked cursor for parsing
/// untrusted bytes, a counting file writer, and a whole-file reader. Both
/// formats are little-endian on disk and written/read as raw host PODs, so
/// every entry point first checks the host byte order.

inline bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

/// FailedPrecondition on big-endian hosts; `files` names the container in
/// the message ("umgad model artifacts").
inline Status RequireLittleEndianHost(const char* files) {
  if (HostIsLittleEndian()) return Status::OK();
  return Status::FailedPrecondition(StrFormat(
      "%s are little-endian; big-endian hosts are not supported", files));
}

/// Bounds-checked cursor over untrusted bytes. Every read is checked
/// against the remaining byte count first, and element counts are
/// divide-bounded (count > remaining / sizeof(T)) so a hostile count cannot
/// wrap a byte size past the check. Scalar reads go through memcpy (fields
/// sit at arbitrary offsets); ArrayView hands out in-place pointers and so
/// requires the format to have aligned the section.
class ByteReader {
 public:
  ByteReader(const unsigned char* base, int64_t size)
      : base_(base), size_(size) {}

  int64_t Remaining() const { return size_ - pos_; }

  template <typename T>
  Status Pod(T* value, const char* what) {
    if (Remaining() < static_cast<int64_t>(sizeof(T))) {
      return Status::InvalidArgument(StrFormat("truncated %s", what));
    }
    std::memcpy(value, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// A u32 length prefix, capped at `max_len`, then that many bytes.
  Status String(std::string* s, int64_t max_len, const char* what) {
    uint32_t len = 0;
    UMGAD_RETURN_IF_ERROR(Pod(&len, what));
    if (static_cast<int64_t>(len) > max_len) {
      return Status::InvalidArgument(StrFormat("oversized %s", what));
    }
    ConstSpan<char> chars;
    UMGAD_RETURN_IF_ERROR(ArrayView(&chars, len, what));
    s->assign(chars.begin(), chars.end());
    return Status::OK();
  }

  /// Skips the writer's zero padding up to the next multiple of
  /// `alignment` (measured from the start of the bytes).
  Status Align(int64_t alignment, const char* what) {
    return Skip((alignment - pos_ % alignment) % alignment, what);
  }

  Status Skip(int64_t n, const char* what) {
    if (n < 0 || n > Remaining()) {
      return Status::InvalidArgument(StrFormat(
          "truncated %s: need %lld bytes, %lld left", what,
          static_cast<long long>(n), static_cast<long long>(Remaining())));
    }
    pos_ += n;
    return Status::OK();
  }

  /// A view of `count` elements of T at the cursor — no copy, no
  /// allocation; valid as long as the bytes are.
  template <typename T>
  Status ArrayView(ConstSpan<T>* out, int64_t count, const char* what) {
    UMGAD_RETURN_IF_ERROR(CheckCount(count, sizeof(T), what));
    // The format's structural invariant (an Align before the section, and
    // element sizes that keep successors aligned), not the data, puts the
    // pointer on a T boundary; a violation is a bug, not a corrupt file.
    UMGAD_CHECK(reinterpret_cast<uintptr_t>(base_ + pos_) % alignof(T) == 0);
    *out = ConstSpan<T>(reinterpret_cast<const T*>(base_ + pos_),
                        static_cast<size_t>(count));
    pos_ += count * static_cast<int64_t>(sizeof(T));
    return Status::OK();
  }

  /// A copy of `count` elements of T at the cursor, for sections at
  /// unaligned offsets. The count is bounded before anything is allocated.
  template <typename T>
  Status Array(std::vector<T>* out, int64_t count, const char* what) {
    UMGAD_RETURN_IF_ERROR(CheckCount(count, sizeof(T), what));
    out->resize(static_cast<size_t>(count));
    if (count > 0) {
      std::memcpy(out->data(), base_ + pos_, out->size() * sizeof(T));
    }
    pos_ += count * static_cast<int64_t>(sizeof(T));
    return Status::OK();
  }

 private:
  Status CheckCount(int64_t count, size_t elem_bytes, const char* what) const {
    if (count < 0 || count > Remaining() / static_cast<int64_t>(elem_bytes)) {
      return Status::InvalidArgument(StrFormat(
          "truncated or corrupt %s: %lld elements declared", what,
          static_cast<long long>(count)));
    }
    return Status::OK();
  }

  const unsigned char* base_;
  int64_t size_;
  int64_t pos_ = 0;
};

/// Raw little-endian file writer. It counts the bytes written so Align()
/// can zero-pad to a section boundary; ok() turns false once any write (or
/// the open) has failed.
class ByteWriter {
 public:
  explicit ByteWriter(const std::string& path)
      : out_(path, std::ios::binary) {}

  bool ok() const { return static_cast<bool>(out_); }

  template <typename T>
  void Pod(T value) {
    Bytes(&value, sizeof(T));
  }

  void Bytes(const void* data, size_t n) {
    if (n > 0) {
      out_.write(reinterpret_cast<const char*>(data),
                 static_cast<std::streamsize>(n));
    }
    written_ += static_cast<int64_t>(n);
  }

  /// u32 length prefix, then the bytes.
  void String(const std::string& s) {
    Pod<uint32_t>(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  /// Zero-pads to the next multiple of `alignment` (at most 8).
  void Align(int64_t alignment) {
    static const char zeros[8] = {};
    UMGAD_CHECK(alignment > 0 && alignment <= 8);
    Bytes(zeros, static_cast<size_t>((alignment - written_ % alignment) %
                                     alignment));
  }

 private:
  std::ofstream out_;
  int64_t written_ = 0;
};

/// Reads the whole regular file at `path`, in one pass, into the buffer
/// `alloc(size)` returns. IoError when `path` is missing, unreadable or
/// not a regular file: a directory opens as a stream and can seek to a
/// size near INT64_MAX, so the size comes from file_size, never a seek.
template <typename Alloc>
Status ReadWholeFile(const std::string& path, const Alloc& alloc) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  std::ifstream in(path, std::ios::binary);
  if (error || !in) return Status::IoError("cannot open " + path);
  char* dst = alloc(static_cast<size_t>(size));
  if (size > 0 && !in.read(dst, static_cast<std::streamsize>(size))) {
    return Status::IoError("short read from " + path);
  }
  return Status::OK();
}

/// A whole file in one owned buffer whose first byte is 8-byte aligned, so
/// a parser can hand out in-place views exactly as it does over a
/// page-aligned file mapping. Views into it hold the shared_ptr as their
/// keepalive.
class FileBytes {
 public:
  static Result<std::shared_ptr<const FileBytes>> Read(
      const std::string& path) {
    std::shared_ptr<FileBytes> bytes(new FileBytes());
    UMGAD_RETURN_IF_ERROR(ReadWholeFile(path, [&bytes](size_t n) {
      // No value-initialisation: the read overwrites every byte parsed.
      bytes->words_.reset(new uint64_t[(n + 7) / 8]);
      bytes->size_ = static_cast<int64_t>(n);
      return reinterpret_cast<char*>(bytes->words_.get());
    }));
    return std::shared_ptr<const FileBytes>(std::move(bytes));
  }

  const unsigned char* data() const {
    return reinterpret_cast<const unsigned char*>(words_.get());
  }
  int64_t size() const { return size_; }

 private:
  FileBytes() = default;

  std::unique_ptr<uint64_t[]> words_;
  int64_t size_ = 0;
};

}  // namespace umgad

#endif  // UMGAD_COMMON_BYTE_IO_H_

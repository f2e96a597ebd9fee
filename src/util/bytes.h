#ifndef BCDB_UTIL_BYTES_H_
#define BCDB_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace bcdb {

/// Little-endian byte packing shared by the durable-storage codec and the
/// block-file parser. Encoders append to a std::string buffer; the decoder
/// is a bounds-checked cursor over a read-only byte view (typically an
/// mmap'd file region), so a torn or corrupted tail turns into a clean
/// decode failure instead of an out-of-bounds read.

inline void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU16(std::string* out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendI64(std::string* out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

inline void AppendI32(std::string* out, std::int32_t v) {
  AppendU32(out, static_cast<std::uint32_t>(v));
}

inline void AppendF64(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// u32 length prefix + raw bytes.
inline void AppendBytes(std::string* out, std::string_view bytes) {
  AppendU32(out, static_cast<std::uint32_t>(bytes.size()));
  out->append(bytes.data(), bytes.size());
}

/// Bounds-checked little-endian reader. Every Read* returns false (leaving
/// the output untouched and the cursor unspecified-but-safe) once the view
/// is exhausted; callers check once per record, not per field.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return size_ - offset_; }
  bool exhausted() const { return offset_ >= size_; }

  bool ReadU8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<std::uint8_t>(data_[offset_++]);
    return true;
  }

  bool ReadU16(std::uint16_t* v) {
    if (remaining() < 2) return false;
    *v = 0;
    for (int i = 0; i < 2; ++i) {
      *v |= static_cast<std::uint16_t>(
          static_cast<std::uint8_t>(data_[offset_ + i]) << (8 * i));
    }
    offset_ += 2;
    return true;
  }

  bool ReadU32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(data_[offset_ + i]))
            << (8 * i);
    }
    offset_ += 4;
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(data_[offset_ + i]))
            << (8 * i);
    }
    offset_ += 8;
    return true;
  }

  bool ReadI64(std::int64_t* v) {
    std::uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<std::int64_t>(u);
    return true;
  }

  bool ReadI32(std::int32_t* v) {
    std::uint32_t u;
    if (!ReadU32(&u)) return false;
    *v = static_cast<std::int32_t>(u);
    return true;
  }

  bool ReadF64(double* v) {
    std::uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  /// Reads an element count (u16, u32 or u64, as `Count` says) and rejects
  /// it when `count` elements of at least `min_elem_bytes` (>= 1) each could
  /// not fit in the remaining bytes, so a decoder may reserve() or resize()
  /// from the count without trusting the input.
  template <typename Count>
  bool ReadCount(std::size_t min_elem_bytes, Count* count) {
    static_assert(std::is_same_v<Count, std::uint16_t> ||
                  std::is_same_v<Count, std::uint32_t> ||
                  std::is_same_v<Count, std::uint64_t>);
    Count n;
    bool ok;
    if constexpr (sizeof(Count) == 2) {
      ok = ReadU16(&n);
    } else if constexpr (sizeof(Count) == 4) {
      ok = ReadU32(&n);
    } else {
      ok = ReadU64(&n);
    }
    if (!ok || n > remaining() / min_elem_bytes) return false;
    *count = n;
    return true;
  }

  /// Reads a u32-length-prefixed byte string as a view into the underlying
  /// buffer (no copy; valid while the buffer is).
  bool ReadBytes(std::string_view* v) {
    std::uint32_t len;
    if (!ReadU32(&len)) return false;
    if (remaining() < len) return false;
    *v = std::string_view(data_ + offset_, len);
    offset_ += len;
    return true;
  }

  bool ReadString(std::string* v) {
    std::string_view view;
    if (!ReadBytes(&view)) return false;
    v->assign(view.data(), view.size());
    return true;
  }

  /// Reads exactly `n` raw bytes (no length prefix) as a view into the
  /// underlying buffer.
  bool ReadRaw(std::size_t n, std::string_view* v) {
    if (remaining() < n) return false;
    *v = std::string_view(data_ + offset_, n);
    offset_ += n;
    return true;
  }

  /// Skips `n` bytes.
  bool Skip(std::size_t n) {
    if (remaining() < n) return false;
    offset_ += n;
    return true;
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace bcdb

#endif  // BCDB_UTIL_BYTES_H_

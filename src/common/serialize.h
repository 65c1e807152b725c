// Binary serialization for messages crossing the simulated network.
//
// Sending a struct between nodes must cost bytes proportional to its real
// wire size — network-volume accounting is one of the quantities the
// evaluation measures — so everything that crosses a node boundary is
// explicitly serialized through BinaryWriter/BinaryReader rather than being
// passed by pointer.
//
// Format: little-endian fixed-width integers and doubles, u32 length
// prefixes for strings/containers. Readers are bounds-checked and report
// malformed input via Status rather than UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/time.h"

namespace stcn {

class BinaryWriter {
 public:
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

  /// Pre-sizes the buffer for `n` additional bytes. Encoders that know
  /// their payload size up front (detection batches are the big one) call
  /// this once instead of letting the vector double its way up.
  void reserve(std::size_t n) { buffer_.reserve(buffer_.size() + n); }

  /// Grows the buffer by `n` bytes and returns where they start, for
  /// encoders that fill a block of known size in place. The pointer is
  /// valid until the next write.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    std::size_t at = buffer_.size();
    buffer_.resize(at + n);
    return buffer_.data() + at;
  }

  void write_u8(std::uint8_t v) { buffer_.push_back(v); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
  void write_double(double v) { write_raw(&v, sizeof v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  void write_string(const std::string& s) {
    write_u32(static_cast<std::uint32_t>(s.size()));
    write_raw(s.data(), s.size());
  }

  template <typename Tag>
  void write_id(StrongId<Tag> id) {
    write_u64(id.value());
  }

  void write_time(TimePoint t) { write_i64(t.micros_since_origin()); }
  void write_duration(Duration d) { write_i64(d.count_micros()); }

  /// Appends raw bytes verbatim (e.g. a nested, already-encoded payload).
  void write_bytes(const std::vector<std::uint8_t>& bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  /// Writes a vector of elements via a per-element callback.
  template <typename T, typename Fn>
  void write_vector(const std::vector<T>& v, Fn&& write_element) {
    write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write_element(*this, e);
  }

 private:
  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  std::vector<std::uint8_t> buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] bool failed() const { return failed_; }
  /// Flags a field that read fine but holds a value no encoder writes.
  void fail() { failed_ = true; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_ && !failed_; }

  std::uint8_t read_u8() {
    std::uint8_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }
  std::uint32_t read_u32() {
    std::uint32_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }
  std::uint64_t read_u64() {
    std::uint64_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }
  std::int64_t read_i64() {
    std::int64_t v = 0;
    read_raw(&v, sizeof v);
    return v;
  }
  double read_double() {
    double v = 0;
    read_raw(&v, sizeof v);
    return v;
  }
  bool read_bool() { return read_u8() != 0; }

  std::string read_string() {
    std::uint32_t n = read_u32();
    if (n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename Tag>
  StrongId<Tag> read_id() {
    return StrongId<Tag>(read_u64());
  }

  TimePoint read_time() { return TimePoint(read_i64()); }
  Duration read_duration() { return Duration(read_i64()); }

  /// Reads `n` raw bytes (e.g. a nested, already-encoded payload).
  std::vector<std::uint8_t> read_bytes(std::size_t n) {
    std::vector<std::uint8_t> out;
    if (n > remaining()) {
      failed_ = true;
      return out;
    }
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  /// Views the next `n` bytes in place (valid while the underlying buffer
  /// lives); an empty view and failed() when fewer remain.
  std::span<const std::uint8_t> read_span(std::size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return {};
    }
    std::span<const std::uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining_bytes() const { return remaining(); }

  template <typename T, typename Fn>
  std::vector<T> read_vector(Fn&& read_element) {
    std::uint32_t n = read_u32();
    std::vector<T> v;
    // Guard against corrupt length prefixes claiming absurd sizes: each
    // element consumes at least one byte on the wire.
    if (n > remaining()) {
      failed_ = true;
      return v;
    }
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && !failed_; ++i) {
      v.push_back(read_element(*this));
    }
    return v;
  }

  [[nodiscard]] Status status() const {
    return failed_ ? Status::internal("malformed message: truncated read")
                   : Status::ok();
  }

 private:
  void read_raw(void* out, std::size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace stcn

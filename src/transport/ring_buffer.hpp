// Bounded byte ring addressed by an absolute, monotonically growing stream
// offset. This is the send-buffer representation of every stream engine:
// bytes are appended at the tail, read back at arbitrary offsets for
// (re)transmission, and released from the head as they are acknowledged.
//
// capacity() is the configured limit (the paper's send-buffer size, up to
// 100 MiB for UDT); storage is allocated only as bytes are held. It starts
// empty, doubles from kInitialStorage when a write needs more room, and
// never exceeds the capacity, so an idle or receive-only connection holds no
// send storage at all.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace kmsg::transport {

class RingBuffer {
 public:
  /// First storage allocation (or the capacity, when smaller).
  static constexpr std::size_t kInitialStorage = std::size_t{64} << 10;

  explicit RingBuffer(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  /// Bytes of storage currently allocated (<= capacity()).
  std::size_t storage_bytes() const { return storage_size_; }
  /// Absolute offset of the first retained (unacknowledged) byte.
  std::uint64_t base() const { return base_; }
  /// Absolute offset one past the last appended byte.
  std::uint64_t end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - base_); }
  std::size_t free_space() const { return capacity() - size(); }
  bool empty() const { return base_ == end_; }

  /// Appends as many bytes from `data` as fit; returns the count appended.
  std::size_t write(std::span<const std::uint8_t> data);

  /// Copies `len` bytes starting at absolute offset `at` into a fresh vector.
  /// Requires [at, at+len) within [base, end).
  std::vector<std::uint8_t> read_at(std::uint64_t at, std::size_t len) const;

  /// Releases all bytes below absolute offset `to` (clamped to [base, end]).
  void release_until(std::uint64_t to);

 private:
  /// Reallocates storage to hold at least `need` bytes, re-laying the
  /// retained [base, end) bytes out modulo the new size.
  void grow(std::size_t need);
  /// Copies `len` bytes into storage at absolute offset `at`, wrapping.
  void store(std::uint64_t at, const std::uint8_t* src, std::size_t len);

  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> storage_;
  std::size_t storage_size_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace kmsg::transport

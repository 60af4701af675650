#include "transport/ring_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace kmsg::transport {

RingBuffer::RingBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("RingBuffer capacity must be > 0");
}

void RingBuffer::store(std::uint64_t at, const std::uint8_t* src,
                       std::size_t len) {
  while (len != 0) {
    const std::size_t pos = static_cast<std::size_t>(at % storage_size_);
    const std::size_t chunk = std::min(len, storage_size_ - pos);
    std::memcpy(storage_.get() + pos, src, chunk);
    src += chunk;
    at += chunk;
    len -= chunk;
  }
}

void RingBuffer::grow(std::size_t need) {
  std::size_t size = std::max(storage_size_, kInitialStorage);
  while (size < need && size < capacity_) size *= 2;
  size = std::min(size, capacity_);
  // Uninitialised: pages are touched only as bytes are written into them.
  auto old = std::exchange(storage_,
                           std::make_unique_for_overwrite<std::uint8_t[]>(size));
  const std::size_t old_size = std::exchange(storage_size_, size);
  for (std::uint64_t at = base_; at < end_;) {
    const std::size_t pos = static_cast<std::size_t>(at % old_size);
    const std::size_t chunk =
        std::min(static_cast<std::size_t>(end_ - at), old_size - pos);
    store(at, old.get() + pos, chunk);
    at += chunk;
  }
}

std::size_t RingBuffer::write(std::span<const std::uint8_t> data) {
  const std::size_t n = std::min(data.size(), free_space());
  if (n == 0) return 0;
  if (size() + n > storage_size_) grow(size() + n);
  store(end_, data.data(), n);
  end_ += n;
  return n;
}

std::vector<std::uint8_t> RingBuffer::read_at(std::uint64_t at, std::size_t len) const {
  if (at < base_ || at + len > end_) {
    throw std::out_of_range("RingBuffer::read_at outside retained range");
  }
  std::vector<std::uint8_t> out(len);
  std::size_t read = 0;
  while (read < len) {
    const std::size_t pos = static_cast<std::size_t>((at + read) % storage_size_);
    const std::size_t chunk = std::min(len - read, storage_size_ - pos);
    std::memcpy(out.data() + read, storage_.get() + pos, chunk);
    read += chunk;
  }
  return out;
}

void RingBuffer::release_until(std::uint64_t to) {
  base_ = std::clamp(to, base_, end_);
}

}  // namespace kmsg::transport

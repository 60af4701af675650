#include "wire/framing.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "wire/bytebuf.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define KMSG_CRC_CLMUL 1
#else
#define KMSG_CRC_CLMUL 0
#endif

namespace kmsg::wire {

namespace {

// Slicing-by-8 CRC-32 (IEEE polynomial): table[0] is the classic byte-at-a-
// time table; tables 1..7 extend it so the hot loop folds 8 input bytes per
// step with 8 independent lookups. This is the portable kernel, and the tail
// of the carry-less-multiply kernel below.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t s = 1; s < 8; ++s) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[s][i] = c;
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// Advances the (pre-inverted) CRC register `c` over [p, p + n).
std::uint32_t crc32_slice8(std::uint32_t c, const std::uint8_t* p,
                           std::size_t n) {
  // The 8-byte folding below assumes little-endian loads; every supported
  // target is little-endian, and the byte-wise tail loop is the generic path.
  static_assert(std::endian::native == std::endian::little);
  while (n >= 8) {
    // memcpy compiles to one unaligned load; byte order is handled by XORing
    // the little-endian low word into the running CRC.
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= c;
    c = kCrcTables[7][chunk & 0xFFu] ^
        kCrcTables[6][(chunk >> 8) & 0xFFu] ^
        kCrcTables[5][(chunk >> 16) & 0xFFu] ^
        kCrcTables[4][(chunk >> 24) & 0xFFu] ^
        kCrcTables[3][(chunk >> 32) & 0xFFu] ^
        kCrcTables[2][(chunk >> 40) & 0xFFu] ^
        kCrcTables[1][(chunk >> 48) & 0xFFu] ^
        kCrcTables[0][(chunk >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  for (; n != 0; --n, ++p) {
    c = kCrcTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if KMSG_CRC_CLMUL
// PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the bit-reflected
// domain of the IEEE polynomial. Four 128-bit accumulators fold 64 bytes per
// step; they are then folded into one, single 16-byte blocks follow, and
// Barrett reduction brings the 128-bit remainder down to 32 bits. Each fold
// constant is x^k mod P(x) for its fold distance k, bit-reflected and
// shifted left by one as the paper derives them.
constexpr std::uint64_t kFold512Lo = 0x0154442bd4;  // x^(4*128+32) mod P
constexpr std::uint64_t kFold512Hi = 0x01c6e41596;  // x^(4*128-32) mod P
constexpr std::uint64_t kFold128Lo = 0x01751997d0;  // x^(128+32) mod P
constexpr std::uint64_t kFold128Hi = 0x00ccaa009e;  // x^(128-32) mod P
constexpr std::uint64_t kFold64 = 0x0163cd6124;     // x^64 mod P
constexpr std::uint64_t kPolyReflected = 0x01db710641;
constexpr std::uint64_t kBarrettMu = 0x01f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i acc,
                                                            __m128i k,
                                                            __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advances the (pre-inverted) CRC register over [p, p + n); n must be a
/// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const auto load = [](const std::uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                             static_cast<long long>(kFold512Lo));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k, load(p));
    x1 = fold(x1, k, load(p + 16));
    x2 = fold(x2, k, load(p + 32));
    x3 = fold(x3, k, load(p + 48));
  }

  k = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                     static_cast<long long>(kFold128Lo));
  x0 = fold(x0, k, x1);
  x0 = fold(x0, k, x2);
  x0 = fold(x0, k, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k, load(p));

  // 128 -> 96 bits: fold the low half onto the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k, 0x10));
  // 96 -> 64 bits.
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00));
  // Barrett reduction 64 -> 32 bits.
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                                      static_cast<long long>(kPolyReflected));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}
#endif

bool detect_clmul() {
#if KMSG_CRC_CLMUL
  __builtin_cpu_init();  // may run before the runtime's own CPU probe
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::span<const std::uint8_t> data) {
  return crc32_slice8(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

bool crc32_clmul_supported() {
  static const bool supported = detect_clmul();
  return supported;
}

std::uint32_t crc32_clmul(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if KMSG_CRC_CLMUL
  if (n >= 64) {  // crc32_fold needs four full blocks
    const std::size_t folded = n & ~std::size_t{15};
    c = crc32_fold(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_slice8(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return detail::crc32_clmul_supported() ? detail::crc32_clmul(data)
                                         : detail::crc32_portable(data);
}

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + kFrameHeaderBytes);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

BufSlice encode_wire_single(BufSlice encoded) {
  std::uint8_t* p = encoded.try_prepend(1);
  if (!p) {
    encoded = BufSlice::copy_of(encoded.span(), 1 + kFrameHeaderBytes);
    p = encoded.try_prepend(1);
  }
  *p = kWireSingleTag;
  return encoded;
}

BufSlice encode_wire_coalesced(std::span<const BufSlice> subs,
                               std::size_t headroom) {
  std::size_t total = 1;
  for (const BufSlice& s : subs) total += 5 + s.size();  // worst-case varint
  ByteBuf out{total, headroom};
  out.write_u8(kWireCoalescedTag);
  for (const BufSlice& s : subs) {
    out.write_varint(s.size());
    out.write_bytes(s.span());
  }
  return std::move(out).take_slice();
}

BufSlice encode_frame_slice(BufSlice payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.span());
  std::uint8_t* hdr = payload.try_prepend(kFrameHeaderBytes);
  if (!hdr) {
    // Shared or headroom-less slice: one counted copy into a fresh slab
    // that does have the room.
    payload = BufSlice::copy_of(payload.span(), kFrameHeaderBytes);
    hdr = payload.try_prepend(kFrameHeaderBytes);
  }
  store_u32(hdr, len);
  store_u32(hdr + 4, crc);
  return payload;
}

template <typename EmitFn>
bool FrameDecoder::parse(const std::uint8_t* data, std::size_t& start,
                         std::size_t end, EmitFn&& emit) {
  while (end - start >= kFrameHeaderBytes) {
    const auto len = static_cast<std::size_t>(get_u32(data + start));
    if (len > max_frame_) {
      poisoned_ = true;
      return false;
    }
    const std::uint32_t expected_crc = get_u32(data + start + 4);
    if (end - start - kFrameHeaderBytes < len) break;
    // CRC over the bytes in place — no copy of the payload is made.
    if (crc32({data + start + kFrameHeaderBytes, len}) != expected_crc) {
      // Bit errors in flight: the length we just trusted may itself be
      // damaged, so resynchronisation is not possible — poison the stream.
      ++corrupt_;
      poisoned_ = true;
      return false;
    }
    const std::size_t payload_at = start + kFrameHeaderBytes;
    start = payload_at + len;
    ++frames_;
    if (on_frame_) emit(payload_at, len);
    if (poisoned_) return false;  // callback may have reset us
  }
  return true;
}

void FrameDecoder::emit_payload(BufSlice payload) {
  if (!wire_v2_) {
    on_frame_(std::move(payload));
    return;
  }
  if (payload.empty()) {
    ++corrupt_;
    poisoned_ = true;
    return;
  }
  const std::uint8_t tag = payload[0];
  if (tag == kWireSingleTag) {
    ++submsgs_;
    on_frame_(payload.slice(1, payload.size() - 1));
    return;
  }
  if (tag != kWireCoalescedTag) {
    // The sending side only ever writes the two known tags; anything else
    // means the stream (or our notion of its format) is corrupt.
    ++corrupt_;
    poisoned_ = true;
    return;
  }
  ++coalesced_;
  std::size_t pos = 1;
  while (pos < payload.size()) {
    std::uint64_t len = 0;
    int shift = 0;
    bool terminated = false;
    while (pos < payload.size() && shift < 64) {
      const std::uint8_t b = payload[pos++];
      len |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        terminated = true;
        break;
      }
      shift += 7;
    }
    if (!terminated || len > payload.size() - pos) {
      ++corrupt_;
      poisoned_ = true;
      return;
    }
    ++submsgs_;
    on_frame_(payload.slice(pos, static_cast<std::size_t>(len)));
    if (poisoned_) return;  // callback may have torn us down
    pos += static_cast<std::size_t>(len);
  }
}

void FrameDecoder::release_slab() noexcept {
  if (slab_) {
    if (slab_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      slab_->pool->recycle(slab_);
    }
    slab_ = nullptr;
  }
  start_ = end_ = 0;
}

void FrameDecoder::append(std::span<const std::uint8_t> chunk) {
  if (chunk.empty()) return;
  const std::size_t unparsed = end_ - start_;
  const bool sole_owner =
      slab_ && slab_->refs.load(std::memory_order_acquire) == 1;
  if (sole_owner && start_ != 0 &&
      (unparsed == 0 || end_ + chunk.size() > slab_->capacity) &&
      unparsed + chunk.size() <= slab_->capacity) {
    // No emitted frame aliases the slab and the unparsed tail plus the new
    // chunk fit: slide the tail to the front instead of growing (free when
    // nothing is buffered).
    std::memmove(slab_->bytes(), slab_->bytes() + start_, unparsed);
    if (unparsed != 0) SlabPool::instance().count_grow_copy(unparsed);
    start_ = 0;
    end_ = unparsed;
  }
  if (!slab_ || end_ + chunk.size() > slab_->capacity) {
    // Grow (or shed a slab pinned by emitted frames): move only the
    // unparsed tail — bytes of already-emitted frames stay behind in the
    // old slab, kept alive by the frames' own references.
    SlabPool& pool = SlabPool::instance();
    std::size_t want = unparsed + chunk.size();
    if (slab_ && sole_owner && want < slab_->capacity * 2) {
      want = slab_->capacity * 2;
    }
    Slab* bigger = pool.acquire(want);
    if (unparsed != 0) {
      std::memcpy(bigger->bytes(), slab_->bytes() + start_, unparsed);
      pool.count_grow_copy(unparsed);
    }
    release_slab();
    slab_ = bigger;
    start_ = 0;
    end_ = unparsed;
  }
  std::memcpy(slab_->bytes() + end_, chunk.data(), chunk.size());
  end_ += chunk.size();
}

bool FrameDecoder::feed(std::span<const std::uint8_t> chunk) {
  if (poisoned_) return false;
  append(chunk);
  if (!slab_) return true;  // empty chunk, nothing buffered
  return parse(slab_->bytes(), start_, end_, [this](std::size_t at,
                                                    std::size_t len) {
    emit_payload(BufSlice{slab_, slab_->bytes() + at, len, /*add_ref=*/true});
  });
}

bool FrameDecoder::feed(const BufSlice& chunk) {
  if (poisoned_) return false;
  if (buffered_bytes() == 0 && chunk.owning()) {
    // Fast path: parse frames straight out of the caller's slab and emit
    // them as sub-slices of it — zero bytes copied for complete frames.
    std::size_t pos = 0;
    const bool ok =
        parse(chunk.data(), pos, chunk.size(),
              [this, &chunk](std::size_t at, std::size_t len) {
                emit_payload(chunk.slice(at, len));
              });
    if (!ok) return false;
    if (pos < chunk.size()) {
      append(chunk.span().subspan(pos));  // buffer the incomplete tail only
    }
    return true;
  }
  return feed(chunk.span());
}

}  // namespace kmsg::wire

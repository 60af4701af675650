// Length-prefixed, checksummed framing for stream transports.
//
// The messaging layer writes one frame per serialised message into a TCP/UDT
// byte stream; the decoder re-slices the stream into frames on the receiving
// side regardless of how the transport segmented it. Frame layout:
//   u32 big-endian payload length | u32 big-endian CRC-32 of payload | payload
// A maximum frame size guards against corrupted-length runaway allocation,
// and the CRC catches bit errors that escaped the transport's checksum (the
// netsim chaos layer injects exactly those). A CRC mismatch poisons the
// decoder: once any byte of the stream is untrusted, frame boundaries are
// untrusted too, so the only safe recovery is tearing the connection down
// and re-establishing the session (which the messaging layer does).
//
// Zero-copy model: encode_frame_slice writes the 8-byte header into the
// payload slice's headroom in place when it solely owns its slab (the
// serialiser reserves that headroom), so encoding a frame moves no payload
// bytes. The decoder accumulates stream chunks in a pooled slab and emits
// each frame as a BufSlice *view* into that slab; emitted frames pin the
// slab via refcount. While the decoder is the slab's sole owner it slides the
// not-yet-parsed tail back to the front instead of growing; it doubles the
// slab only when that tail plus the new chunk do not fit, and growing or
// leaving a pinned slab copies only the tail. feed(BufSlice) additionally
// parses frames directly out of the caller's slab when the decoder has no
// buffered partial frame.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "wire/buffer.hpp"

namespace kmsg::wire {

/// Default ceiling mirrors the paper's 65 kB serialisation buffers with
/// headroom for headers.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16 * 1024 * 1024;

/// Bytes of framing overhead per frame (length + CRC).
inline constexpr std::size_t kFrameHeaderBytes = 8;

// --- Wire format v2 (coalescing-capable frame payloads) ---------------------
//
// When both endpoints opt in (NetworkConfig::enable_delta / enable_coalescing
// — the flags must be cluster-symmetric), every frame payload starts with a
// one-byte format tag:
//   kWireSingleTag    | message bytes                  (one message per frame)
//   kWireCoalescedTag | (varint length | message)...   (many messages/frame)
// so many small messages amortise one length/CRC header. The default (v1)
// format has no tag: a frame payload *is* one message, byte-identical to the
// pre-coalescing wire format — the golden-frame tests pin that.

/// Frame carries exactly one message after the tag.
inline constexpr std::uint8_t kWireSingleTag = 0xE1;
/// Frame carries a sequence of varint-length-prefixed messages.
inline constexpr std::uint8_t kWireCoalescedTag = 0xE2;

/// Tags `encoded` as a v2 single-message frame payload (in-place headroom
/// prepend when possible, else one counted copy).
BufSlice encode_wire_single(BufSlice encoded);

/// Gathers encoded sub-messages into one v2 coalesced frame payload
/// ([tag][varint len|bytes]...) with `headroom` spare bytes for the frame
/// header. One copy per sub-message — the price of amortising the header.
BufSlice encode_wire_coalesced(std::span<const BufSlice> subs,
                               std::size_t headroom = kFrameHeaderBytes);

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte span. Uses
/// detail::crc32_clmul when the CPU has PCLMULQDQ and SSE4.1 (checked once
/// at run time), else detail::crc32_portable. Both give the same value.
std::uint32_t crc32(std::span<const std::uint8_t> data);

namespace detail {
/// Slicing-by-8 table kernel; runs anywhere.
std::uint32_t crc32_portable(std::span<const std::uint8_t> data);
/// Whether this CPU can run crc32_clmul's folding path.
bool crc32_clmul_supported();
/// PCLMULQDQ 4x128-bit folding with Barrett reduction over the largest
/// 16-byte multiple of inputs of 64 bytes or more; slicing-by-8 for the
/// tail and for shorter inputs. Requires crc32_clmul_supported().
std::uint32_t crc32_clmul(std::span<const std::uint8_t> data);
}  // namespace detail

/// Prepends the length + CRC header to a payload (returns a new vector).
std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload);

/// Zero-copy framing: prepends the header in place via the slice's headroom
/// when possible (sole owner, >= kFrameHeaderBytes spare); otherwise falls
/// back to one counted copy into a fresh slab. The returned slice covers
/// header + payload.
BufSlice encode_frame_slice(BufSlice payload);

/// Incremental frame decoder: feed arbitrary stream chunks; complete frames
/// are emitted through the callback in order as slices of the decoder's
/// accumulation slab (or of the fed slice on the zero-copy fast path). The
/// callback may retain the slice — it pins the backing slab.
class FrameDecoder {
 public:
  using FrameFn = std::function<void(BufSlice)>;

  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}
  FrameDecoder(FrameDecoder&& other) noexcept { move_from(other); }
  FrameDecoder& operator=(FrameDecoder&& other) noexcept {
    if (this != &other) {
      release_slab();
      move_from(other);
    }
    return *this;
  }
  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;
  ~FrameDecoder() { release_slab(); }

  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }

  /// Switches the decoder to wire format v2: each CRC-validated frame
  /// payload is split on its format tag and emitted as one sub-slice per
  /// message (zero-copy — sub-slices share the frame's slab). An unknown
  /// tag or a malformed sub-message length poisons the stream just like a
  /// CRC failure: the framing is untrusted from that byte on.
  void set_wire_v2(bool on) { wire_v2_ = on; }

  /// Consumes a stream chunk. Returns false (and poisons the decoder) if a
  /// frame header exceeds the size limit or a frame fails its CRC — the
  /// stream is unrecoverable then.
  bool feed(std::span<const std::uint8_t> chunk);

  /// Zero-copy variant: when no partial frame is buffered, frames are
  /// emitted as sub-slices of `chunk`'s own slab (no byte is copied); only
  /// an incomplete tail is buffered. Falls back to the copying path when
  /// mid-frame or when `chunk` is a borrowed (non-owning) slice.
  bool feed(const BufSlice& chunk);

  bool poisoned() const { return poisoned_; }
  std::size_t buffered_bytes() const { return end_ - start_; }
  /// Capacity of the accumulation slab (0 before the first buffered byte).
  std::size_t buffer_capacity() const { return slab_ ? slab_->capacity : 0; }
  std::uint64_t frames_decoded() const { return frames_; }
  /// Frames rejected because their payload failed the CRC check.
  std::uint64_t frames_corrupt() const { return corrupt_; }
  /// v2 frames that carried more than one message.
  std::uint64_t coalesced_frames() const { return coalesced_; }
  /// Messages emitted from v2 frames (single + coalesced sub-messages).
  std::uint64_t submessages() const { return submsgs_; }

 private:
  /// Parses complete frames out of [data + start, data + end); emits via
  /// `emit` (which receives payload offset + length relative to `data`).
  /// Advances `start`. Returns false on poison.
  template <typename EmitFn>
  bool parse(const std::uint8_t* data, std::size_t& start, std::size_t end,
             EmitFn&& emit);
  void append(std::span<const std::uint8_t> chunk);
  /// Hands one CRC-validated frame payload to the callback; under wire v2
  /// this splits coalesced payloads into per-message sub-slices first.
  void emit_payload(BufSlice payload);
  void release_slab() noexcept;
  void move_from(FrameDecoder& other) noexcept {
    max_frame_ = other.max_frame_;
    slab_ = other.slab_;
    start_ = other.start_;
    end_ = other.end_;
    poisoned_ = other.poisoned_;
    wire_v2_ = other.wire_v2_;
    frames_ = other.frames_;
    corrupt_ = other.corrupt_;
    coalesced_ = other.coalesced_;
    submsgs_ = other.submsgs_;
    on_frame_ = std::move(other.on_frame_);
    other.slab_ = nullptr;
    other.start_ = other.end_ = 0;
  }

  std::size_t max_frame_ = kDefaultMaxFrameBytes;
  Slab* slab_ = nullptr;   ///< accumulation slab (decoder holds one ref)
  std::size_t start_ = 0;  ///< offset of the first unparsed byte
  std::size_t end_ = 0;    ///< offset past the last buffered byte
  bool poisoned_ = false;
  bool wire_v2_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t submsgs_ = 0;
  FrameFn on_frame_;
};

}  // namespace kmsg::wire

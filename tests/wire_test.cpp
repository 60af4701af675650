#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "apps/messages.hpp"
#include "common/rng.hpp"
#include "wire/bytebuf.hpp"
#include "wire/framing.hpp"
#include "wire/pipeline.hpp"
#include "wire/snappy.hpp"

namespace kmsg::wire {
namespace {

std::vector<std::uint8_t> to_vec(const BufSlice& s) {
  return {s.data(), s.data() + s.size()};
}

BufSlice owned(const std::vector<std::uint8_t>& v,
               std::size_t headroom = kPipelineHeadroomBytes) {
  return BufSlice::copy_of({v.data(), v.size()}, headroom);
}

// --- ByteBuf ---

TEST(ByteBufTest, PrimitiveRoundTrip) {
  ByteBuf buf;
  buf.write_u8(0xAB);
  buf.write_u16(0x1234);
  buf.write_u32(0xDEADBEEF);
  buf.write_u64(0x0123456789ABCDEFULL);
  buf.write_i64(-42);
  buf.write_f64(3.14159);
  buf.write_bool(true);
  EXPECT_EQ(buf.read_u8(), 0xAB);
  EXPECT_EQ(buf.read_u16(), 0x1234);
  EXPECT_EQ(buf.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(buf.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(buf.read_i64(), -42);
  EXPECT_DOUBLE_EQ(buf.read_f64(), 3.14159);
  EXPECT_TRUE(buf.read_bool());
  EXPECT_TRUE(buf.exhausted());
}

TEST(ByteBufTest, BigEndianLayout) {
  ByteBuf buf;
  buf.write_u32(0x01020304);
  auto span = buf.full_span();
  EXPECT_EQ(span[0], 0x01);
  EXPECT_EQ(span[3], 0x04);
}

TEST(ByteBufTest, VarintRoundTrip) {
  ByteBuf buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  0xFFFFFFFFull, ~0ull};
  for (auto v : values) buf.write_varint(v);
  for (auto v : values) EXPECT_EQ(buf.read_varint(), v);
}

TEST(ByteBufTest, VarintCompactness) {
  ByteBuf buf;
  buf.write_varint(127);
  EXPECT_EQ(buf.size(), 1u);
  buf.write_varint(128);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(ByteBufTest, StringAndBlob) {
  ByteBuf buf;
  buf.write_string("hello kompics");
  std::vector<std::uint8_t> blob{1, 2, 3, 4};
  buf.write_blob(blob);
  EXPECT_EQ(buf.read_string(), "hello kompics");
  EXPECT_EQ(buf.read_blob(), blob);
}

TEST(ByteBufTest, ReadPastEndThrows) {
  ByteBuf buf;
  buf.write_u16(7);
  buf.read_u8();
  EXPECT_THROW(buf.read_u32(), std::out_of_range);
  EXPECT_THROW(buf.read_u16(), std::out_of_range);
  EXPECT_NO_THROW(buf.read_u8());
}

TEST(ByteBufTest, TruncatedBlobThrows) {
  ByteBuf buf;
  buf.write_varint(100);  // claims 100 bytes, none present
  EXPECT_THROW(buf.read_blob(), std::out_of_range);
}

TEST(ByteBufTest, SkipAndIndices) {
  ByteBuf buf;
  buf.write_u32(1);
  buf.write_u32(2);
  buf.skip(4);
  EXPECT_EQ(buf.read_u32(), 2u);
  buf.reset_read_index();
  EXPECT_EQ(buf.read_u32(), 1u);
}

TEST(ByteBufTest, WrapAndTake) {
  std::vector<std::uint8_t> raw{0, 0, 0, 5};
  auto buf = ByteBuf::wrap(raw);
  EXPECT_EQ(buf.read_u32(), 5u);
  ByteBuf out;
  out.write_u8(9);
  auto taken = std::move(out).take_slice();
  EXPECT_EQ(to_vec(taken), std::vector<std::uint8_t>{9});
}

TEST(ByteBufTest, WrapIsAView) {
  // wrap must not copy: reads observe mutations of the wrapped storage.
  std::vector<std::uint8_t> raw{0, 0, 0, 5};
  auto buf = ByteBuf::wrap(raw);
  raw[3] = 7;
  EXPECT_EQ(buf.read_u32(), 7u);
  EXPECT_EQ(buf.full_span().data(), raw.data());
}

// --- Snappy-like codec ---

TEST(SnappyTest, EmptyInput) {
  auto c = snappy_compress({});
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_TRUE(d->empty());
}

TEST(SnappyTest, HighlyCompressible) {
  std::vector<std::uint8_t> input(10000, 'a');
  auto c = snappy_compress(input);
  EXPECT_LT(c.size(), input.size() / 10);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

TEST(SnappyTest, RepeatedPhrase) {
  std::string phrase = "kompics messaging over netty pipelines ";
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 200; ++i) {
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  auto c = snappy_compress(input);
  EXPECT_LT(c.size(), input.size() / 4);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

TEST(SnappyTest, IncompressibleBoundedExpansion) {
  Rng rng(31);
  std::vector<std::uint8_t> input(100000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next());
  auto c = snappy_compress(input);
  EXPECT_LT(c.size(), input.size() + input.size() / 100 + 16);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

TEST(SnappyTest, RandomizedRoundTripProperty) {
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng.next_below(5000);
    std::vector<std::uint8_t> input(n);
    // Mix of compressible runs and random bytes.
    std::size_t i = 0;
    while (i < n) {
      if (rng.next_bool(0.5)) {
        const auto run = std::min<std::size_t>(n - i, 1 + rng.next_below(64));
        const auto byte = static_cast<std::uint8_t>(rng.next());
        for (std::size_t k = 0; k < run; ++k) input[i++] = byte;
      } else {
        input[i++] = static_cast<std::uint8_t>(rng.next());
      }
    }
    auto c = snappy_compress(input);
    auto d = snappy_decompress(c);
    ASSERT_TRUE(d) << "trial " << trial;
    ASSERT_EQ(*d, input) << "trial " << trial;
  }
}

TEST(SnappyTest, MalformedInputRejected) {
  EXPECT_FALSE(snappy_decompress({}));
  // Claims 10 bytes but provides a copy from before the start.
  std::vector<std::uint8_t> bogus{10, 0x80 | 2, 0x00, 0x05};
  EXPECT_FALSE(snappy_decompress(bogus));
  // Length mismatch.
  std::vector<std::uint8_t> short_out{5, 0x01, 'a', 'b'};
  EXPECT_FALSE(snappy_decompress(short_out));
}

// --- Snappy adversarial inputs: the decompressor sees attacker-shaped bytes
// (a corrupted or hostile stream survives the frame CRC with probability
// 2^-32), so every tag must be bounds-checked and no length field trusted.

TEST(SnappyAdversarialTest, TruncatedTagsRejected) {
  // Literal tag promising a 64-byte run with no (or short) run bytes.
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{64, 63}));
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{64, 63, 'x', 'y'}));
  // Copy tag cut off before its 2-byte offset (and mid-offset).
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{8, 0x80}));
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{8, 0x80, 0x00}));
  // A valid literal followed by a truncated second tag.
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{9, 0x00, 'a', 0x85, 0x00}));
}

TEST(SnappyAdversarialTest, CopyOffsetsBeyondOutputRejected) {
  // Offset of 2 with only 1 byte produced so far.
  EXPECT_FALSE(snappy_decompress(
      std::vector<std::uint8_t>{5, 0x00, 'a', 0x80, 0x00, 0x02}));
  // Zero offset (self-copy) is never valid.
  EXPECT_FALSE(snappy_decompress(
      std::vector<std::uint8_t>{5, 0x00, 'a', 0x80, 0x00, 0x00}));
}

TEST(SnappyAdversarialTest, OverlappingCopyReplicatesExactly) {
  // Hand-built stream: literal "ab", then a copy of length 6 at offset 2 —
  // the overlap must replicate RLE-style: "ab" + "ababab".
  const std::vector<std::uint8_t> stream{8, 0x01, 'a', 'b',
                                         0x80 | (6 - 4), 0x00, 0x02};
  auto d = snappy_decompress(stream);
  ASSERT_TRUE(d);
  EXPECT_EQ(std::string(d->begin(), d->end()), "abababab");
}

TEST(SnappyAdversarialTest, VarintLengthOverflowRejected) {
  // 10 continuation bytes push the shift past 64 bits: overflow, not wrap.
  std::vector<std::uint8_t> overflow(11, 0xFF);
  overflow[10] = 0x7F;
  EXPECT_FALSE(snappy_decompress(overflow));
  // An unterminated varint (all continuation bits) must also fail.
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{0xFF, 0xFF}));
}

TEST(SnappyAdversarialTest, HugeClaimedLengthDoesNotPreallocate) {
  // Claims ~4 GiB of output from a 3-byte body. The decompressor must not
  // reserve the claimed length (allocator bomb): the tiny input bounds what
  // the stream could possibly produce. It fails on length mismatch instead.
  std::vector<std::uint8_t> bomb{0xFF, 0xFF, 0xFF, 0xFF, 0x0F};  // 2^32 - 1
  bomb.insert(bomb.end(), {0x00, 'a', 0x00});
  EXPECT_FALSE(snappy_decompress(bomb));
  // Over the 4 GiB sanity cap: rejected before any allocation.
  std::vector<std::uint8_t> over{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(snappy_decompress(over));
}

TEST(SnappyAdversarialTest, SeededGarbageNeverCrashesOrOverproduces) {
  // Property: arbitrary bytes either decompress to exactly the claimed
  // length or are rejected — never a crash, never unbounded output.
  Rng rng(0xdec0de);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(256);
    std::vector<std::uint8_t> garbage(n);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    const auto d = snappy_decompress(garbage);
    if (d) {
      // kMaxMatch = 131: no 3-byte tag can emit more, so output is bounded
      // by input size * 131.
      EXPECT_LE(d->size(), n * 131) << "trial " << trial;
    }
  }
}

TEST(SnappyAdversarialTest, SeededCorruptionOfValidStreams) {
  // Property: flipping one byte of a valid stream must never crash or
  // over-produce; it may still round-trip (the flip hit a literal byte) or
  // be rejected, but any accepted output stays bounded.
  Rng rng(0xc0447);
  std::string phrase = "delta frames coalesce over snappy handlers ";
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 40; ++i) {
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  const auto valid = snappy_compress(input);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = valid;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto d = snappy_decompress(corrupted);
    if (d) {
      EXPECT_LE(d->size(), corrupted.size() * 131) << "trial " << trial;
    }
  }
}

TEST(SnappyTest, OverlappingCopyRleSemantics) {
  // "abcabcabc..." exercises overlapping copies (offset < length).
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<std::uint8_t>('a' + i % 3));
  auto c = snappy_compress(input);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

// --- Framing ---

TEST(FramingTest, EncodeDecodeSingleFrame) {
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  auto framed = encode_frame(payload);
  EXPECT_EQ(framed.size(), payload.size() + kFrameHeaderBytes);
  FrameDecoder dec;
  std::vector<std::vector<std::uint8_t>> frames;
  dec.set_on_frame([&](BufSlice f) { frames.push_back(to_vec(f)); });
  EXPECT_TRUE(dec.feed(framed));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], payload);
}

TEST(FramingTest, ArbitraryChunkBoundaries) {
  Rng rng(41);
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> p(rng.next_below(200));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    auto framed = encode_frame(p);
    stream.insert(stream.end(), framed.begin(), framed.end());
    sent.push_back(std::move(p));
  }
  FrameDecoder dec;
  std::vector<std::vector<std::uint8_t>> got;
  dec.set_on_frame([&](BufSlice f) { got.push_back(to_vec(f)); });
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.next_below(37),
                                                stream.size() - pos);
    EXPECT_TRUE(dec.feed({stream.data() + pos, n}));
    pos += n;
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(dec.frames_decoded(), 50u);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FramingTest, EmptyFrameAllowed) {
  FrameDecoder dec;
  int count = 0;
  dec.set_on_frame([&](BufSlice f) {
    EXPECT_TRUE(f.empty());
    ++count;
  });
  EXPECT_TRUE(dec.feed(encode_frame({})));
  EXPECT_EQ(count, 1);
}

TEST(FramingTest, OversizeFramePoisons) {
  FrameDecoder dec(1024);
  // 1 MiB length plus a (bogus) CRC word to complete the header.
  std::vector<std::uint8_t> evil{0x00, 0x10, 0x00, 0x00, 0, 0, 0, 0};
  EXPECT_FALSE(dec.feed(evil));
  EXPECT_TRUE(dec.poisoned());
  const std::vector<std::uint8_t> one{1};
  EXPECT_FALSE(dec.feed(encode_frame(one)));  // stays poisoned
}

TEST(FramingTest, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::string check = "123456789";
  std::vector<std::uint8_t> data(check.begin(), check.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(FramingTest, CorruptPayloadDetectedAndPoisons) {
  std::vector<std::uint8_t> payload{10, 20, 30, 40, 50, 60};
  auto framed = encode_frame(payload);
  framed[kFrameHeaderBytes + 2] ^= 0x04;  // flip one payload bit in flight
  FrameDecoder dec;
  int delivered = 0;
  dec.set_on_frame([&](BufSlice) { ++delivered; });
  EXPECT_FALSE(dec.feed(framed));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.frames_corrupt(), 1u);
  EXPECT_EQ(delivered, 0);
}

TEST(FramingTest, CorruptHeaderDetected) {
  // A bit flip in the CRC word itself must also fail verification.
  std::vector<std::uint8_t> payload{7, 7, 7};
  auto framed = encode_frame(payload);
  framed[5] ^= 0x80;  // inside the CRC field
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(framed));
  EXPECT_EQ(dec.frames_corrupt(), 1u);
}

TEST(FramingTest, DecoderSlabStaysBoundedWithAPartialFramePending) {
  // 16 MiB of 65 kB frames fed in 1,400-byte pieces: a partial frame is
  // pending after almost every piece, and each emitted frame is dropped at
  // once, so the decoder is its slab's sole owner whenever it runs out of
  // room. It must slide the unparsed tail to the front rather than double
  // its slab for the length of the stream.
  constexpr std::size_t kPayload = 65000;
  constexpr std::size_t kStreamBytes = std::size_t{16} << 20;
  const std::vector<std::uint8_t> payload(kPayload, 0x3C);
  const auto frame = encode_frame(payload);
  std::vector<std::uint8_t> stream;
  while (stream.size() < kStreamBytes) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameDecoder dec;
  std::size_t frames = 0;
  std::size_t max_capacity = 0;
  dec.set_on_frame([&](BufSlice f) {
    ASSERT_EQ(f.size(), kPayload);
    ++frames;
  });
  for (std::size_t at = 0; at < stream.size(); at += 1400) {
    const std::size_t n = std::min<std::size_t>(1400, stream.size() - at);
    ASSERT_TRUE(dec.feed(std::span<const std::uint8_t>{stream.data() + at, n}));
    max_capacity = std::max(max_capacity, dec.buffer_capacity());
  }
  EXPECT_EQ(frames, stream.size() / frame.size());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  EXPECT_LE(max_capacity, std::size_t{256} << 10);
}

// --- CRC-32 kernels ---

/// Bit-at-a-time CRC-32 register update (IEEE polynomial, reflected): the
/// definition both table and carry-less kernels must reproduce.
std::uint32_t crc32_bitwise_update(std::uint32_t c, std::uint8_t byte) {
  c ^= byte;
  for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  return c;
}

std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = crc32_bitwise_update(c, b);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> crc_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

using CrcKernel = std::uint32_t (*)(std::span<const std::uint8_t>);

void check_kernel_against_bitwise(CrcKernel kernel) {
  constexpr std::size_t kMaxLen = 2048;
  constexpr std::size_t kAlignments = 16;
  const auto input = crc_input(kMaxLen, 11);
  // reference[n] = CRC of the first n input bytes.
  std::vector<std::uint32_t> reference(kMaxLen + 1);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    reference[n] = c ^ 0xFFFFFFFFu;
    if (n < kMaxLen) c = crc32_bitwise_update(c, input[n]);
  }
  // The same bytes placed at each offset from a 64-byte boundary.
  alignas(64) static std::uint8_t storage[kMaxLen + kAlignments + 64];
  for (std::size_t align = 0; align < kAlignments; ++align) {
    std::copy(input.begin(), input.end(), storage + align);
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      ASSERT_EQ(kernel({storage + align, n}), reference[n])
          << "length " << n << " alignment " << align;
    }
  }
  for (const std::size_t n : {std::size_t{65000}, std::size_t{65536},
                              (std::size_t{1} << 20) + 13}) {
    const auto big = crc_input(n, n);
    EXPECT_EQ(kernel(big), crc32_bitwise(big)) << "length " << n;
  }
  const std::string check = "123456789";
  EXPECT_EQ(kernel({reinterpret_cast<const std::uint8_t*>(check.data()),
                    check.size()}),
            0xCBF43926u);
}

TEST(Crc32KernelTest, PortableMatchesBitwiseReference) {
  check_kernel_against_bitwise(&detail::crc32_portable);
}

TEST(Crc32KernelTest, ClmulMatchesBitwiseReference) {
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  }
  check_kernel_against_bitwise(&detail::crc32_clmul);
}

TEST(Crc32KernelTest, DispatcherAgreesOnFrameSizes) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{1400}, std::size_t{65000}}) {
    const auto data = crc_input(n, 5);
    EXPECT_EQ(crc32(data), crc32_bitwise(data)) << "length " << n;
  }
}

// --- Shared payload pattern ---

TEST(PayloadPatternTest, ConcurrentSlicesFromColdStart) {
  // Four threads race to take the first pattern slices of the process (this
  // test must stay the only payload user in this binary), so the one-time
  // slab build and the shared refcount run concurrently: TSan checks both.
  constexpr int kThreads = 4;
  constexpr std::size_t kChunk = 65000;
  std::atomic<int> ready{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ready, &bad] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t offset = (i * kThreads + t) * kChunk;
        BufSlice s = apps::make_payload_slice(offset, kChunk);
        BufSlice copy = s;  // shared refcount traffic
        if (copy.size() != kChunk || !apps::verify_payload(offset, copy.span())) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// --- Pipeline ---

TEST(PipelineTest, EmptyPipelinePassesThrough) {
  Pipeline p;
  std::vector<std::uint8_t> payload{1, 2, 3};
  EXPECT_EQ(to_vec(p.process_outbound(owned(payload))), payload);
  auto in = p.process_inbound(owned(payload));
  ASSERT_TRUE(in);
  EXPECT_EQ(to_vec(*in), payload);
}

TEST(PipelineTest, CompressionRoundTrip) {
  Pipeline p;
  p.add_last(std::make_unique<CompressionHandler>(0));
  std::vector<std::uint8_t> payload(5000, 'x');
  auto wire_form = p.process_outbound(owned(payload));
  EXPECT_LT(wire_form.size(), payload.size());
  auto back = p.process_inbound(wire_form);
  ASSERT_TRUE(back);
  EXPECT_EQ(to_vec(*back), payload);
}

TEST(PipelineTest, IncompressibleStoredRaw) {
  Pipeline p;
  p.add_last(std::make_unique<CompressionHandler>(0));
  Rng rng(43);
  std::vector<std::uint8_t> payload(1000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  auto wire_form = p.process_outbound(owned(payload));
  EXPECT_EQ(wire_form.size(), payload.size() + 1);  // 1-byte raw tag
  auto back = p.process_inbound(wire_form);
  ASSERT_TRUE(back);
  EXPECT_EQ(to_vec(*back), payload);
}

TEST(PipelineTest, SmallPayloadBypass) {
  Pipeline p;
  p.add_last(std::make_unique<CompressionHandler>(64));
  std::vector<std::uint8_t> tiny(10, 'a');
  auto wire_form = p.process_outbound(owned(tiny));
  EXPECT_EQ(wire_form.size(), tiny.size() + 1);
}

TEST(PipelineTest, CorruptInboundRejected) {
  Pipeline p;
  p.add_last(std::make_unique<CompressionHandler>(0));
  EXPECT_FALSE(p.process_inbound(BufSlice{}));
  EXPECT_FALSE(p.process_inbound(owned({0x42, 1, 2})));   // unknown tag
  EXPECT_FALSE(p.process_inbound(owned({0x01, 0xFF})));   // truncated compressed body
}

TEST(PipelineTest, MultipleHandlersComposeInOrder) {
  // Two compression handlers: inner output is incompressible for the outer,
  // but the round trip must still be exact (tests reverse-order inbound).
  Pipeline p;
  p.add_last(std::make_unique<CompressionHandler>(0));
  p.add_last(std::make_unique<CompressionHandler>(0));
  std::vector<std::uint8_t> payload(3000, 'z');
  auto wire_form = p.process_outbound(owned(payload));
  auto back = p.process_inbound(wire_form);
  ASSERT_TRUE(back);
  EXPECT_EQ(to_vec(*back), payload);
}

}  // namespace
}  // namespace kmsg::wire

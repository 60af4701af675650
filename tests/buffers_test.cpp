#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "transport/reassembly.hpp"
#include "transport/stream.hpp"

namespace kmsg::transport {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// --- SendBuffer ---

wire::BufSlice slice_of(const std::vector<std::uint8_t>& v) {
  return wire::BufSlice::copy_of({v.data(), v.size()});
}

std::vector<std::uint8_t> vec(const wire::BufSlice& s) {
  return {s.span().begin(), s.span().end()};
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(SendBufferTest, WriteReadRelease) {
  SendBuffer sb(16);
  auto data = bytes({1, 2, 3, 4, 5});
  EXPECT_EQ(sb.write(slice_of(data)), 5u);
  EXPECT_EQ(sb.size(), 5u);
  EXPECT_EQ(vec(sb.read_at(0, 5)), data);
  EXPECT_EQ(vec(sb.read_at(2, 2)), bytes({3, 4}));
  sb.release_until(3);
  EXPECT_EQ(sb.base(), 3u);
  EXPECT_EQ(sb.size(), 2u);
  EXPECT_EQ(vec(sb.read_at(3, 2)), bytes({4, 5}));
}

TEST(SendBufferTest, PartialWriteWhenFull) {
  SendBuffer sb(4);
  auto data = bytes({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(sb.write(slice_of(data)), 4u);
  EXPECT_EQ(sb.free_space(), 0u);
  EXPECT_EQ(sb.write(slice_of(data)), 0u);
  sb.release_until(2);
  EXPECT_EQ(sb.write(slice_of(data)), 2u);
  EXPECT_EQ(vec(sb.read_at(4, 2)), bytes({1, 2}));
  EXPECT_EQ(vec(sb.read_at(2, 4)), bytes({3, 4, 1, 2}));
}

TEST(SendBufferTest, RetainedWindowMatchesTheHistory) {
  // Property: every read of the retained window equals the corresponding
  // slice of the full byte history, across arbitrary write / partial-write /
  // release interleavings, for reads inside one write and across several.
  SendBuffer sb(64);
  Rng rng(1);
  std::vector<std::uint8_t> history;  // every byte ever accepted
  for (int round = 0; round < 2000; ++round) {
    const auto chunk = random_bytes(rng, 1 + rng.next_below(24));
    const std::size_t written = sb.write(slice_of(chunk));
    ASSERT_EQ(written, std::min(chunk.size(), sb.capacity() - (history.size() -
                                                              sb.base())));
    history.insert(history.end(), chunk.begin(),
                   chunk.begin() + static_cast<std::ptrdiff_t>(written));
    ASSERT_EQ(sb.end(), history.size());
    ASSERT_LE(sb.size(), sb.capacity());
    if (sb.size() > 0) {
      const std::uint64_t at = sb.base() + rng.next_below(sb.size());
      const std::size_t len =
          1 + rng.next_below(static_cast<std::size_t>(sb.end() - at));
      const auto got = sb.read_at(at, len);
      ASSERT_EQ(got.size(), len);
      ASSERT_TRUE(std::equal(got.span().begin(), got.span().end(),
                             history.begin() + static_cast<std::ptrdiff_t>(at)))
          << "round " << round;
    }
    sb.release_until(sb.base() + rng.next_below(sb.size() + 1));
  }
}

TEST(SendBufferTest, ReadOutsideRangeThrows) {
  SendBuffer sb(8);
  sb.write(slice_of(bytes({1, 2, 3})));
  EXPECT_THROW(sb.read_at(0, 4), std::out_of_range);
  sb.release_until(2);
  EXPECT_THROW(sb.read_at(1, 1), std::out_of_range);
  EXPECT_NO_THROW(sb.read_at(2, 1));
}

TEST(SendBufferTest, ReleaseClamped) {
  SendBuffer sb(8);
  sb.write(slice_of(bytes({1, 2, 3})));
  sb.release_until(100);  // clamped to end
  EXPECT_EQ(sb.base(), 3u);
  EXPECT_TRUE(sb.empty());
  sb.release_until(0);  // cannot go backwards
  EXPECT_EQ(sb.base(), 3u);
}

TEST(SendBufferTest, ZeroCapacityRejected) {
  EXPECT_THROW(SendBuffer(0), std::invalid_argument);
}

TEST(SendBufferTest, FreshBufferHoldsNothing) {
  SendBuffer sb(std::size_t{100} << 20);
  EXPECT_EQ(sb.capacity(), std::size_t{100} << 20);
  EXPECT_EQ(sb.free_space(), sb.capacity());
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.end(), 0u);
  EXPECT_EQ(sb.write(wire::BufSlice{}), 0u);
  EXPECT_TRUE(sb.empty());
  EXPECT_TRUE(sb.read_at(0, 0).empty());
}

TEST(SendBufferTest, BytesHeldNeverExceedCapacity) {
  // A capacity that is no multiple of the write sizes: writes are cut to the
  // free space, and releasing everything makes room for exactly the capacity.
  const std::size_t cap = 3 * 65000 + 123;
  SendBuffer sb(cap);
  Rng rng(3);
  std::vector<std::uint8_t> history;
  for (int round = 0; round < 200; ++round) {
    const auto chunk = random_bytes(rng, 1 + rng.next_below(40000));
    const std::size_t written = sb.write(slice_of(chunk));
    history.insert(history.end(), chunk.begin(),
                   chunk.begin() + static_cast<std::ptrdiff_t>(written));
    ASSERT_LE(sb.size(), sb.capacity());
    if (sb.size() > 0) {
      const auto window = sb.read_at(sb.base(), sb.size());
      ASSERT_TRUE(std::equal(
          window.span().begin(), window.span().end(),
          history.begin() + static_cast<std::ptrdiff_t>(sb.base())))
          << "round " << round;
    }
    sb.release_until(sb.base() + rng.next_below(sb.size() + 1));
  }
  sb.release_until(sb.end());
  const std::vector<std::uint8_t> full(cap + 1, 0x5A);
  EXPECT_EQ(sb.write(slice_of(full)), cap);
  EXPECT_EQ(sb.free_space(), 0u);
  EXPECT_EQ(vec(sb.read_at(sb.base(), cap)),
            std::vector<std::uint8_t>(cap, 0x5A));
}

// The buffer holds the written frames themselves: no byte is copied on the
// way in, and a segment inside one frame is a view of it.
TEST(SendBufferTest, InFrameReadSharesTheFrameSlab) {
  Rng rng(5);
  const auto frame_bytes = random_bytes(rng, 65000);
  const auto frame = slice_of(frame_bytes);
  SendBuffer sb(std::size_t{1} << 20);
  wire::SlabPool::instance().reset_stats();
  EXPECT_EQ(sb.write(frame), frame.size());
  EXPECT_EQ(frame.ref_count(), 2u);  // ours and the buffer's
  const auto seg = sb.read_at(1400, kStreamMss);
  EXPECT_EQ(frame.ref_count(), 3u);
  EXPECT_EQ(seg.data(), frame.data() + 1400);
  EXPECT_EQ(wire::SlabPool::instance().stats().payload_bytes_copied, 0u);
  EXPECT_TRUE(std::equal(seg.span().begin(), seg.span().end(),
                         frame_bytes.begin() + 1400));
}

TEST(SendBufferTest, StraddlingReadCopiesOneSegment) {
  Rng rng(6);
  const auto first = random_bytes(rng, 1000);
  const auto second = random_bytes(rng, 2 * kStreamMss);
  SendBuffer sb(std::size_t{1} << 20);
  sb.write(slice_of(first));
  sb.write(slice_of(second));
  wire::SlabPool::instance().reset_stats();
  const auto seg = sb.read_at(200, kStreamMss);  // 800 + (MSS - 800) bytes
  EXPECT_EQ(wire::SlabPool::instance().stats().payload_bytes_copied, kStreamMss);
  std::vector<std::uint8_t> want(first.begin() + 200, first.end());
  want.insert(want.end(), second.begin(),
              second.begin() + static_cast<std::ptrdiff_t>(kStreamMss - 800));
  EXPECT_EQ(vec(seg), want);
  EXPECT_TRUE(seg.owning());
}

TEST(SendBufferTest, RetransmitReadAfterPartialRelease) {
  // An ACK inside a frame releases its head; the unacknowledged rest stays
  // readable from the same frame for retransmission.
  Rng rng(7);
  const auto frame_bytes = random_bytes(rng, 3 * kStreamMss);
  const auto frame = slice_of(frame_bytes);
  SendBuffer sb(std::size_t{1} << 20);
  sb.write(frame);
  sb.write(slice_of(random_bytes(rng, 3000)));
  sb.release_until(4200);
  EXPECT_EQ(sb.base(), 4200u);
  EXPECT_EQ(sb.size(), frame.size() + 3000 - 4200);
  EXPECT_THROW(sb.read_at(4199, 1), std::out_of_range);
  const auto seg = sb.read_at(4200, kStreamMss);
  EXPECT_EQ(seg.data(), frame.data() + 4200);
  EXPECT_TRUE(std::equal(seg.span().begin(), seg.span().end(),
                         frame_bytes.begin() + 4200));
  // Releasing past the frame's end lets go of it.
  sb.release_until(frame.size());
  EXPECT_EQ(frame.ref_count(), 2u);  // ours and `seg`
}

TEST(SendBufferTest, BorrowedBytesAreCopiedOnlyAsFarAsAccepted) {
  const std::vector<std::uint8_t> data(100, 7);
  SendBuffer sb(60);
  wire::SlabPool::instance().reset_stats();
  EXPECT_EQ(sb.write(wire::BufSlice::borrowed({data.data(), data.size()})), 60u);
  EXPECT_EQ(wire::SlabPool::instance().stats().payload_bytes_copied, 60u);
  EXPECT_TRUE(sb.read_at(0, 60).owning());
  EXPECT_EQ(vec(sb.read_at(0, 60)), std::vector<std::uint8_t>(60, 7));
}

// --- ReassemblyBuffer ---

TEST(ReassemblyTest, InOrderFastPath) {
  ReassemblyBuffer rb(1024);
  auto out = rb.offer(0, bytes({1, 2, 3}));
  EXPECT_EQ(out, bytes({1, 2, 3}));
  EXPECT_EQ(rb.expected(), 3u);
  out = rb.offer(3, bytes({4, 5}));
  EXPECT_EQ(out, bytes({4, 5}));
  EXPECT_EQ(rb.expected(), 5u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReassemblyTest, OutOfOrderHoldsThenReleases) {
  ReassemblyBuffer rb(1024);
  EXPECT_TRUE(rb.offer(3, bytes({4, 5})).empty());
  EXPECT_EQ(rb.buffered_bytes(), 2u);
  auto out = rb.offer(0, bytes({1, 2, 3}));
  EXPECT_EQ(out, bytes({1, 2, 3, 4, 5}));
  EXPECT_EQ(rb.expected(), 5u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReassemblyTest, DuplicatesTrimmed) {
  ReassemblyBuffer rb(1024);
  rb.offer(0, bytes({1, 2, 3}));
  EXPECT_TRUE(rb.offer(0, bytes({1, 2, 3})).empty());  // full duplicate
  auto out = rb.offer(1, bytes({2, 3, 4}));            // overlap + new byte
  EXPECT_EQ(out, bytes({4}));
  EXPECT_EQ(rb.expected(), 4u);
}

TEST(ReassemblyTest, OverlappingOutOfOrderSegments) {
  ReassemblyBuffer rb(1024);
  EXPECT_TRUE(rb.offer(5, bytes({6, 7})).empty());
  EXPECT_TRUE(rb.offer(4, bytes({5, 6, 7, 8})).empty());  // overlaps parked
  // The closing segment returns everything newly contiguous: itself plus the
  // absorbed parked bytes.
  auto out = rb.offer(0, bytes({1, 2, 3, 4}));
  EXPECT_EQ(out, bytes({1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(rb.expected(), 8u);
}

TEST(ReassemblyTest, CapacityOverflowDrops) {
  ReassemblyBuffer rb(4);
  EXPECT_TRUE(rb.offer(10, bytes({1, 2, 3})).empty());
  EXPECT_EQ(rb.drops(), 0u);
  EXPECT_TRUE(rb.offer(20, bytes({4, 5})).empty());  // would exceed 4 bytes
  EXPECT_EQ(rb.drops(), 1u);
  EXPECT_EQ(rb.buffered_bytes(), 3u);
}

TEST(ReassemblyTest, AvailableShrinksWithParkedBytes) {
  ReassemblyBuffer rb(10);
  EXPECT_EQ(rb.available(), 10u);
  rb.offer(5, bytes({1, 2, 3}));
  EXPECT_EQ(rb.available(), 7u);
}

TEST(ReassemblyTest, MissingRangesEnumeration) {
  ReassemblyBuffer rb(1024);
  rb.offer(10, bytes({1, 2}));   // [10,12)
  rb.offer(20, bytes({3}));      // [20,21)
  auto ranges = rb.missing_ranges(10);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], std::make_pair(std::uint64_t{0}, std::uint64_t{10}));
  EXPECT_EQ(ranges[1], std::make_pair(std::uint64_t{12}, std::uint64_t{20}));
  // Limit respected.
  EXPECT_EQ(rb.missing_ranges(1).size(), 1u);
}

TEST(ReassemblyTest, MissingRangesIncludesDroppedBytes) {
  ReassemblyBuffer rb(2);
  rb.offer(10, bytes({1, 2, 3}));  // dropped (over capacity)
  EXPECT_EQ(rb.drops(), 1u);
  auto ranges = rb.missing_ranges(4);
  ASSERT_EQ(ranges.size(), 1u);
  // The dropped range still counts as missing, so NAKs re-request it.
  EXPECT_EQ(ranges[0], std::make_pair(std::uint64_t{0}, std::uint64_t{13}));
}

TEST(ReassemblyTest, RandomizedStreamReconstruction) {
  // Property: any permutation of overlapping segments reconstructs the
  // original stream exactly once.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t total = 500 + rng.next_below(500);
    std::vector<std::uint8_t> stream(total);
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());

    // Build random overlapping segments covering the stream.
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> segs;
    for (std::size_t at = 0; at < total;) {
      const std::size_t len = 1 + rng.next_below(40);
      const std::size_t end = std::min(total, at + len);
      segs.emplace_back(at, std::vector<std::uint8_t>(
                                stream.begin() + static_cast<std::ptrdiff_t>(at),
                                stream.begin() + static_cast<std::ptrdiff_t>(end)));
      // Sometimes step back to create overlap.
      const std::size_t advance = rng.next_bool(0.3) && end - at > 2
                                      ? (end - at) - 2
                                      : (end - at);
      at += advance;
    }
    // Shuffle.
    for (std::size_t i = segs.size(); i > 1; --i) {
      std::swap(segs[i - 1], segs[rng.next_below(i)]);
    }

    ReassemblyBuffer rb(1 << 20);
    std::vector<std::uint8_t> got;
    for (auto& [at, seg] : segs) {
      auto out = rb.offer(at, seg);
      got.insert(got.end(), out.begin(), out.end());
    }
    EXPECT_EQ(got, stream) << "trial " << trial;
    EXPECT_EQ(rb.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace kmsg::transport

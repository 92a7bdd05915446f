// Unit tests for src/pvm: message pack/unpack, machine profiles, and the
// wire framing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "pvm/frame.hpp"
#include "pvm/machine.hpp"
#include "pvm/message.hpp"
#include "support/rng.hpp"

namespace pts::pvm {
namespace {

// Death tests below use gtest's "threadsafe" (re-exec) style, which does not
// depend on the process being single-threaded when the child is forked.

TEST(Message, PackUnpackAllTypes) {
  Message msg(42);
  msg.pack_u64(123456789012345ull);
  msg.pack_i64(-42);
  msg.pack_u32(7);
  msg.pack_double(3.25);
  msg.pack_bool(true);
  msg.pack_string("hello world");
  msg.pack_u32_vector({1, 2, 3});
  msg.pack_double_vector({0.5, -1.5});

  EXPECT_EQ(msg.tag(), 42);
  EXPECT_EQ(msg.unpack_u64(), 123456789012345ull);
  EXPECT_EQ(msg.unpack_i64(), -42);
  EXPECT_EQ(msg.unpack_u32(), 7u);
  EXPECT_DOUBLE_EQ(msg.unpack_double(), 3.25);
  EXPECT_TRUE(msg.unpack_bool());
  EXPECT_EQ(msg.unpack_string(), "hello world");
  EXPECT_EQ(msg.unpack_u32_vector(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(msg.unpack_double_vector(), (std::vector<double>{0.5, -1.5}));
  EXPECT_TRUE(msg.fully_consumed());
}

TEST(Message, RewindAllowsReUnpack) {
  Message msg(1);
  msg.pack_u32(5);
  EXPECT_EQ(msg.unpack_u32(), 5u);
  msg.rewind();
  EXPECT_EQ(msg.unpack_u32(), 5u);
}

TEST(Message, EmptyVectorsRoundTrip) {
  Message msg(1);
  msg.pack_u32_vector({});
  msg.pack_double_vector({});
  msg.pack_string("");
  EXPECT_TRUE(msg.unpack_u32_vector().empty());
  EXPECT_TRUE(msg.unpack_double_vector().empty());
  EXPECT_EQ(msg.unpack_string(), "");
}

TEST(Message, EmptyPayloadRoundTrip) {
  // A tag-only message (no packed fields) is a legal control message: it
  // survives copy, move and re-adoption from empty wire bytes.
  const Message original(17);
  EXPECT_EQ(original.tag(), 17);
  EXPECT_EQ(original.byte_size(), 0u);
  EXPECT_TRUE(original.fully_consumed());

  Message copy = original;
  EXPECT_EQ(copy.tag(), 17);
  EXPECT_EQ(copy.byte_size(), 0u);
  EXPECT_TRUE(copy.fully_consumed());

  const Message moved = std::move(copy);
  EXPECT_EQ(moved.tag(), 17);
  EXPECT_EQ(moved.byte_size(), 0u);
  EXPECT_TRUE(moved.fully_consumed());

  Message adopted = Message::from_payload(17, {});
  EXPECT_EQ(adopted.tag(), 17);
  EXPECT_EQ(adopted.byte_size(), 0u);
  EXPECT_TRUE(adopted.fully_consumed());
  EXPECT_TRUE(adopted.validate_layout());
  EXPECT_EQ(adopted.peek_field(), Field::None);
}

TEST(MessageDeath, TypeMismatchAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Message msg(1);
  msg.pack_u32(5);
  EXPECT_DEATH(msg.unpack_double(), "type mismatch");
}

TEST(MessageDeath, UnderflowAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Message msg(1);
  msg.pack_u32(5);
  msg.unpack_u32();
  EXPECT_DEATH(msg.unpack_u32(), "underflow");
}

TEST(MachineProfileTest, SpeedScalesTime) {
  Rng rng(1);
  const MachineProfile fast{"f", 1.0, 0.0};
  const MachineProfile slow{"s", 0.25, 0.0};
  EXPECT_DOUBLE_EQ(fast.time_for(10.0, rng), 10.0);
  EXPECT_DOUBLE_EQ(slow.time_for(10.0, rng), 40.0);
}

TEST(MachineProfileTest, JitterOnlyIncreasesTime) {
  Rng rng(2);
  const MachineProfile noisy{"n", 1.0, 0.3};
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(noisy.time_for(5.0, rng), 5.0);
  }
}

TEST(ClusterTest, PaperClusterComposition) {
  const auto cluster = ClusterConfig::paper_cluster(0.0);
  ASSERT_EQ(cluster.size(), 12u);
  std::size_t fast = 0, medium = 0, slow = 0;
  for (const auto& m : cluster.machines) {
    if (m.speed == 1.0) ++fast;
    else if (m.speed == 0.75) ++medium;
    else if (m.speed == 0.5) ++slow;
  }
  EXPECT_EQ(fast, 7u);
  EXPECT_EQ(medium, 3u);
  EXPECT_EQ(slow, 2u);
}

TEST(ClusterTest, RoundRobinBinding) {
  const auto cluster = ClusterConfig::homogeneous(3);
  EXPECT_EQ(&cluster.machine_for_task(0), &cluster.machines[0]);
  EXPECT_EQ(&cluster.machine_for_task(4), &cluster.machines[1]);
  EXPECT_EQ(&cluster.machine_for_task(11), &cluster.machines[2]);
}

TEST(ClusterTest, InterleavingSpreadsClasses) {
  const auto cluster = ClusterConfig::three_class(2, 2, 2);
  // First three tasks land on three different speed classes.
  EXPECT_NE(cluster.machine_for_task(0).speed, cluster.machine_for_task(1).speed);
  EXPECT_NE(cluster.machine_for_task(1).speed, cluster.machine_for_task(2).speed);
}

// -- hardened decode (peek_field / validate_layout / from_payload) ----------

TEST(MessageHardened, PeekFieldTracksCursor) {
  Message msg(1);
  msg.pack_u32(7);
  msg.pack_string("abc");
  msg.pack_double_vector({1.0});

  EXPECT_EQ(msg.peek_field(), Field::U32);
  msg.unpack_u32();
  EXPECT_EQ(msg.peek_field(), Field::Str);
  msg.unpack_string();
  EXPECT_EQ(msg.peek_field(), Field::VecF64);
  msg.unpack_double_vector();
  EXPECT_EQ(msg.peek_field(), Field::None);
  EXPECT_TRUE(msg.fully_consumed());
}

TEST(MessageHardened, FromPayloadRoundTripsWireBytes) {
  Message msg(9);
  msg.pack_u64(42);
  msg.pack_bool(false);

  Message copy = Message::from_payload(msg.tag(), msg.bytes());
  ASSERT_TRUE(copy.validate_layout());
  EXPECT_EQ(copy.tag(), 9);
  EXPECT_EQ(copy.unpack_u64(), 42u);
  EXPECT_FALSE(copy.unpack_bool());
  EXPECT_TRUE(copy.fully_consumed());
}

TEST(MessageHardened, ValidateLayoutRejectsMalformedBytes) {
  // Unknown marker byte.
  EXPECT_FALSE(Message::from_payload(1, {0xff}).validate_layout());
  // Truncated scalar: U32 marker but only two payload bytes.
  EXPECT_FALSE(Message::from_payload(1, {1, 0xaa, 0xbb}).validate_layout());
  // String whose declared length runs past the buffer: Str marker (6),
  // u32 length = 100, no bytes behind it.
  EXPECT_FALSE(Message::from_payload(1, {6, 100, 0, 0, 0}).validate_layout());
  // Vector whose element count would overflow size arithmetic: VecF64 (8),
  // u32 count = 0xffffffff.
  EXPECT_FALSE(
      Message::from_payload(1, {8, 0xff, 0xff, 0xff, 0xff}).validate_layout());
  // A well-formed buffer passes and peek sees the first field.
  Message good(1);
  good.pack_string("x");
  Message adopted = Message::from_payload(1, good.bytes());
  EXPECT_TRUE(adopted.validate_layout());
  EXPECT_EQ(adopted.peek_field(), Field::Str);
}

// -- wire framing (frame.hpp) ------------------------------------------------

TEST(Frame, EncodeDecodeRoundTrip) {
  Message msg(17);
  msg.pack_u64(123);
  msg.pack_string("payload");

  FrameDecoder decoder;
  const auto bytes = encode_frame(msg);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + msg.byte_size());
  ASSERT_TRUE(decoder.feed(bytes.data(), bytes.size()));

  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tag(), 17);
  EXPECT_EQ(out->unpack_u64(), 123u);
  EXPECT_EQ(out->unpack_string(), "payload");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Frame, ByteAtATimeFeedReassembles) {
  // Partial reads at the harshest granularity: one byte per feed. The
  // decoder must never yield a frame early and must yield exactly one at
  // the end.
  Message msg(3);
  msg.pack_double(2.5);
  msg.pack_u32_vector({9, 8, 7});
  const auto bytes = encode_frame(msg);

  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_TRUE(decoder.feed(&bytes[i], 1));
    ASSERT_FALSE(decoder.next().has_value()) << "yielded early at byte " << i;
  }
  ASSERT_TRUE(decoder.feed(&bytes[bytes.size() - 1], 1));
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ(out->unpack_double(), 2.5);
  EXPECT_EQ(out->unpack_u32_vector(), (std::vector<std::uint32_t>{9, 8, 7}));
}

TEST(Frame, ManyFramesPerChunkAndSplitTail) {
  // Short-write shape: two full frames plus the front half of a third in
  // one feed, then the rest.
  std::vector<std::uint8_t> stream;
  for (int tag = 1; tag <= 3; ++tag) {
    Message msg(tag);
    msg.pack_i64(tag * 10);
    encode_frame(msg, stream);
  }
  const std::size_t split = stream.size() - 5;

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(stream.data(), split));
  auto first = decoder.next();
  auto second = decoder.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->tag(), 1);
  EXPECT_EQ(second->tag(), 2);
  EXPECT_FALSE(decoder.next().has_value());

  ASSERT_TRUE(decoder.feed(stream.data() + split, stream.size() - split));
  auto third = decoder.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->tag(), 3);
  EXPECT_EQ(third->unpack_i64(), 30);
}

TEST(Frame, SeededRandomSplitPointsDecodeIdentically) {
  // Adversarial reassembly: the same multi-frame byte stream, fed in chunks
  // cut at seeded-random split points, must decode to exactly the frames a
  // single whole-stream feed yields — regardless of where the cuts land.
  std::vector<std::uint8_t> stream;
  for (int tag = 1; tag <= 8; ++tag) {
    Message msg(tag);
    msg.pack_u64(static_cast<std::uint64_t>(tag) * 1000003u);
    msg.pack_string(std::string(static_cast<std::size_t>(tag * 7), 'x'));
    msg.pack_double_vector({1.5, -2.25, static_cast<double>(tag)});
    encode_frame(msg, stream);
  }

  const auto decode_all = [](FrameDecoder& decoder) {
    std::vector<std::pair<int, std::vector<std::uint8_t>>> frames;
    while (auto msg = decoder.next()) {
      frames.emplace_back(msg->tag(), msg->bytes());
    }
    EXPECT_FALSE(decoder.errored());
    return frames;
  };

  FrameDecoder reference_decoder;
  ASSERT_TRUE(reference_decoder.feed(stream.data(), stream.size()));
  const auto reference = decode_all(reference_decoder);
  ASSERT_EQ(reference.size(), 8u);

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FrameDecoder decoder;
    std::vector<std::pair<int, std::vector<std::uint8_t>>> frames;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      // Chunk sizes from 1 byte (harshest) up to ~a frame and a half.
      const std::size_t chunk = std::min<std::size_t>(
          1 + static_cast<std::size_t>(rng.below(64)), stream.size() - offset);
      ASSERT_TRUE(decoder.feed(stream.data() + offset, chunk));
      for (auto& frame : decode_all(decoder)) frames.push_back(std::move(frame));
      offset += chunk;
    }
    ASSERT_EQ(frames.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].first, reference[i].first) << "seed " << seed;
      EXPECT_EQ(frames[i].second, reference[i].second)
          << "seed " << seed << " frame " << i;
    }
  }
}

TEST(Frame, BadMagicIsStickyError) {
  std::vector<std::uint8_t> junk(kFrameHeaderBytes, 0xab);
  FrameDecoder decoder;
  decoder.feed(junk.data(), junk.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.errored());
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);

  // Sticky: even a valid frame afterwards is discarded.
  Message msg(1);
  msg.pack_u32(1);
  const auto good = encode_frame(msg);
  EXPECT_FALSE(decoder.feed(good.data(), good.size()));
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Frame, ZeroLengthPayloadRejected) {
  std::vector<std::uint8_t> header;
  const std::uint32_t magic = kFrameMagic;
  const std::int32_t tag = 5;
  const std::uint32_t length = 0;
  header.resize(kFrameHeaderBytes);
  std::memcpy(header.data(), &magic, 4);
  std::memcpy(header.data() + 4, &tag, 4);
  std::memcpy(header.data() + 8, &length, 4);

  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.errored());
  EXPECT_NE(decoder.error().find("zero-length"), std::string::npos);
}

TEST(Frame, OversizedPayloadRejectedWithoutBuffering) {
  // A hostile length field must be rejected from the header alone — the
  // decoder never waits for (or allocates) the declared payload.
  Message msg(2);
  msg.pack_string("0123456789");  // payload > 8-byte cap below
  const auto bytes = encode_frame(msg);

  FrameDecoder decoder(/*max_payload=*/8);
  decoder.feed(bytes.data(), kFrameHeaderBytes);  // header only
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.errored());
  EXPECT_NE(decoder.error().find("max_payload"), std::string::npos);
}

}  // namespace
}  // namespace pts::pvm

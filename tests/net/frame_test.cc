// Round-trip property tests for the wire codec: every verb's request and
// response encodings survive encode → decode for randomized inputs
// (arbitrary bytes, embedded NULs, empty and large payloads, every error
// code), and malformed frames are rejected rather than misparsed.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "joinopt/common/random.h"
#include "joinopt/net/frame.h"

namespace joinopt {
namespace {

/// Random byte string (may contain NULs and arbitrary bytes).
std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = static_cast<size_t>(rng.NextBounded(max_len + 1));
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(rng.NextBounded(256));
  }
  return s;
}

Status RandomError(Rng& rng) {
  // Codes 1..kAborted (0 is OK and never travels in an error slot).
  auto code = static_cast<StatusCode>(
      1 + rng.NextBounded(static_cast<uint64_t>(StatusCode::kAborted)));
  return Status(code, RandomBytes(rng, 64));
}

TEST(FrameHeaderTest, RoundTrip) {
  std::string buf;
  AppendFrameHeader(&buf, MsgType::kBatchReq, /*seq=*/0xDEADBEEF,
                    /*body_len=*/12345);
  ASSERT_EQ(buf.size(), kFrameHeaderBytes);
  auto h = ParseFrameHeader(buf, kDefaultMaxFrameBytes);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->version, kWireVersion);
  EXPECT_EQ(h->type, MsgType::kBatchReq);
  EXPECT_EQ(h->flags, 0);
  EXPECT_EQ(h->seq, 0xDEADBEEFu);
  EXPECT_EQ(h->body_len, 12345u);
}

TEST(FrameHeaderTest, RejectsBadMagicFlagsAndOversize) {
  std::string buf;
  AppendFrameHeader(&buf, MsgType::kFetchReq, 1, 100);

  std::string bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseFrameHeader(bad_magic, kDefaultMaxFrameBytes).ok());

  std::string bad_flags = buf;
  bad_flags[6] = 1;  // reserved flags must be zero
  EXPECT_FALSE(ParseFrameHeader(bad_flags, kDefaultMaxFrameBytes).ok());

  // body_len = 100 > max_frame_bytes = 50: the length field must be
  // distrusted before any allocation happens.
  auto oversized = ParseFrameHeader(buf, /*max_frame_bytes=*/50);
  ASSERT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsResourceExhausted());

  EXPECT_FALSE(ParseFrameHeader(buf.substr(0, 8), kDefaultMaxFrameBytes).ok());
}

TEST(FrameHeaderTest, BuildFrameEnforcesSenderSideBound) {
  std::string body(1024, 'x');
  auto ok = BuildFrame(MsgType::kBatchReq, 7, body, 4096);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), kFrameHeaderBytes + body.size());

  auto too_big = BuildFrame(MsgType::kBatchReq, 7, body, 1023);
  ASSERT_FALSE(too_big.ok());
  EXPECT_TRUE(too_big.status().IsResourceExhausted());
}

TEST(FrameCodecTest, KeyRequestRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    Key key = rng.Next();
    auto decoded = DecodeKeyRequest(EncodeKeyRequest(key));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, key);
  }
  EXPECT_FALSE(DecodeKeyRequest("short").ok());
  EXPECT_FALSE(DecodeKeyRequest(std::string(9, 'a')).ok());  // trailing
}

TEST(FrameCodecTest, ExecuteRequestRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    Key key = rng.Next();
    std::string params = RandomBytes(rng, 512);
    auto decoded = DecodeExecuteRequest(EncodeExecuteRequest(key, params));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->key, key);
    EXPECT_EQ(decoded->params, params);
  }
}

TEST(FrameCodecTest, BatchRequestRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<Key, std::string>> items;
    size_t n = rng.NextBounded(65);  // includes the empty batch
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back(rng.Next(), RandomBytes(rng, 128));
    }
    uint64_t client_id = rng.Next();
    uint64_t batch_seq = rng.Next();
    auto decoded = DecodeTaggedBatchRequest(
        EncodeTaggedBatchRequest(client_id, batch_seq, items));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->client_id, client_id);
    EXPECT_EQ(decoded->batch_seq, batch_seq);
    EXPECT_EQ(decoded->items, items);
  }
}

TEST(FrameCodecTest, BatchRequestRejectsLyingCount) {
  // A count field claiming more items than the frame could possibly hold
  // must fail parsing, not drive a giant reserve().
  std::string body;
  PutU64(&body, 1);  // client_id
  PutU64(&body, 2);  // batch_seq
  PutU32(&body, 0x40000000);
  PutU64(&body, 7);
  EXPECT_FALSE(DecodeTaggedBatchRequest(body).ok());
}

TEST(FrameCodecTest, FetchResponseRoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    DataService::Fetched fetched;
    fetched.value = RandomBytes(rng, 2048);
    fetched.version = rng.Next();
    auto decoded = DecodeFetchResponse(EncodeFetchResponse(fetched));
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->ok());
    EXPECT_EQ((*decoded)->value, fetched.value);
    EXPECT_EQ((*decoded)->version, fetched.version);
  }
  for (int i = 0; i < 50; ++i) {
    Status err = RandomError(rng);
    auto decoded = DecodeFetchResponse(EncodeFetchResponse(err));
    ASSERT_TRUE(decoded.ok());
    ASSERT_FALSE(decoded->ok());
    EXPECT_EQ(decoded->status(), err);
  }
}

TEST(FrameCodecTest, ExecuteResponseRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string value = RandomBytes(rng, 1024);
    auto decoded =
        DecodeExecuteResponse(EncodeExecuteResponse(StatusOr<std::string>(value)));
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->ok());
    EXPECT_EQ(**decoded, value);
  }
  for (int i = 0; i < 50; ++i) {
    Status err = RandomError(rng);
    auto decoded = DecodeExecuteResponse(
        EncodeExecuteResponse(StatusOr<std::string>(err)));
    ASSERT_TRUE(decoded.ok());
    ASSERT_FALSE(decoded->ok());
    EXPECT_EQ(decoded->status(), err);
  }
}

TEST(FrameCodecTest, BatchResponseRoundTripMixedResults) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<StatusOr<std::string>> results;
    size_t n = rng.NextBounded(33);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.3)) {
        results.emplace_back(RandomError(rng));
      } else {
        results.emplace_back(RandomBytes(rng, 256));
      }
    }
    auto decoded = DecodeBatchResponse(EncodeBatchResponse(results));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->size(), results.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ((*decoded)[i].ok(), results[i].ok());
      if (results[i].ok()) {
        EXPECT_EQ(*(*decoded)[i], *results[i]);
      } else {
        EXPECT_EQ((*decoded)[i].status(), results[i].status());
      }
    }
  }
}

TEST(FrameCodecTest, StatResponseRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    DataService::ItemStat stat;
    stat.size_bytes = rng.Uniform(0, 1e12);
    stat.version = rng.Next();
    auto decoded = DecodeStatResponse(EncodeStatResponse(stat));
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->ok());
    EXPECT_EQ((*decoded)->size_bytes, stat.size_bytes);
    EXPECT_EQ((*decoded)->version, stat.version);
  }
  Status err = Status::NotFound("missing");
  auto decoded = DecodeStatResponse(EncodeStatResponse(err));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status(), err);
}

TEST(FrameCodecTest, OwnerResponseRoundTrip) {
  for (NodeId node : {NodeId{0}, NodeId{42}, kInvalidNode}) {
    auto decoded = DecodeOwnerResponse(EncodeOwnerResponse(node));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, node);
  }
}

TEST(FrameCodecTest, TruncationNeverParses) {
  // Chopping any suffix off a valid body must yield a parse error — never
  // a bogus success and never a crash (the fuzz-shaped property).
  Rng rng(8);
  std::vector<std::pair<Key, std::string>> items;
  for (int i = 0; i < 5; ++i) {
    items.emplace_back(rng.Next(), RandomBytes(rng, 64));
  }
  std::string full = EncodeTaggedBatchRequest(1, 2, items);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(DecodeTaggedBatchRequest(full.substr(0, cut)).ok());
  }

  std::string resp = EncodeFetchResponse(
      StatusOr<DataService::Fetched>(DataService::Fetched{"value", 9}));
  for (size_t cut = 0; cut < resp.size(); ++cut) {
    EXPECT_FALSE(DecodeFetchResponse(resp.substr(0, cut)).ok());
  }
}

TEST(FrameCodecTest, ResponseTypeMapping) {
  EXPECT_EQ(ResponseTypeFor(MsgType::kFetchReq), MsgType::kFetchResp);
  EXPECT_EQ(ResponseTypeFor(MsgType::kExecuteReq), MsgType::kExecuteResp);
  EXPECT_EQ(ResponseTypeFor(MsgType::kBatchReq), MsgType::kBatchResp);
  EXPECT_EQ(ResponseTypeFor(MsgType::kStatReq), MsgType::kStatResp);
  EXPECT_EQ(ResponseTypeFor(MsgType::kOwnerReq), MsgType::kOwnerResp);
  EXPECT_EQ(ResponseTypeFor(MsgType::kFetchResp), static_cast<MsgType>(0));
  EXPECT_EQ(ResponseTypeFor(MsgType::kPutReq), MsgType::kPutResp);
  EXPECT_EQ(ResponseTypeFor(MsgType::kSubscribeReq), MsgType::kSubscribeResp);
  // One-way push: never answered.
  EXPECT_EQ(ResponseTypeFor(MsgType::kNotifyEvt), static_cast<MsgType>(0));
}

// ---- the version byte ------------------------------------------------------

TEST(FrameHeaderTest, BothSupportedVersionsParse) {
  // A server speaks only kWireVersion, but the header layout is frozen, so
  // the header layer parses a v1 peer's frame as well as a current one and
  // reports the version unchecked. Refusing the mismatch is the server's
  // job, in-band (RpcTransportTest.UnsupportedWireVersionRefusedInBand).
  for (uint8_t version : {uint8_t{1}, kWireVersion}) {
    std::string buf;
    AppendFrameHeader(&buf, MsgType::kFetchReq, /*seq=*/7, /*body_len=*/8);
    buf[4] = static_cast<char>(version);
    auto h = ParseFrameHeader(buf, kDefaultMaxFrameBytes);
    ASSERT_TRUE(h.ok()) << h.status();
    EXPECT_EQ(h->version, version);
    EXPECT_EQ(h->type, MsgType::kFetchReq);
    EXPECT_EQ(h->seq, 7u);
    EXPECT_EQ(h->body_len, 8u);
  }
}

/// The layout v2 kept from v1: a tagged batch is a 16-byte (client_id,
/// batch_seq) prefix in front of the v1 item list, and the verb bodies are
/// version-free — a body decodes identically whatever version byte its
/// header carries, which is what lets a server read a v1 request far enough
/// to answer it with an in-band refusal.
TEST(FrameCodecTest, V1BodiesAreV2CompatibleProperty) {
  Rng rng(0xC0117A7);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::pair<Key, std::string>> items;
    for (int j = 0; j < static_cast<int>(rng.NextBounded(6)); ++j) {
      items.emplace_back(rng.Next(), RandomBytes(rng, 64));
    }
    uint64_t client_id = rng.Next();
    uint64_t batch_seq = rng.Next();
    std::string tagged = EncodeTaggedBatchRequest(client_id, batch_seq, items);
    std::string tag;
    PutU64(&tag, client_id);
    PutU64(&tag, batch_seq);
    ASSERT_GE(tagged.size(), tag.size());
    EXPECT_EQ(tagged.substr(0, tag.size()), tag);
    EXPECT_EQ(tagged.substr(tag.size()),
              EncodeTaggedBatchRequest(0, 0, items).substr(tag.size()))
        << "the item list must not depend on the tag";
    auto decoded = DecodeTaggedBatchRequest(tagged);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->client_id, client_id);
    EXPECT_EQ(decoded->batch_seq, batch_seq);
    EXPECT_EQ(decoded->items, items);

    Key key = rng.Next();
    std::string body = EncodeKeyRequest(key);
    for (uint8_t version : {uint8_t{1}, kWireVersion}) {
      auto frame = BuildFrame(MsgType::kFetchReq, 1, body,
                              kDefaultMaxFrameBytes);
      ASSERT_TRUE(frame.ok());
      (*frame)[4] = static_cast<char>(version);
      auto h = ParseFrameHeader(frame->substr(0, kFrameHeaderBytes),
                                kDefaultMaxFrameBytes);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(h->version, version);
      auto k = DecodeKeyRequest(frame->substr(kFrameHeaderBytes));
      ASSERT_TRUE(k.ok());
      EXPECT_EQ(*k, key);
    }
  }
}

TEST(FrameCodecTest, PutRequestAndResponseRoundTrip) {
  Rng rng(77);
  for (int i = 0; i < 32; ++i) {
    Key key = rng.Next();
    std::string value = RandomBytes(rng, 2048);
    auto req = DecodePutRequest(EncodePutRequest(key, value));
    ASSERT_TRUE(req.ok()) << req.status();
    EXPECT_EQ(req->key, key);
    EXPECT_EQ(req->value, value);
    EXPECT_EQ(req->version_floor, 0u) << "default must be a primary write";

    uint64_t floor = rng.Next() | 1;  // non-zero: a replica write
    auto replica = DecodePutRequest(EncodePutRequest(key, value, floor));
    ASSERT_TRUE(replica.ok()) << replica.status();
    EXPECT_EQ(replica->key, key);
    EXPECT_EQ(replica->value, value);
    EXPECT_EQ(replica->version_floor, floor);

    uint64_t version = rng.Next();
    auto ok_resp = DecodePutResponse(EncodePutResponse(version));
    ASSERT_TRUE(ok_resp.ok()) << ok_resp.status();
    ASSERT_TRUE(ok_resp->ok());
    EXPECT_EQ(ok_resp->value(), version);

    Status err = RandomError(rng);
    auto err_resp = DecodePutResponse(EncodePutResponse(err));
    ASSERT_TRUE(err_resp.ok()) << err_resp.status();
    ASSERT_FALSE(err_resp->ok());
    EXPECT_EQ(err_resp->status().code(), err.code());
  }
}

TEST(FrameCodecTest, SubscribeAndNotifyRoundTrip) {
  Rng rng(78);
  auto sub = DecodeSubscribeRequest(EncodeSubscribeRequest(42));
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*sub, 42);

  std::vector<RegionEpoch> regions;
  for (int r = 0; r < 12; ++r) {
    regions.push_back(RegionEpoch{r, rng.Next(), rng.Next()});
  }
  auto snapshot = DecodeSubscribeResponse(EncodeSubscribeResponse(regions));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_EQ(snapshot->size(), regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ((*snapshot)[i].region, regions[i].region);
    EXPECT_EQ((*snapshot)[i].epoch, regions[i].epoch);
    EXPECT_EQ((*snapshot)[i].seq, regions[i].seq);
  }

  UpdateEvent event{3, rng.Next(), rng.Next(), rng.Next(), rng.Next()};
  auto decoded = DecodeNotifyEvent(EncodeNotifyEvent(event));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->region, event.region);
  EXPECT_EQ(decoded->epoch, event.epoch);
  EXPECT_EQ(decoded->seq, event.seq);
  EXPECT_EQ(decoded->key, event.key);
  EXPECT_EQ(decoded->version, event.version);
}

TEST(FrameCodecTest, V2TruncationNeverParses) {
  std::string put = EncodePutRequest(9, "value");
  for (size_t cut = 0; cut < put.size(); ++cut) {
    EXPECT_FALSE(DecodePutRequest(put.substr(0, cut)).ok());
  }
  std::string snapshot =
      EncodeSubscribeResponse({RegionEpoch{0, 1, 2}, RegionEpoch{1, 3, 4}});
  for (size_t cut = 0; cut < snapshot.size(); ++cut) {
    EXPECT_FALSE(DecodeSubscribeResponse(snapshot.substr(0, cut)).ok());
  }
  std::string evt = EncodeNotifyEvent(UpdateEvent{1, 2, 3, 4, 5});
  for (size_t cut = 0; cut < evt.size(); ++cut) {
    EXPECT_FALSE(DecodeNotifyEvent(evt.substr(0, cut)).ok());
  }
  // Trailing garbage is rejected too, not silently ignored.
  EXPECT_FALSE(DecodeNotifyEvent(evt + "x").ok());
}

}  // namespace
}  // namespace joinopt

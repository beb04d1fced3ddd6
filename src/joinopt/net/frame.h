// Wire protocol for the remote DataService: a length-prefixed, versioned
// binary framing layer plus request/response codecs for all five service
// verbs (Fetch, Execute, ExecuteBatch, Stat, OwnerOf).
//
// Every message is one frame:
//
//     offset  size  field      notes
//     0       4     magic      0x4A4F5054 ("JOPT", little-endian u32)
//     4       1     version    kWireVersion; receivers reject others
//     5       1     type       MsgType (request/response discriminator)
//     6       2     flags      reserved, must be 0; non-zero is rejected
//     8       4     seq        echoed verbatim in the response frame
//     12      4     body_len   bytes following the 16-byte header
//
// All integers are little-endian fixed-width; strings are u32
// length-prefixed byte sequences (arbitrary bytes, no terminator); doubles
// travel as their IEEE-754 bit pattern in a u64. Fallible responses carry a
// Result: a u8 tag (1 = ok, 0 = error), then either the payload or a
// serialized Status (u8 code + string message). `ExecuteBatch` is one
// request frame holding all items and one response frame holding all
// results — the single round trip that makes delegation batching a real win
// over TCP.
//
// Compatibility rule: the header layout (magic..body_len) is frozen; any
// change to a body encoding bumps kWireVersion, and a server speaks exactly
// one version. A request stamped with any other version gets an in-band
// FailedPrecondition error (OwnerOf: kInvalidNode), so a mismatched client
// reads an error instead of hanging, and the connection keeps serving.
// Subscribe has no error slot in its response: a mismatched Subscribe gets
// its connection closed.
//
// Version 2 carries the read verbs, the write path (Put), a
// Subscribe/Notify invalidation stream with per-region epoch/sequence
// numbers, the anti-entropy verbs, and an ExecuteBatch body tagged with
// (client_id, batch_seq) so servers can deduplicate replayed batches for
// exactly-once delegation.
//
// The codec layer is pure (no I/O); sockets live in net/socket.h. See
// DESIGN.md §10 for the protocol rationale and the errno → Status table.
#ifndef JOINOPT_NET_FRAME_H_
#define JOINOPT_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "joinopt/common/status.h"
#include "joinopt/engine/async_api.h"

namespace joinopt {

inline constexpr uint32_t kFrameMagic = 0x4A4F5054;  // "JOPT"
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Default bound on body_len; a peer announcing more is protocol-violating
/// and the connection is dropped (never trust a length field with memory).
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Frame discriminator. Requests are odd, their responses follow at +1.
enum class MsgType : uint8_t {
  kFetchReq = 1,
  kFetchResp = 2,
  kExecuteReq = 3,
  kExecuteResp = 4,
  kBatchReq = 5,
  kBatchResp = 6,
  kStatReq = 7,
  kStatResp = 8,
  kOwnerReq = 9,
  kOwnerResp = 10,
  // ---- v2 verbs (write path + invalidation stream) ----
  kPutReq = 11,
  kPutResp = 12,
  kSubscribeReq = 13,
  kSubscribeResp = 14,
  /// One-way server→client push after a Subscribe; never answered.
  kNotifyEvt = 15,
  // ---- v2 anti-entropy verbs (live replica repair, DESIGN.md §16) ----
  /// "What does your copy of region R look like?" — answered with an
  /// (epoch, seq, count, checksum) summary cheap enough to poll on a timer.
  kRegionSummaryReq = 17,
  kRegionSummaryResp = 18,
  /// Bidirectional region repair in one round trip: the requester pushes
  /// its live (key, version, value) records for the region, the responder
  /// merges them version-aware and answers with its own post-merge
  /// snapshot for the requester to merge back.
  kRegionSyncReq = 19,
  kRegionSyncResp = 20,
};

const char* MsgTypeToString(MsgType t);

/// Response type for a request type; 0 (invalid) for non-request input.
MsgType ResponseTypeFor(MsgType req);

/// Decoded frame header (magic already validated and stripped).
struct FrameHeader {
  uint8_t version = 0;
  MsgType type = static_cast<MsgType>(0);
  uint16_t flags = 0;
  uint32_t seq = 0;
  uint32_t body_len = 0;
};

/// Appends the 16-byte header (stamped kWireVersion) for a `body_len`-byte
/// body.
void AppendFrameHeader(std::string* out, MsgType type, uint32_t seq,
                       uint32_t body_len);

/// Parses and validates a 16-byte header (magic, flags, size bound). The
/// version is returned unchecked: the server refuses a mismatch in-band.
/// `buf` must hold exactly kFrameHeaderBytes.
StatusOr<FrameHeader> ParseFrameHeader(std::string_view buf,
                                       size_t max_frame_bytes);

/// Builds header + body in one buffer, enforcing the frame size bound on
/// the *sender* too (an oversized batch fails fast instead of being
/// rejected by the peer).
StatusOr<std::string> BuildFrame(MsgType type, uint32_t seq,
                                 std::string_view body,
                                 size_t max_frame_bytes);

// ---- primitive append/read helpers (exposed for tests) -------------------

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutF64(std::string* out, double v);
void PutString(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over one frame body. Every Get* fails
/// with InvalidArgument on truncation; Done() must be checked by decoders
/// so trailing garbage is rejected rather than ignored.
class WireReader {
 public:
  explicit WireReader(std::string_view buf) : buf_(buf) {}

  StatusOr<uint8_t> GetU8();
  StatusOr<uint16_t> GetU16();
  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  StatusOr<double> GetF64();
  StatusOr<std::string> GetString();

  bool Done() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::string_view buf_;
  size_t pos_ = 0;
};

// ---- request bodies ------------------------------------------------------

/// Fetch/Stat/Owner requests are a bare key.
std::string EncodeKeyRequest(Key key);
StatusOr<Key> DecodeKeyRequest(std::string_view body);

struct ExecuteRequest {
  Key key = 0;
  std::string params;
};
std::string EncodeExecuteRequest(Key key, std::string_view params);
StatusOr<ExecuteRequest> DecodeExecuteRequest(std::string_view body);

/// ExecuteBatch body: (client_id, batch_seq) prefix + a u32-counted list of
/// (key, params) items. A server remembers recently-served (client_id,
/// batch_seq) pairs and answers a replay from its response cache instead
/// of re-executing — the dedup half of exactly-once batch delegation (the
/// client half is reusing the same tag across retry attempts). client_id 0
/// opts out of dedup.
struct TaggedBatchRequest {
  uint64_t client_id = 0;
  uint64_t batch_seq = 0;
  std::vector<std::pair<Key, std::string>> items;
};
std::string EncodeTaggedBatchRequest(
    uint64_t client_id, uint64_t batch_seq,
    const std::vector<std::pair<Key, std::string>>& items);
StatusOr<TaggedBatchRequest> DecodeTaggedBatchRequest(std::string_view body);

/// Put request: key + value bytes + version floor. A floor of 0 is a
/// primary write (the store assigns the next version); a non-zero floor is
/// a replica write carrying the primary's assigned version, applied with
/// ApplyIfNewer semantics so every replica of one logical write converges
/// on the SAME version number. Without the floor each replica's store
/// counts independently and the numbering drifts after any skipped or
/// failed fan-out — after which version-aware merges compare apples to
/// oranges and "read at least the acked version" is unenforceable.
struct PutRequest {
  Key key = 0;
  std::string value;
  uint64_t version_floor = 0;
};
std::string EncodePutRequest(Key key, std::string_view value,
                             uint64_t version_floor = 0);
StatusOr<PutRequest> DecodePutRequest(std::string_view body);

/// Subscribe request: the subscriber's node id (u32, informational).
std::string EncodeSubscribeRequest(NodeId subscriber);
StatusOr<NodeId> DecodeSubscribeRequest(std::string_view body);

// ---- invalidation stream -------------------------------------------------

/// Per-region update-stream position. `epoch` bumps when the serving node
/// restarts (its volatile subscriber registrations died, so any sequence
/// comparison across the bump is meaningless); `seq` counts updates within
/// an epoch, starting at 0. A subscriber that sees seq jump by more than
/// one — or epoch change at all — knows invalidations were missed and must
/// re-sync that region.
struct RegionEpoch {
  int32_t region = 0;
  uint64_t epoch = 1;
  uint64_t seq = 0;
};

/// One invalidation event: "key is now at `version`; this is update `seq`
/// of `epoch` for `region`".
struct UpdateEvent {
  int32_t region = 0;
  uint64_t epoch = 1;
  uint64_t seq = 0;
  Key key = 0;
  uint64_t version = 0;
};

/// Subscribe response: the full per-region epoch/seq snapshot at the time
/// the subscription was registered (events from then on are streamed).
std::string EncodeSubscribeResponse(const std::vector<RegionEpoch>& regions);
StatusOr<std::vector<RegionEpoch>> DecodeSubscribeResponse(
    std::string_view body);

std::string EncodeNotifyEvent(const UpdateEvent& event);
StatusOr<UpdateEvent> DecodeNotifyEvent(std::string_view body);

// ---- response bodies -----------------------------------------------------

/// Serialized Status: u8 code + message string. Codes outside the enum
/// decode as kInternal (a newer peer's code must not crash an older one).
/// GetStatus returns the *parse* outcome; the decoded error lands in
/// `out` (StatusOr<Status> would be ill-formed).
void PutStatus(std::string* out, const Status& status);
Status GetStatus(WireReader& r, Status* out);

std::string EncodeFetchResponse(const StatusOr<DataService::Fetched>& result);
StatusOr<StatusOr<DataService::Fetched>> DecodeFetchResponse(
    std::string_view body);

std::string EncodeExecuteResponse(const StatusOr<std::string>& result);
StatusOr<StatusOr<std::string>> DecodeExecuteResponse(std::string_view body);

std::string EncodeBatchResponse(
    const std::vector<StatusOr<std::string>>& results);
StatusOr<std::vector<StatusOr<std::string>>> DecodeBatchResponse(
    std::string_view body);

std::string EncodeStatResponse(const StatusOr<DataService::ItemStat>& result);
StatusOr<StatusOr<DataService::ItemStat>> DecodeStatResponse(
    std::string_view body);

std::string EncodeOwnerResponse(NodeId node);
StatusOr<NodeId> DecodeOwnerResponse(std::string_view body);

/// Put response: the new store version on success.
std::string EncodePutResponse(const StatusOr<uint64_t>& new_version);
StatusOr<StatusOr<uint64_t>> DecodePutResponse(std::string_view body);

// ---- anti-entropy (live replica repair) ----------------------------------

/// Content summary of one node's copy of one region. `checksum` is an
/// order-independent digest over the live (key, value) pairs — equal
/// checksums mean equal contents (up to hash collision), regardless of
/// write order, so two replicas can compare copies in O(1) wire bytes.
/// Versions are deliberately excluded: replicas converge on *contents*;
/// per-key version counters may differ by history even when data agrees.
struct RegionSummary {
  int32_t region = 0;
  uint64_t epoch = 0;  ///< the region's current update-stream epoch
  uint64_t seq = 0;    ///< updates within that epoch
  uint64_t count = 0;  ///< live keys
  uint64_t checksum = 0;
};

/// One live record in a region sync exchange.
struct RegionRecord {
  Key key = 0;
  uint64_t version = 0;
  std::string value;
};

std::string EncodeRegionSummaryRequest(int32_t region);
StatusOr<int32_t> DecodeRegionSummaryRequest(std::string_view body);

std::string EncodeRegionSummaryResponse(const StatusOr<RegionSummary>& result);
StatusOr<StatusOr<RegionSummary>> DecodeRegionSummaryResponse(
    std::string_view body);

struct RegionSyncRequest {
  int32_t region = 0;
  std::vector<RegionRecord> records;
};
std::string EncodeRegionSyncRequest(int32_t region,
                                    const std::vector<RegionRecord>& records);
StatusOr<RegionSyncRequest> DecodeRegionSyncRequest(std::string_view body);

std::string EncodeRegionSyncResponse(
    const StatusOr<std::vector<RegionRecord>>& result);
StatusOr<StatusOr<std::vector<RegionRecord>>> DecodeRegionSyncResponse(
    std::string_view body);

}  // namespace joinopt

#endif  // JOINOPT_NET_FRAME_H_

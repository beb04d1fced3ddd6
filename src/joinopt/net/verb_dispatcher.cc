#include "joinopt/net/verb_dispatcher.h"

#include <utility>

namespace joinopt {

VerbDispatcher::VerbDispatcher(DataService* inner, UserFn fn,
                               size_t dedup_capacity, RpcAtomicStats* stats)
    : inner_(inner),
      writable_(dynamic_cast<WritableDataService*>(inner)),
      fn_(std::move(fn)),
      dedup_capacity_(dedup_capacity),
      stats_(stats) {}

std::pair<MsgType, std::string> VerbDispatcher::Dispatch(
    const FrameHeader& header, const std::string& body) {
  MsgType resp_type = ResponseTypeFor(header.type);
  if (resp_type == static_cast<MsgType>(0)) return {resp_type, ""};

  // Version mismatch: answer in-band so an old/new client reads an error
  // instead of hanging, then the connection is still usable (the *frame*
  // layout is frozen across versions; only body encodings move).
  if (header.version != kWireVersion) {
    ++stats_->protocol_errors;
    Status mismatch = Status::FailedPrecondition(
        "wire version mismatch: server=" + std::to_string(kWireVersion) +
        " client=" + std::to_string(header.version));
    switch (header.type) {
      case MsgType::kFetchReq:
        return {resp_type, EncodeFetchResponse(mismatch)};
      case MsgType::kExecuteReq:
        return {resp_type, EncodeExecuteResponse(mismatch)};
      case MsgType::kBatchReq:
        return {resp_type, EncodeBatchResponse({mismatch})};
      case MsgType::kStatReq:
        return {resp_type, EncodeStatResponse(mismatch)};
      case MsgType::kPutReq:
        return {resp_type, EncodePutResponse(mismatch)};
      case MsgType::kRegionSummaryReq:
        return {resp_type, EncodeRegionSummaryResponse(mismatch)};
      case MsgType::kRegionSyncReq:
        return {resp_type, EncodeRegionSyncResponse(mismatch)};
      case MsgType::kOwnerReq:
      default:
        return {resp_type, EncodeOwnerResponse(kInvalidNode)};
    }
  }

  ++stats_->requests;
  switch (header.type) {
    case MsgType::kFetchReq: {
      auto key = DecodeKeyRequest(body);
      if (!key.ok()) return {resp_type, EncodeFetchResponse(key.status())};
      return {resp_type, EncodeFetchResponse(inner_->Fetch(*key))};
    }
    case MsgType::kExecuteReq: {
      auto req = DecodeExecuteRequest(body);
      if (!req.ok()) {
        return {resp_type, EncodeExecuteResponse(req.status())};
      }
      return {resp_type, EncodeExecuteResponse(
                             inner_->Execute(req->key, req->params, fn_))};
    }
    case MsgType::kBatchReq: {
      auto req = DecodeTaggedBatchRequest(body);
      if (!req.ok()) {
        return {resp_type, EncodeBatchResponse({req.status()})};
      }
      stats_->batch_items += static_cast<int64_t>(req->items.size());
      return {resp_type, DispatchTaggedBatch(*req)};
    }
    case MsgType::kStatReq: {
      auto key = DecodeKeyRequest(body);
      if (!key.ok()) return {resp_type, EncodeStatResponse(key.status())};
      return {resp_type, EncodeStatResponse(inner_->Stat(*key))};
    }
    case MsgType::kOwnerReq: {
      auto key = DecodeKeyRequest(body);
      if (!key.ok()) return {resp_type, EncodeOwnerResponse(kInvalidNode)};
      return {resp_type, EncodeOwnerResponse(inner_->OwnerOf(*key))};
    }
    case MsgType::kPutReq: {
      if (writable_ == nullptr) {
        return {resp_type,
                EncodePutResponse(Status::Unimplemented(
                    "rpc: service does not accept writes"))};
      }
      auto req = DecodePutRequest(body);
      if (!req.ok()) return {resp_type, EncodePutResponse(req.status())};
      ++stats_->puts;
      // A non-zero floor marks a replica write: apply at the primary's
      // version instead of assigning a fresh one, so all replicas of one
      // logical write agree on its number.
      if (req->version_floor != 0) {
        return {resp_type, EncodePutResponse(writable_->PutReplica(
                               req->key, req->value, req->version_floor))};
      }
      return {resp_type,
              EncodePutResponse(writable_->Put(req->key, req->value))};
    }
    case MsgType::kRegionSummaryReq: {
      if (writable_ == nullptr) {
        return {resp_type, EncodeRegionSummaryResponse(Status::Unimplemented(
                               "rpc: service has no region state"))};
      }
      auto region = DecodeRegionSummaryRequest(body);
      if (!region.ok()) {
        return {resp_type, EncodeRegionSummaryResponse(region.status())};
      }
      return {resp_type, EncodeRegionSummaryResponse(
                             writable_->SummarizeRegion(*region))};
    }
    case MsgType::kRegionSyncReq: {
      if (writable_ == nullptr) {
        return {resp_type, EncodeRegionSyncResponse(Status::Unimplemented(
                               "rpc: service has no region state"))};
      }
      auto req = DecodeRegionSyncRequest(body);
      if (!req.ok()) {
        return {resp_type, EncodeRegionSyncResponse(req.status())};
      }
      return {resp_type, EncodeRegionSyncResponse(
                             writable_->SyncRegion(req->region,
                                                   req->records))};
    }
    default:
      return {static_cast<MsgType>(0), ""};
  }
}

std::string VerbDispatcher::DispatchTaggedBatch(const TaggedBatchRequest& req) {
  // client_id 0 opts out of dedup (one-shot clients that never retry).
  if (req.client_id == 0 || dedup_capacity_ == 0) {
    return EncodeBatchResponse(inner_->ExecuteBatch(req.items, fn_));
  }
  const std::pair<uint64_t, uint64_t> tag{req.client_id, req.batch_seq};
  std::shared_ptr<DedupEntry> entry;
  {
    MutexLock lock(dedup_mu_);
    auto it = dedup_entries_.find(tag);
    if (it != dedup_entries_.end()) {
      // Replay. If the original is still executing (a retry raced it on
      // another connection), wait for its result rather than executing the
      // side effects twice — that wait is what makes the batch
      // exactly-once even under concurrent duplicates.
      entry = it->second;
      while (!entry->done) dedup_cv_.Wait(dedup_mu_);
      ++stats_->batch_dedup_hits;
      return entry->response;
    }
    entry = std::make_shared<DedupEntry>();
    dedup_entries_.emplace(tag, entry);
    dedup_order_.push_back(tag);
  }

  std::string response = EncodeBatchResponse(inner_->ExecuteBatch(req.items,
                                                                  fn_));
  {
    MutexLock lock(dedup_mu_);
    entry->done = true;
    entry->response = response;
    // Evict oldest *completed* entries beyond capacity; an in-flight entry
    // must survive so its racing duplicate can still find it.
    while (dedup_order_.size() > dedup_capacity_) {
      auto oldest = dedup_entries_.find(dedup_order_.front());
      if (oldest != dedup_entries_.end() && !oldest->second->done) break;
      if (oldest != dedup_entries_.end()) dedup_entries_.erase(oldest);
      dedup_order_.pop_front();
    }
  }
  dedup_cv_.NotifyAll();
  return response;
}

}  // namespace joinopt

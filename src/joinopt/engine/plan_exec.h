// Plan-execution building blocks of the Section 7 executor
// (ParallelInvoker). Each request runs one optimizer plan — local compute
// on a cached payload, data request (fetch + cache + compute), or compute
// request (delegate) — with the executor's locks released around service
// calls, so the pieces are factored as small lock-free helpers: request
// identity, timed UDF execution, delegation + piggybacked cost learning,
// and the bounded result map that backs submitComp/fetchComp.
#ifndef JOINOPT_ENGINE_PLAN_EXEC_H_
#define JOINOPT_ENGINE_PLAN_EXEC_H_

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "joinopt/common/hash.h"
#include "joinopt/engine/async_api_fwd.h"
#include "joinopt/skirental/decision_engine.h"

namespace joinopt {

/// Real wall-clock seconds (monotonic) for cost measurements.
inline double PlanNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Identity of one (key, params) request in the result hash-map.
inline uint64_t PlanRequestId(Key key, const std::string& params) {
  return Mix64(key) ^ Fnv1a(params);
}

/// A UDF execution together with its measured wall time (the tCompute
/// sample fed back to the cost model).
struct TimedResult {
  std::string value;
  double elapsed = 0.0;
};

inline TimedResult TimedCompute(const UserFn& fn, Key key,
                                const std::string& params,
                                const std::string& value) {
  double t0 = PlanNowSeconds();
  std::string out = fn(key, params, value);
  return TimedResult{std::move(out), PlanNowSeconds() - t0};
}

/// The cost report a delegation "piggybacks" (Section 4.3): here the
/// end-to-end wall time stands in for the data node's reported CPU time;
/// disk time is negligible for the in-process services.
inline DataNodeCostReport DelegationCostReport(double elapsed) {
  DataNodeCostReport report;
  report.t_cpu = elapsed;
  report.t_cpu_service = elapsed;
  report.t_disk = 1e-6;
  report.t_disk_service = 1e-6;
  return report;
}

/// Feeds one delegation's piggybacked statistics into the engine. Callers
/// run the service call unlocked and apply the learning under whatever
/// lock guards `engine`.
inline void ApplyDelegationLearning(DecisionEngine& engine, Key key,
                                    NodeId owner, double elapsed,
                                    double stored_value_bytes,
                                    uint64_t version) {
  engine.OnComputeResponse(key, owner, stored_value_bytes, version,
                           DelegationCostReport(elapsed));
}

/// Result hash-map of Figure 4 with an unclaimed-entry bound: a submitComp
/// whose result is never claimed by fetchComp must not leak its FIFO slot
/// forever. Entries carry the submit sequence number; when the map exceeds
/// `max_unclaimed` entries, everything older than the most recent
/// max_unclaimed/2 submissions is dropped (an age sweep, amortized O(1)
/// per push). 0 = unbounded. Not thread-safe; callers lock.
///
/// A request id's oldest result is stored in its map node; only further
/// results for the same id (duplicate submissions) spill into a per-id
/// queue. A result thus costs one node, not a node plus a std::deque's
/// map and 512-byte block.
class BoundedResultMap {
 public:
  explicit BoundedResultMap(size_t max_unclaimed)
      : max_(max_unclaimed) {}

  void Push(uint64_t request_id, std::string value) {
    Entry entry{std::move(value), seq_++};
    auto [it, inserted] = entries_.try_emplace(request_id);
    if (inserted) {
      it->second.head = std::move(entry);
    } else {
      if (!it->second.spill) {
        it->second.spill = std::make_unique<std::deque<Entry>>();
      }
      it->second.spill->push_back(std::move(entry));
    }
    ++size_;
    if (max_ > 0 && size_ > max_) Sweep();
  }

  /// Claims the oldest unclaimed result for `request_id` (FIFO per id).
  std::optional<std::string> Claim(uint64_t request_id) {
    auto it = entries_.find(request_id);
    if (it == entries_.end()) return std::nullopt;
    std::string out = std::move(it->second.head.value);
    if (!PopHead(it->second)) entries_.erase(it);
    --size_;
    return out;
  }

  size_t size() const { return size_; }
  int64_t dropped() const { return dropped_; }

 private:
  struct Entry {
    std::string value;
    int64_t seq = 0;
  };

  /// One request id's unclaimed results, oldest first.
  struct Slot {
    Entry head;
    std::unique_ptr<std::deque<Entry>> spill;  ///< null until a duplicate
  };

  /// Drops the slot's head, promoting the next spilled result; false when
  /// the slot is now empty.
  static bool PopHead(Slot& slot) {
    if (!slot.spill || slot.spill->empty()) return false;
    slot.head = std::move(slot.spill->front());
    slot.spill->pop_front();
    return true;
  }

  void Sweep() {
    int64_t cutoff = seq_ - static_cast<int64_t>(max_ / 2 + 1);
    for (auto it = entries_.begin(); it != entries_.end();) {
      bool live = true;
      while (live && it->second.head.seq < cutoff) {
        live = PopHead(it->second);
        --size_;
        ++dropped_;
      }
      it = live ? std::next(it) : entries_.erase(it);
    }
  }

  std::unordered_map<uint64_t, Slot> entries_;
  size_t max_;
  size_t size_ = 0;
  int64_t seq_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace joinopt

#endif  // JOINOPT_ENGINE_PLAN_EXEC_H_

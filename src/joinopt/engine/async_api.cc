#include "joinopt/engine/async_api.h"

#include <string>

namespace joinopt {

StatusOr<DataService::Fetched> LocalDataService::Fetch(Key key) {
  ++fetches_;
  auto item = store_->Get(key);
  if (!item.ok()) return item.status();
  return Fetched{item->payload, item->version};
}

StatusOr<std::string> LocalDataService::Execute(Key key,
                                                const std::string& params,
                                                const UserFn& fn) {
  ++executes_;
  const StoredItem* item = store_->Find(key);
  if (item == nullptr) {
    return Status::NotFound("key " + std::to_string(key));
  }
  return fn(key, params, item->payload);
}

StatusOr<DataService::ItemStat> LocalDataService::Stat(Key key) const {
  ++stats_;
  const StoredItem* item = store_->Find(key);
  if (item == nullptr) {
    return Status::NotFound("key " + std::to_string(key));
  }
  return ItemStat{item->size_bytes, item->version};
}

}  // namespace joinopt

// Figure 10 of the paper, as real code: entity annotation written against
// the preMap/map API (submitComp / fetchComp), running in-process over real
// string payloads — no simulator involved. A one-worker, one-shard
// ParallelInvoker routes each spot through the live ski-rental optimizer:
// hot tokens' models end up cached and classified locally; rare tokens are
// delegated to the store.
//
//   $ ./build/examples/premap_api
#include <cstdio>
#include <string>
#include <vector>

#include "joinopt/common/random.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/parallel_invoker.h"

using namespace joinopt;

namespace {

struct Spot {
  Key token;
  std::string context;
};

struct Document {
  std::vector<Spot> spots;
};

// f(key, params) of Figure 10: classifyRecord(params, model).
std::string ClassifyRecord(Key token, const std::string& context,
                           const std::string& model) {
  // A toy classifier: pick the "entity" whose tag appears in the model
  // blob; fall back to the token id.
  size_t at = model.find(context.substr(0, 2));
  return "entity<" + std::to_string(token) + ":" +
         (at == std::string::npos ? "unknown" : std::to_string(at)) + ">";
}

}  // namespace

int main() {
  // The model store: 2000 token models with real payloads.
  ParallelStore store(ParallelStoreConfig{}, /*data nodes=*/{10, 11, 12},
                      /*compute nodes=*/{0});
  Rng rng(7);
  for (Key token = 0; token < 2000; ++token) {
    StoredItem item;
    item.payload.resize(256 + rng.NextBounded(2048));
    for (auto& c : item.payload) {
      c = static_cast<char>('a' + rng.NextBounded(26));
    }
    item.size_bytes = static_cast<double>(item.payload.size());
    store.Put(token, item);
  }
  LocalDataService service(&store);
  ParallelInvokerOptions options;
  options.num_threads = 1;
  options.num_shards = 1;
  ParallelInvoker invoker(&service, ClassifyRecord, options);

  // A document stream with Zipf-distributed token mentions.
  ZipfDistribution zipf(2000, 1.2);
  std::vector<Document> documents(500);
  for (auto& doc : documents) {
    int spots = 1 + static_cast<int>(rng.NextBounded(8));
    for (int s = 0; s < spots; ++s) {
      doc.spots.push_back(Spot{zipf.Sample(rng), "ctx-of-the-mention"});
    }
  }

  // preMap(docId, document): submit prefetches, then queue the document.
  // map(docId, document): fetch the computed annotations.
  int64_t annotated = 0;
  for (const Document& doc : documents) {
    for (const Spot& spot : doc.spots) {            // preMap
      invoker.SubmitComp(spot.token, spot.context);
    }
    for (const Spot& spot : doc.spots) {            // map
      auto annotation = invoker.FetchComp(spot.token, spot.context);
      if (annotation.ok()) ++annotated;
    }
  }

  ParallelInvokerStats s = invoker.stats();
  std::printf("annotated %lld spots across %zu documents\n",
              static_cast<long long>(annotated), documents.size());
  std::printf("  served from local cache : %lld\n",
              static_cast<long long>(s.served_from_cache));
  std::printf("  fetched then computed   : %lld (models bought by "
              "ski-rental)\n",
              static_cast<long long>(s.fetched_then_computed));
  std::printf("  delegated to the store  : %lld (rare tokens)\n",
              static_cast<long long>(s.delegated));
  std::printf("  store-side executions   : %lld\n",
              static_cast<long long>(service.executes()));
  return 0;
}

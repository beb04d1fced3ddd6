// Tests for the multi-threaded preMap/map executor and its building
// blocks: the bounded MPMC work queue, the bounded result map, plan
// correctness on one worker, and the concurrency behaviours (single-flight
// fetches, held first-requests, backpressure, update races) under several.
#include "joinopt/engine/parallel_invoker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "joinopt/common/random.h"
#include "joinopt/engine/bounded_queue.h"
#include "joinopt/engine/latency_service.h"
#include "joinopt/engine/plan_exec.h"

namespace joinopt {
namespace {

struct ApiRig {
  std::unique_ptr<ParallelStore> store;
  std::unique_ptr<LocalDataService> service;

  ApiRig() {
    store = std::make_unique<ParallelStore>(ParallelStoreConfig{},
                                            std::vector<NodeId>{10, 11},
                                            std::vector<NodeId>{0});
    service = std::make_unique<LocalDataService>(store.get());
  }

  void Put(Key k, std::string payload) {
    StoredItem item;
    item.payload = std::move(payload);
    item.size_bytes = static_cast<double>(item.payload.size());
    store->Put(k, item);
  }
};

UserFn Concat() {
  return [](Key key, const std::string& params, const std::string& value) {
    return std::to_string(key) + ":" + params + ":" + value;
  };
}

/// Spins ~`seconds` of wall time so measured tCompute dominates modeled
/// tFetch and ski-rental buys hot keys deterministically.
UserFn SpinningConcat(double seconds = 200e-6) {
  return [seconds](Key key, const std::string& params,
                   const std::string& value) {
    auto start = std::chrono::steady_clock::now();
    volatile uint64_t sink = 0;
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds) {
      sink = sink + 1;
    }
    (void)sink;
    return std::to_string(key) + ":" + params + ":" +
           value.substr(0, std::min<size_t>(value.size(), 8));
  };
}

ParallelInvokerOptions FastBuyOptions(int threads) {
  ParallelInvokerOptions opt;
  opt.num_threads = threads;
  // High modeled bandwidth keeps tFetch below measured tCompute, so buying
  // wins as soon as a key repeats.
  opt.bandwidth_bytes_per_sec = 1e9;
  return opt;
}

TEST(BoundedQueueTest, FifoAndCloseSemantics) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(*q.TryPop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
  EXPECT_TRUE(q.Push(3));
  q.Close();
  EXPECT_FALSE(q.Push(4));          // rejected after close...
  EXPECT_EQ(*q.Pop(), 3);           // ...but pending items still drain
  EXPECT_FALSE(q.Pop().has_value());  // closed and drained
}

TEST(BoundedQueueTest, FullQueueBlocksProducerUntilPop) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // blocks until the consumer pops
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(second_pushed.load());  // backpressure held it
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(BoundedResultMapTest, FifoPerRequestId) {
  BoundedResultMap map(0);  // unbounded
  map.Push(7, "a");
  map.Push(7, "b");
  map.Push(9, "c");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.Claim(7), "a");
  EXPECT_EQ(*map.Claim(7), "b");
  EXPECT_FALSE(map.Claim(7).has_value());
  EXPECT_EQ(*map.Claim(9), "c");
  EXPECT_EQ(map.size(), 0u);
}

TEST(BoundedResultMapTest, DropsOldestWhenOverBound) {
  BoundedResultMap map(8);
  for (uint64_t id = 0; id < 40; ++id) {
    map.Push(id, "v" + std::to_string(id));
  }
  EXPECT_LE(map.size(), 8u);
  EXPECT_GE(map.dropped(), 32);
  EXPECT_FALSE(map.Claim(0).has_value());   // oldest swept
  EXPECT_EQ(*map.Claim(39), "v39");         // newest survives
}

TEST(BoundedResultMapTest, DuplicateIdsKeepFifoAcrossSweep) {
  // Id 7's first result sits in its map node, the later two spill; the
  // age sweep must drop only the too-old head and promote the spill.
  BoundedResultMap map(8);
  map.Push(7, "a");  // seq 0
  for (uint64_t id = 1; id <= 5; ++id) map.Push(id, "x");  // seq 1..5
  map.Push(7, "b");  // seq 6
  map.Push(7, "c");  // seq 7
  map.Push(6, "y");  // seq 8: 9 entries > 8, sweep drops seq < 4
  EXPECT_EQ(map.dropped(), 4);
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(*map.Claim(7), "b");
  EXPECT_EQ(*map.Claim(7), "c");
  EXPECT_FALSE(map.Claim(7).has_value());
  EXPECT_FALSE(map.Claim(1).has_value());
  EXPECT_EQ(*map.Claim(4), "x");
  EXPECT_EQ(map.size(), 2u);
}

TEST(ParallelInvokerTest, FetchCompComputesCorrectValue) {
  ApiRig rig;
  rig.Put(7, "seven");
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(1));
  auto r = invoker.FetchComp(7, "ctx");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "7:ctx:seven");
}

TEST(ParallelInvokerTest, SubmitThenFetchUsesPrefetchedResult) {
  ApiRig rig;
  rig.Put(7, "seven");
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(2));
  invoker.SubmitComp(7, "a");
  invoker.SubmitComp(7, "b");
  auto ra = invoker.FetchComp(7, "a");
  auto rb = invoker.FetchComp(7, "b");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, "7:a:seven");
  EXPECT_EQ(*rb, "7:b:seven");
  EXPECT_EQ(invoker.stats().submitted, 2);
}

TEST(ParallelInvokerTest, DuplicateSubmissionsEachComputeOnce) {
  ApiRig rig;
  rig.Put(3, "v");
  std::atomic<int> calls{0};
  UserFn counting = [&calls](Key, const std::string& p, const std::string&) {
    return p + "#" + std::to_string(calls.fetch_add(1) + 1);
  };
  ParallelInvoker invoker(rig.service.get(), counting, FastBuyOptions(2));
  invoker.SubmitComp(3, "x");
  invoker.SubmitComp(3, "x");
  auto r1 = invoker.FetchComp(3, "x");
  auto r2 = invoker.FetchComp(3, "x");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Completion order across workers is scheduling-dependent; each
  // submission must still run the UDF exactly once.
  std::set<std::string> got{*r1, *r2};
  EXPECT_EQ(got, (std::set<std::string>{"x#1", "x#2"}));
  EXPECT_EQ(calls.load(), 2);
  // Third fetch without a submission: computed on demand.
  auto r3 = invoker.FetchComp(3, "x");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, "x#3");
}

TEST(ParallelInvokerTest, HotKeyGetsCachedAndServedLocally) {
  ApiRig rig;
  rig.Put(5, std::string(1 << 16, 'm'));
  ParallelInvoker invoker(rig.service.get(), SpinningConcat(),
                          FastBuyOptions(1));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(invoker.FetchComp(5, "p").ok());
  }
  ParallelInvokerStats s = invoker.stats();
  EXPECT_GT(s.served_from_cache, 30);
  EXPECT_LE(s.fetched_then_computed, 2);
  EXPECT_LT(rig.service->executes(), 20);
  DecisionEngineStats engine = invoker.MergedEngineStats();
  EXPECT_GT(engine.local_memory_hits, 30);
  TieredCacheStats cache = invoker.MergedCacheStats();
  EXPECT_GT(cache.memory_hits, 30);
}

TEST(ParallelInvokerTest, ColdKeysStayDelegated) {
  // The deterministic single-threaded executor: one worker, one shard,
  // FetchComp only — every plan runs inline on this thread.
  ApiRig rig;
  for (Key k = 0; k < 100; ++k) rig.Put(k, "v" + std::to_string(k));
  ParallelInvokerOptions opt = FastBuyOptions(1);
  opt.num_shards = 1;
  ParallelInvoker invoker(rig.service.get(), Concat(), opt);
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(invoker.FetchComp(k, "p").ok());
  }
  // One access each: everything delegated (first-request rule), nothing
  // bought.
  EXPECT_EQ(invoker.stats().delegated, 100);
  EXPECT_EQ(invoker.stats().served_from_cache, 0);
}

TEST(ParallelInvokerTest, ExpectedKeysHintPreservesBehavior) {
  // The expected_keys hint only pre-reserves per-shard tables; routing and
  // caching behaviour must be identical to the unhinted run.
  ApiRig rig;
  rig.Put(5, std::string(1 << 16, 'm'));
  ParallelInvokerOptions opt = FastBuyOptions(1);
  opt.decision.expected_keys = 100000;  // divided across shards internally
  opt.decision.cache.expected_items = 100000;
  ParallelInvoker invoker(rig.service.get(), SpinningConcat(), opt);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(invoker.FetchComp(5, "p").ok());
  }
  ParallelInvokerStats s = invoker.stats();
  EXPECT_GT(s.served_from_cache, 30);
  DecisionEngineStats engine = invoker.MergedEngineStats();
  EXPECT_GT(engine.local_memory_hits, 30);
}

TEST(ParallelInvokerTest, MissingKeySurfacesNotFound) {
  ApiRig rig;
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(2));
  EXPECT_TRUE(invoker.FetchComp(404, "p").status().IsNotFound());
  invoker.SubmitComp(404, "p");  // prefetch fails, leaves no result...
  EXPECT_TRUE(invoker.FetchComp(404, "p").status().IsNotFound());  // ...so
  // the on-demand retry re-surfaces the error.
}

TEST(ParallelInvokerTest, UpdateInvalidatesCachedPayload) {
  ApiRig rig;
  rig.Put(5, "old-data");
  ParallelInvoker invoker(rig.service.get(), SpinningConcat(),
                          FastBuyOptions(2));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(invoker.FetchComp(5, "p").ok());
  }
  ASSERT_GT(invoker.stats().served_from_cache, 0);
  invoker.Barrier();
  auto update = rig.store->Update(5, [](StoredItem& item) {
    item.payload = "new-data";
    item.size_bytes = 8;
  });
  ASSERT_TRUE(update.ok());
  invoker.OnUpdate(5, update->new_version);
  auto r = invoker.FetchComp(5, "p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "5:p:new-data");  // never serves the stale payload
}

TEST(ParallelInvokerTest, DuplicateUpdateKeepsTheFreshPayload) {
  // Every replica notifies each write, so the same version arrives twice;
  // by the second notice the new value may already be cached again. It
  // must stay servable, not fall back to a compute request per access.
  ApiRig rig;
  rig.Put(5, "old");
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(1));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(invoker.FetchComp(5, "p").ok());
  auto update = rig.store->Update(5, [](StoredItem& item) {
    item.payload = "new";
    item.size_bytes = 3;
  });
  ASSERT_TRUE(update.ok());
  invoker.OnUpdate(5, update->new_version);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(invoker.FetchComp(5, "p").ok());
  invoker.OnUpdate(5, update->new_version);  // the second replica's notice
  const int64_t hits = invoker.stats().served_from_cache;
  const int64_t executes = rig.service->executes();
  for (int i = 0; i < 10; ++i) {
    auto r = invoker.FetchComp(5, "p");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "5:p:new");
  }
  EXPECT_EQ(invoker.stats().served_from_cache - hits, 10);
  EXPECT_EQ(rig.service->executes(), executes);
}

TEST(ParallelInvokerTest, InFlightFetchesCoalesce) {
  ApiRig rig;
  rig.Put(5, std::string(4096, 'm'));
  ServiceLatencyModel latency;
  latency.fetch_rtt = 5e-3;  // a wide window for duplicates to pile into
  latency.execute_rtt = 2e-3;
  LatencyPaddedService service(rig.service.get(), latency);
  ParallelInvoker invoker(&service, Concat(), FastBuyOptions(4));
  // Prime the key's cost parameters (first-request rule) so the next
  // access buys.
  ASSERT_TRUE(invoker.FetchComp(5, "prime").ok());
  for (int i = 0; i < 8; ++i) {
    invoker.SubmitComp(5, "p" + std::to_string(i));
  }
  invoker.Barrier();
  for (int i = 0; i < 8; ++i) {
    auto r = invoker.FetchComp(5, "p" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rfind("5:p", 0), 0u);
  }
  // Single flight: the 8 concurrent buys shared one data request.
  EXPECT_EQ(rig.service->fetches(), 1);
  EXPECT_GE(invoker.stats().coalesced_fetches, 1);
}

TEST(ParallelInvokerTest, BlindFirstRequestsAreHeld) {
  ApiRig rig;
  rig.Put(9, std::string(4096, 'm'));
  ServiceLatencyModel latency;
  latency.fetch_rtt = 1e-3;
  latency.execute_rtt = 2e-3;
  LatencyPaddedService service(rig.service.get(), latency);
  ParallelInvoker invoker(&service, Concat(), FastBuyOptions(4));
  for (int i = 0; i < 8; ++i) {
    invoker.SubmitComp(9, "p" + std::to_string(i));
  }
  invoker.Barrier();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(invoker.FetchComp(9, "p" + std::to_string(i)).ok());
  }
  // Exactly one blind compute request went out; everyone else held until
  // its piggybacked costs arrived, then bought via one shared fetch.
  EXPECT_EQ(rig.service->executes(), 1);
  EXPECT_EQ(rig.service->fetches(), 1);
  EXPECT_GE(invoker.stats().held_first_requests, 1);
}

TEST(ParallelInvokerTest, BackpressureKeepsTinyQueueCorrect) {
  ApiRig rig;
  for (Key k = 0; k < 64; ++k) rig.Put(k, "v" + std::to_string(k));
  ServiceLatencyModel latency;
  latency.execute_rtt = 200e-6;
  LatencyPaddedService service(rig.service.get(), latency);
  ParallelInvokerOptions opt = FastBuyOptions(2);
  opt.queue_capacity = 4;  // producers block instead of queueing unboundedly
  ParallelInvoker invoker(&service, Concat(), opt);
  for (Key k = 0; k < 64; ++k) {
    invoker.SubmitComp(k, "p");
  }
  for (Key k = 0; k < 64; ++k) {
    auto r = invoker.FetchComp(k, "p");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, std::to_string(k) + ":p:v" + std::to_string(k));
  }
}

TEST(ParallelInvokerTest, ConcurrentSubmittersAndFetchers) {
  ApiRig rig;
  constexpr int kKeysPerThread = 16;
  constexpr int kOpsPerThread = 200;
  constexpr int kThreads = 4;
  for (Key k = 0; k < kThreads * kKeysPerThread; ++k) {
    rig.Put(k, "v" + std::to_string(k));
  }
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(4));
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Key k = static_cast<Key>(t * kKeysPerThread + i % kKeysPerThread);
        std::string params = std::to_string(t) + "." + std::to_string(i);
        invoker.SubmitComp(k, params);
        auto r = invoker.FetchComp(k, params);
        if (!r.ok() ||
            *r != std::to_string(k) + ":" + params + ":v" + std::to_string(k)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  invoker.Barrier();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(invoker.stats().submitted, kThreads * kOpsPerThread);
}

/// `n` zipf(0.99)-distributed keys over [0, universe).
std::vector<Key> ZipfTrace(uint64_t universe, int n, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf(universe, 0.99);
  std::vector<Key> trace;
  for (int i = 0; i < n; ++i) {
    trace.push_back(static_cast<Key>(zipf.Sample(rng)));
  }
  return trace;
}

int64_t Decisions(const DecisionEngineStats& s) {
  return s.local_memory_hits + s.local_disk_hits + s.fetch_memory +
         s.fetch_disk + s.compute_requests;
}

TEST(ParallelInvokerTest, EachAccessIsDecidedOnce) {
  // Inline hits and queued requests each make exactly one Decide call, so
  // the engine's decisions add up to the submissions.
  ApiRig rig;
  for (Key k = 0; k < 256; ++k) rig.Put(k, "v" + std::to_string(k));
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(4));
  std::vector<Key> trace = ZipfTrace(256, 4000, 11);
  constexpr size_t kWindow = 64;
  for (size_t i = 0; i < trace.size(); i += kWindow) {
    size_t end = std::min(i + kWindow, trace.size());
    for (size_t j = i; j < end; ++j) {
      invoker.SubmitComp(trace[j], std::to_string(j));
    }
    for (size_t j = i; j < end; ++j) {
      auto r = invoker.FetchComp(trace[j], std::to_string(j));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, std::to_string(trace[j]) + ":" + std::to_string(j) +
                        ":v" + std::to_string(trace[j]));
    }
  }
  invoker.Barrier();
  ParallelInvokerStats s = invoker.stats();
  EXPECT_EQ(s.submitted, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(s.on_demand_runs, 0);
  EXPECT_GT(s.served_inline, 0);
  EXPECT_EQ(Decisions(invoker.MergedEngineStats()), s.submitted);
}

TEST(ParallelInvokerTest, InlineHitsKeepSingleShardHitRate) {
  // The one-shard executor routes the same trace the same way whether its
  // hits run inline (SubmitComp then FetchComp) or in FetchComp alone.
  // Fetching is outright cheaper than computing here (in-process data
  // node, 1 GB/s modeled bandwidth), so ski-rental buys on each key's
  // second access and the decision sequence does not depend on timing.
  std::vector<Key> trace = ZipfTrace(128, 3000, 5);
  auto run = [&trace](bool submit) {
    ApiRig rig;
    for (Key k = 0; k < 128; ++k) rig.Put(k, "v" + std::to_string(k));
    ParallelInvokerOptions opt = FastBuyOptions(1);
    opt.num_shards = 1;
    ParallelInvoker invoker(rig.service.get(), Concat(), opt);
    for (size_t i = 0; i < trace.size(); ++i) {
      if (submit) invoker.SubmitComp(trace[i], "p");
      EXPECT_TRUE(invoker.FetchComp(trace[i], "p").ok());
    }
    return std::make_pair(invoker.stats(), invoker.MergedEngineStats());
  };
  auto [fetch_only, fetch_only_engine] = run(false);
  auto [submitted, submitted_engine] = run(true);
  EXPECT_EQ(fetch_only.served_inline, 0);
  EXPECT_GT(submitted.served_inline, 0);
  EXPECT_EQ(submitted.on_demand_runs, 0);
  EXPECT_EQ(submitted.served_from_cache, fetch_only.served_from_cache);
  EXPECT_EQ(submitted_engine.local_memory_hits,
            fetch_only_engine.local_memory_hits);
  EXPECT_EQ(submitted_engine.fetch_memory, fetch_only_engine.fetch_memory);
  EXPECT_EQ(submitted_engine.compute_requests,
            fetch_only_engine.compute_requests);
  std::set<Key> distinct(trace.begin(), trace.end());
  EXPECT_EQ(fetch_only_engine.first_requests,
            static_cast<int64_t>(distinct.size()));
}

TEST(ParallelInvokerTest, FetchRacingAnInlineHitWaitsForIt) {
  ApiRig rig;
  rig.Put(5, "v");
  std::atomic<bool> in_udf{false};
  std::atomic<bool> release{false};
  UserFn gated = [&](Key key, const std::string& params,
                     const std::string& value) {
    if (params == "gated") {
      in_udf.store(true);
      while (!release.load()) std::this_thread::yield();
    }
    return std::to_string(key) + ":" + params + ":" + value;
  };
  ParallelInvoker invoker(rig.service.get(), gated, FastBuyOptions(2));
  // The first access delegates and the second buys; warm until a submit
  // has run inline.
  for (int i = 0; i < 100 && invoker.stats().served_inline == 0; ++i) {
    invoker.SubmitComp(5, "warm");
    ASSERT_TRUE(invoker.FetchComp(5, "warm").ok());
  }
  ASSERT_GT(invoker.stats().served_inline, 0);
  const int64_t served_inline = invoker.stats().served_inline;
  const int64_t on_demand = invoker.stats().on_demand_runs;

  std::thread submitter([&] { invoker.SubmitComp(5, "gated"); });
  while (!in_udf.load()) std::this_thread::yield();
  std::atomic<bool> fetched{false};
  StatusOr<std::string> got = Status::Internal("unset");
  std::thread fetcher([&] {
    got = invoker.FetchComp(5, "gated");
    fetched.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(fetched.load());  // waiting on the inline hit
  release.store(true);
  submitter.join();
  fetcher.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "5:gated:v");
  EXPECT_EQ(invoker.stats().served_inline, served_inline + 1);
  EXPECT_EQ(invoker.stats().on_demand_runs, on_demand);
}

TEST(ParallelInvokerTest, SubmitAfterOnUpdateNeverServesOldPayload) {
  ApiRig rig;
  rig.Put(5, "v0");
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(2));
  for (int round = 1; round <= 10; ++round) {
    // Re-warm until the submit path serves key 5 inline.
    const int64_t inline_before = invoker.stats().served_inline;
    for (int i = 0; i < 100 && invoker.stats().served_inline == inline_before;
         ++i) {
      invoker.SubmitComp(5, "warm");
      ASSERT_TRUE(invoker.FetchComp(5, "warm").ok());
    }
    ASSERT_GT(invoker.stats().served_inline, inline_before)
        << "round " << round << ": key 5 never served inline";
    auto update = rig.store->Update(5, [round](StoredItem& item) {
      item.payload = "v" + std::to_string(round);
      item.size_bytes = static_cast<double>(item.payload.size());
    });
    ASSERT_TRUE(update.ok());
    invoker.OnUpdate(5, update->new_version);
    invoker.SubmitComp(5, "read");
    auto r = invoker.FetchComp(5, "read");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "5:read:v" + std::to_string(round));
  }
}

TEST(ParallelInvokerTest, HitsRunInlineMissesQueue) {
  // Every cache hit runs on the submitter, however slow its UDF; a
  // request that needs the wire goes to a worker.
  ApiRig rig;
  rig.Put(5, "v");
  rig.Put(6, "w");
  ParallelInvoker invoker(rig.service.get(), SpinningConcat(50e-6),
                          FastBuyOptions(2));
  invoker.SubmitComp(5, "first");  // never seen: a compute request
  ASSERT_TRUE(invoker.FetchComp(5, "first").ok());
  EXPECT_EQ(invoker.stats().served_inline, 0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(invoker.FetchComp(5, "w").ok());
  const int64_t hits = invoker.stats().served_from_cache;
  const int64_t on_demand = invoker.stats().on_demand_runs;
  ASSERT_GT(hits, 0) << "key 5 was never bought";
  for (int i = 0; i < 20; ++i) {
    invoker.SubmitComp(5, std::to_string(i));
    auto r = invoker.FetchComp(5, std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "5:" + std::to_string(i) + ":v");
  }
  invoker.SubmitComp(6, "cold");  // a miss on the same invoker queues
  ASSERT_TRUE(invoker.FetchComp(6, "cold").ok());
  ParallelInvokerStats s = invoker.stats();
  EXPECT_EQ(s.served_inline, 20);
  EXPECT_EQ(s.served_from_cache - hits, 20);
  EXPECT_EQ(s.on_demand_runs, on_demand);
}

/// Counts OwnerOf calls, which are a round trip on socket-backed services.
class OwnerCountingService : public DataService {
 public:
  explicit OwnerCountingService(DataService* inner) : inner_(inner) {}

  StatusOr<Fetched> Fetch(Key key) override { return inner_->Fetch(key); }
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override {
    return inner_->Execute(key, params, fn);
  }
  StatusOr<ItemStat> Stat(Key key) const override {
    return inner_->Stat(key);
  }
  NodeId OwnerOf(Key key) const override {
    ++owner_lookups;
    return inner_->OwnerOf(key);
  }

  mutable std::atomic<int> owner_lookups{0};

 private:
  DataService* inner_;
};

TEST(ParallelInvokerTest, InlineHitsMakeNoOwnerLookup) {
  // An inline hit decides with the owner its payload was fetched from,
  // so the submitting thread never waits on a placement round trip.
  ApiRig rig;
  rig.Put(5, "v");
  rig.Put(6, "w");
  OwnerCountingService service(rig.service.get());
  ParallelInvoker invoker(&service, Concat(), FastBuyOptions(2));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(invoker.FetchComp(5, "w").ok());
  const int lookups = service.owner_lookups.load();
  for (int i = 0; i < 20; ++i) {
    invoker.SubmitComp(5, std::to_string(i));
    ASSERT_TRUE(invoker.FetchComp(5, std::to_string(i)).ok());
  }
  EXPECT_EQ(invoker.stats().served_inline, 20);
  EXPECT_EQ(service.owner_lookups.load(), lookups);
  invoker.SubmitComp(6, "cold");  // a queued request looks its owner up
  invoker.Barrier();
  EXPECT_EQ(service.owner_lookups.load(), lookups + 1);
}

/// Serializes every store access behind one mutex: the backing stores are
/// single-writer, and this test mutates them while workers read. The
/// *invoker's* concurrency is what is under test here.
class LockedService : public DataService {
 public:
  explicit LockedService(DataService* inner) : inner_(inner) {}

  StatusOr<Fetched> Fetch(Key key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Fetch(key);
  }
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Execute(key, params, fn);
  }
  StatusOr<ItemStat> Stat(Key key) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Stat(key);
  }
  NodeId OwnerOf(Key key) const override { return inner_->OwnerOf(key); }

  /// Runs a store mutation under the same lock the reads take.
  template <typename Fn>
  auto WithLock(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return fn();
  }

 private:
  DataService* inner_;
  mutable std::mutex mu_;
};

TEST(ParallelInvokerTest, UpdatesRaceSafelyWithServing) {
  ApiRig rig;
  constexpr Key kKeys = 8;
  std::atomic<uint64_t> latest_version{1};
  for (Key k = 0; k < kKeys; ++k) rig.Put(k, "v1");
  LockedService service(rig.service.get());
  ParallelInvoker invoker(&service, Concat(), FastBuyOptions(4));
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load()) {
        Key k = static_cast<Key>((t + ++i) % kKeys);
        std::string params = std::to_string(t) + "." + std::to_string(i);
        invoker.SubmitComp(k, params);
        auto r = invoker.FetchComp(k, params);
        // The payload is some version "vN" with N <= the latest published
        // version; the prefix must always be exact.
        std::string prefix = std::to_string(k) + ":" + params + ":v";
        if (!r.ok() || r->rfind(prefix, 0) != 0 ||
            std::stoull(r->substr(prefix.size())) > latest_version.load()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int round = 2; round < 30; ++round) {
    Key k = static_cast<Key>(round % kKeys);
    // Publish the watermark first: a reader may see the new payload the
    // instant the store applies it.
    latest_version.store(static_cast<uint64_t>(round));
    auto update = service.WithLock([&] {
      return rig.store->Update(k, [round](StoredItem& item) {
        item.payload = "v" + std::to_string(round);
        item.size_bytes = static_cast<double>(item.payload.size());
      });
    });
    ASSERT_TRUE(update.ok());
    invoker.OnUpdate(k, update->new_version);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& p : producers) p.join();
  invoker.Barrier();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelInvokerTest, ResyncWhereDropsStalePayloadsAndRefetches) {
  ApiRig rig;
  rig.Put(1, "old-1xxx");
  rig.Put(2, "old-2xxx");
  ParallelInvoker invoker(rig.service.get(), SpinningConcat(),
                          FastBuyOptions(2));

  // Repeat both keys until ski-rental buys them into the cache.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(invoker.FetchComp(1, "p").ok());
    ASSERT_TRUE(invoker.FetchComp(2, "p").ok());
  }

  // Update the store *without* delivering OnUpdate — the missed-
  // invalidation scenario an epoch gap creates. The cached copy is now
  // provably stale.
  for (Key k : {Key{1}, Key{2}}) {
    auto update = rig.store->Update(k, [](StoredItem& item) {
      item.payload = "new-" + std::to_string(item.payload[4] - '0') + "xxx";
      item.size_bytes = static_cast<double>(item.payload.size());
    });
    ASSERT_TRUE(update.ok());
  }
  auto stale = invoker.FetchComp(1, "p");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, "1:p:old-1xxx") << "key 1 was not cached; test is vacuous";

  // Targeted re-sync of key 1 only: key 1 refetches fresh, key 2 still
  // serves its (stale) cached copy — exactly the blast radius asked for.
  int64_t dropped = invoker.ResyncWhere([](Key k) { return k == 1; });
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(invoker.stats().resync_dropped, 1);
  auto fresh = invoker.FetchComp(1, "p");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, "1:p:new-1xxx");
  auto untouched = invoker.FetchComp(2, "p");
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, "2:p:old-2xxx");

  // Re-syncing an already-clean key drops nothing.
  EXPECT_EQ(invoker.ResyncWhere([](Key k) { return k == 99; }), 0);
  EXPECT_EQ(invoker.stats().resync_dropped, 1);
}

TEST(ParallelInvokerTest, ResyncLeavesUnchangedKeysCacheable) {
  // A re-sync drops the cached copy, but a key that did not change must
  // be bought again on its next accesses, not delegated forever.
  ApiRig rig;
  rig.Put(1, "same");
  ParallelInvoker invoker(rig.service.get(), Concat(), FastBuyOptions(1));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(invoker.FetchComp(1, "p").ok());
  ASSERT_GT(invoker.stats().served_from_cache, 0);
  ASSERT_EQ(invoker.ResyncWhere([](Key k) { return k == 1; }), 1);
  const int64_t hits = invoker.stats().served_from_cache;
  const int64_t executes = rig.service->executes();
  for (int i = 0; i < 10; ++i) {
    auto r = invoker.FetchComp(1, "p");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "1:p:same");
  }
  EXPECT_GE(invoker.stats().served_from_cache - hits, 8);
  EXPECT_LE(rig.service->executes() - executes, 1);
}

/// Answers Fetch with a fixed older copy while `lagging` is set, like a
/// follower replica that has not yet applied the latest writes.
class LaggingService : public DataService {
 public:
  explicit LaggingService(DataService* inner) : inner_(inner) {}

  StatusOr<Fetched> Fetch(Key key) override {
    if (lagging.load()) {
      ++stale_fetches;
      return stale;
    }
    return inner_->Fetch(key);
  }
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override {
    return inner_->Execute(key, params, fn);
  }
  StatusOr<ItemStat> Stat(Key key) const override {
    return inner_->Stat(key);
  }
  NodeId OwnerOf(Key key) const override { return inner_->OwnerOf(key); }

  std::atomic<bool> lagging{false};
  Fetched stale;
  std::atomic<int> stale_fetches{0};

 private:
  DataService* inner_;
};

TEST(ParallelInvokerTest, ResyncRefusesAnOlderVersionThanServed) {
  // After a re-sync, a refetch that reads a lagging replica must not
  // serve a version older than the one the invoker already served.
  ApiRig rig;
  rig.Put(1, "older");
  auto served = rig.store->Update(1, [](StoredItem& item) {
    item.payload = "served";
    item.size_bytes = 6;
  });
  ASSERT_TRUE(served.ok());
  LaggingService service(rig.service.get());
  service.stale = DataService::Fetched{"older", served->new_version - 1};
  ParallelInvoker invoker(&service, Concat(), FastBuyOptions(1));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(invoker.FetchComp(1, "p").ok());
  ASSERT_GT(invoker.stats().served_from_cache, 0);

  ASSERT_EQ(invoker.ResyncWhere([](Key k) { return k == 1; }), 1);
  service.lagging.store(true);
  const int64_t hits = invoker.stats().served_from_cache;
  for (int i = 0; i < 10; ++i) {
    auto r = invoker.FetchComp(1, "p");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "1:p:served");  // computed next to the data instead
  }
  EXPECT_GT(service.stale_fetches.load(), 0) << "no refetch; test is vacuous";
  EXPECT_EQ(invoker.stats().served_from_cache, hits);  // nothing cached

  // Once the replica catches up, the same version is cacheable again.
  service.lagging.store(false);
  for (int i = 0; i < 10; ++i) {
    auto r = invoker.FetchComp(1, "p");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "1:p:served");
  }
  EXPECT_GT(invoker.stats().served_from_cache, hits);
}

TEST(ParallelInvokerTest, UnclaimedResultsAreBounded) {
  ApiRig rig;
  for (Key k = 0; k < 128; ++k) rig.Put(k, "v");
  ParallelInvokerOptions opt = FastBuyOptions(1);
  opt.max_unclaimed_results = 64;
  ParallelInvoker invoker(rig.service.get(), Concat(), opt);
  for (int i = 0; i < 2000; ++i) {
    invoker.SubmitComp(static_cast<Key>(i % 128), std::to_string(i));
  }
  invoker.Barrier();
  EXPECT_LE(invoker.pending_results(),
            16u * static_cast<size_t>(invoker.num_shards()));
  EXPECT_GT(invoker.stats().dropped_results, 1000);
  // Dropped submissions still compute on demand.
  auto r = invoker.FetchComp(0, "0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "0:0:v");
}

}  // namespace
}  // namespace joinopt

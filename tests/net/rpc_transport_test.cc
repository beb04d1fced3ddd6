// Socket transport tests over loopback TCP: verb parity with the wrapped
// in-process service, one-round-trip batching, connect/IO deadlines
// surfacing as the recovery machinery's Status codes, replica failover when
// a server dies (including mid-batch), the in-band refusal of any other
// wire version, and the ParallelInvoker running unmodified over the
// networked DataService.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "joinopt/cluster/data_node.h"
#include "joinopt/cluster/topology.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/parallel_invoker.h"
#include "joinopt/engine/plan_exec.h"
#include "joinopt/net/loopback.h"
#include "joinopt/store/log_store.h"

namespace joinopt {
namespace {

UserFn EchoFn() {
  return [](Key key, const std::string& params, const std::string& value) {
    return std::to_string(key) + "/" + params + "/" + value;
  };
}

/// A store + service fixture with deterministic contents.
struct StoreFixture {
  StoreFixture() : store(LogStoreConfig{}), service(&store, /*num_shards=*/4) {
    for (Key k = 0; k < 64; ++k) {
      store.Put(k, "payload-" + std::to_string(k));
    }
  }
  LogStructuredStore store;
  LogStoreDataService service;
};

TEST(RpcTransportTest, AllFiveVerbsMatchInProcessService) {
  StoreFixture fx;
  LoopbackRpc rpc(&fx.service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();
  RpcClientService& remote = rpc.client();

  for (Key k = 0; k < 16; ++k) {
    auto fetched = remote.Fetch(k);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    EXPECT_EQ(fetched->value, "payload-" + std::to_string(k));
    EXPECT_EQ(fetched->version, fx.store.VersionOf(k));

    auto executed = remote.Execute(k, "p", EchoFn());
    ASSERT_TRUE(executed.ok()) << executed.status();
    EXPECT_EQ(*executed, *fx.service.Execute(k, "p", EchoFn()));

    auto stat = remote.Stat(k);
    ASSERT_TRUE(stat.ok()) << stat.status();
    EXPECT_EQ(stat->size_bytes, fx.service.Stat(k)->size_bytes);
    EXPECT_EQ(stat->version, fx.service.Stat(k)->version);

    EXPECT_EQ(remote.OwnerOf(k), fx.service.OwnerOf(k));
  }

  auto missing = remote.Fetch(9999);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound())
      << "application errors must travel in-band: " << missing.status();
  // An in-band application error is not a transport failure: no retries,
  // no failovers, no abandoned calls.
  EXPECT_EQ(remote.recovery_counters().retries, 0);
  EXPECT_EQ(remote.recovery_counters().tuples_failed, 0);
}

TEST(RpcTransportTest, ExecuteBatchIsOneRoundTripAndIndexAligned) {
  StoreFixture fx;
  LoopbackRpc rpc(&fx.service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();

  std::vector<std::pair<Key, std::string>> items;
  for (Key k = 0; k < 32; ++k) {
    items.emplace_back(k, "b" + std::to_string(k));
  }
  items.emplace_back(4242, "missing");  // error result mid-batch

  auto results = rpc.client().ExecuteBatch(items, EchoFn());
  ASSERT_EQ(results.size(), items.size());
  for (size_t i = 0; i + 1 < items.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    EXPECT_EQ(*results[i],
              *fx.service.Execute(items[i].first, items[i].second, EchoFn()));
  }
  EXPECT_TRUE(results.back().status().IsNotFound());

  // The whole batch travelled as ONE request (one client call, one server
  // request carrying 33 items) — the round-trip amortization the
  // delegation batcher relies on.
  EXPECT_EQ(rpc.client().stats().calls, 1);
  RpcServerStats server_stats = rpc.server().stats();
  EXPECT_EQ(server_stats.requests, 1);
  EXPECT_EQ(server_stats.batch_items, 33);

  EXPECT_TRUE(rpc.client().ExecuteBatch({}, EchoFn()).empty());
}

TEST(RpcTransportTest, BatchIsCheaperThanSingletonExecutes) {
  StoreFixture fx;
  LoopbackRpc rpc(&fx.service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();
  RpcClientService& remote = rpc.client();

  constexpr int kItems = 64;
  std::vector<std::pair<Key, std::string>> items;
  for (int i = 0; i < kItems; ++i) {
    items.emplace_back(static_cast<Key>(i % 64), "p");
  }

  // Warm the connection pool so neither side pays the dial.
  ASSERT_TRUE(remote.Execute(0, "warm", EchoFn()).ok());

  // min-of-3 to shrug off scheduler noise under sanitizers.
  double singleton_best = 1e9, batch_best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = PlanNowSeconds();
    for (const auto& [key, params] : items) {
      ASSERT_TRUE(remote.Execute(key, params, EchoFn()).ok());
    }
    singleton_best = std::min(singleton_best, PlanNowSeconds() - t0);

    t0 = PlanNowSeconds();
    auto results = remote.ExecuteBatch(items, EchoFn());
    batch_best = std::min(batch_best, PlanNowSeconds() - t0);
    for (const auto& r : results) ASSERT_TRUE(r.ok());
  }

  // 64 round trips vs 1: batching must win by a wide margin; asserting 2x
  // keeps the test robust on loaded CI machines.
  EXPECT_LT(batch_best * 2, singleton_best)
      << "batch=" << batch_best << "s singleton=" << singleton_best << "s";
}

TEST(RpcTransportTest, ConcurrentClientsShareThePool) {
  StoreFixture fx;
  LoopbackRpc rpc(&fx.service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();
  RpcClientService& remote = rpc.client();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&remote, &failures, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Key k = static_cast<Key>((t * kOpsPerThread + i) % 64);
        auto fetched = remote.Fetch(k);
        if (!fetched.ok() ||
            fetched->value != "payload-" + std::to_string(k)) {
          ++failures;
        }
        auto executed = remote.Execute(k, "c", EchoFn());
        if (!executed.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(remote.recovery_counters().tuples_failed, 0);
}

TEST(RpcTransportTest, ConnectionRefusedSurfacesAsTransportError) {
  // Dial a port nothing listens on: every attempt fails fast with the
  // retriable transport class, and the call is counted as abandoned.
  RpcClientOptions opts;
  opts.endpoints = {{"127.0.0.1", 1}};  // reserved port, never bound
  opts.recovery.max_attempts = 2;
  opts.recovery.backoff_base = 1e-3;
  opts.recovery.backoff_max = 2e-3;
  RpcClientService remote(opts);

  auto fetched = remote.Fetch(1);
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(IsTransportError(fetched.status())) << fetched.status();

  RecoveryCounters rec = remote.recovery_counters();
  EXPECT_EQ(rec.retries, 1);        // attempt 2 of 2
  EXPECT_EQ(rec.tuples_failed, 1);  // abandoned after max_attempts
  EXPECT_EQ(remote.OwnerOf(1), kInvalidNode);
}

TEST(RpcTransportTest, IoDeadlineSurfacesAsTimeout) {
  // A listener that accepts but never answers: the IO deadline must fire
  // and be classified as a timeout (RecoveryCounters::timeouts), the
  // signal the backoff + failover loop keys on.
  auto listener = TcpListen("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = BoundPort(listener->get());
  ASSERT_TRUE(port.ok());
  std::atomic<bool> stop{false};
  std::thread black_hole([&listener, &stop] {
    std::vector<UniqueFd> conns;  // accept, hold open, never reply
    while (!stop.load()) {
      auto readable = WaitReadable(listener->get(), 0.02);
      if (readable.ok() && *readable) {
        int fd = ::accept(listener->get(), nullptr, nullptr);
        if (fd >= 0) conns.emplace_back(fd);
      }
    }
  });

  RpcClientOptions opts;
  opts.endpoints = {{"127.0.0.1", *port}};
  opts.recovery.request_timeout = 0.05;
  opts.recovery.max_attempts = 2;
  opts.recovery.backoff_base = 1e-3;
  opts.recovery.backoff_max = 2e-3;
  RpcClientService remote(opts);

  auto fetched = remote.Fetch(1);
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(IsDeadlineExceeded(fetched.status())) << fetched.status();

  RecoveryCounters rec = remote.recovery_counters();
  EXPECT_EQ(rec.timeouts, 2);  // both attempts expired
  EXPECT_EQ(rec.tuples_failed, 1);

  stop.store(true);
  black_hole.join();
}

TEST(RpcTransportTest, KillServerMidBatchFailsOverToReplica) {
  StoreFixture fx;
  // A UDF slow enough (1 ms/item) that a 100-item batch gives a wide
  // window to kill the primary while the batch executes server-side.
  UserFn slow_fn = [](Key key, const std::string& params,
                      const std::string& value) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return std::to_string(key) + "/" + params + "/" + value;
  };
  RpcClientOptions copts;
  copts.recovery.request_timeout = 5.0;
  copts.recovery.backoff_base = 1e-3;
  copts.recovery.backoff_max = 5e-3;
  copts.recovery.max_attempts = 4;
  LoopbackRpc rpc(&fx.service, slow_fn, /*num_replicas=*/2, copts);
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();

  std::vector<std::pair<Key, std::string>> items;
  for (int i = 0; i < 100; ++i) {
    items.emplace_back(static_cast<Key>(i % 64), "p");
  }

  std::vector<StatusOr<std::string>> results;
  std::thread batcher([&rpc, &items, &results] {
    results = rpc.client().ExecuteBatch(items, UserFn());
  });
  // Let the batch reach the primary, then kill it mid-execution. Stop()
  // severs the connection, so the in-flight attempt dies with a transport
  // error and the client fails over to the replica.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rpc.StopServer(0);
  batcher.join();

  ASSERT_EQ(results.size(), items.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << "item " << i << ": " << results[i].status();
    EXPECT_EQ(*results[i], *fx.service.Execute(items[i].first,
                                               items[i].second, slow_fn));
  }
  RecoveryCounters rec = rpc.client().recovery_counters();
  EXPECT_GE(rec.retries, 1);
  EXPECT_GE(rec.failovers, 1);  // a non-primary endpoint served the batch
  EXPECT_EQ(rec.tuples_failed, 0);

  // The dead primary stays dead: later singleton calls keep failing over
  // (attempt 1 → primary refused, attempt 2 → replica answers).
  auto after = rpc.client().Execute(3, "after", UserFn());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(rpc.client().recovery_counters().failovers, rec.failovers);
}

/// The in-band error a response body to `req` carries (OK when it carries
/// a value), or the decode failure.
Status ResponseError(MsgType req, const std::string& body) {
  switch (req) {
    case MsgType::kFetchReq: {
      auto r = DecodeFetchResponse(body);
      return r.ok() ? r->status() : r.status();
    }
    case MsgType::kExecuteReq: {
      auto r = DecodeExecuteResponse(body);
      return r.ok() ? r->status() : r.status();
    }
    case MsgType::kBatchReq: {
      auto r = DecodeBatchResponse(body);
      if (!r.ok()) return r.status();
      if (r->size() != 1) return Status::Internal("batch: expected 1 result");
      return r->front().status();
    }
    case MsgType::kStatReq: {
      auto r = DecodeStatResponse(body);
      return r.ok() ? r->status() : r.status();
    }
    case MsgType::kPutReq: {
      auto r = DecodePutResponse(body);
      return r.ok() ? r->status() : r.status();
    }
    case MsgType::kRegionSummaryReq: {
      auto r = DecodeRegionSummaryResponse(body);
      return r.ok() ? r->status() : r.status();
    }
    case MsgType::kRegionSyncReq: {
      auto r = DecodeRegionSyncResponse(body);
      return r.ok() ? r->status() : r.status();
    }
    default:
      return Status::Internal("no error slot");
  }
}

/// Sends a well-formed frame with `version` written over the header's
/// version byte (offset 4).
Status SendStamped(int fd, MsgType type, uint32_t seq, const std::string& body,
                   uint8_t version) {
  auto frame = BuildFrame(type, seq, body, kDefaultMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  (*frame)[4] = static_cast<char>(version);
  return SendAll(fd, frame->data(), frame->size(), 1.0);
}

TEST(RpcTransportTest, V1ClientSpeaksAllFiveVerbsToV2Server) {
  // A frozen v1 client (frames stamped version=1, v1 body formats — the
  // batch untagged) against today's server: each of the five original
  // verbs is answered, in the server's version, with an in-band refusal
  // (OwnerOf: kInvalidNode) instead of a misparse of the untagged batch or
  // a hang-up, and the same connection then serves the client once it
  // speaks kWireVersion.
  StoreFixture fx;
  LoopbackRpc rpc(&fx.service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();

  auto conn = TcpConnect(rpc.server().host(), rpc.server().port(), 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  const Key key = 7;
  // The v1 batch body is the tagged body without its 16-byte tag.
  const std::string v1_batch =
      EncodeTaggedBatchRequest(0, 0, {{1, "a"}, {2, "b"}}).substr(16);
  const std::vector<std::pair<MsgType, std::string>> requests = {
      {MsgType::kFetchReq, EncodeKeyRequest(key)},
      {MsgType::kExecuteReq, EncodeExecuteRequest(key, "p")},
      {MsgType::kBatchReq, v1_batch},
      {MsgType::kStatReq, EncodeKeyRequest(key)},
      {MsgType::kOwnerReq, EncodeKeyRequest(key)},
  };
  uint32_t seq = 0;
  for (const auto& [type, body] : requests) {
    SCOPED_TRACE(MsgTypeToString(type));
    ASSERT_TRUE(SendStamped(conn->get(), type, ++seq, body, 1).ok());
    auto resp = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->header.version, kWireVersion);
    EXPECT_EQ(resp->header.type, ResponseTypeFor(type));
    EXPECT_EQ(resp->header.seq, seq);
    if (type == MsgType::kOwnerReq) {
      auto owner = DecodeOwnerResponse(resp->body);
      ASSERT_TRUE(owner.ok()) << owner.status();
      EXPECT_EQ(*owner, kInvalidNode);
    } else {
      EXPECT_EQ(ResponseError(type, resp->body).code(),
                StatusCode::kFailedPrecondition);
    }
  }
  RpcServerStats stats = rpc.server().stats();
  EXPECT_EQ(stats.protocol_errors, 5);
  EXPECT_EQ(stats.requests, 0) << "a refused request must not be served";

  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kFetchReq, ++seq,
                        EncodeKeyRequest(key), 1.0, kDefaultMaxFrameBytes)
                  .ok());
  auto fetch = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(fetch.ok()) << fetch.status();
  auto fetched = DecodeFetchResponse(fetch->body);
  ASSERT_TRUE(fetched.ok() && fetched->ok()) << fetched.status();
  EXPECT_EQ(fetched->value().value, "payload-7");
  EXPECT_EQ(fetched->value().version, fx.store.VersionOf(key));
}

TEST(RpcTransportTest, UnsupportedWireVersionRefusedInBand) {
  // The server speaks exactly kWireVersion. A request stamped with any
  // other version gets an in-band FailedPrecondition (OwnerOf:
  // kInvalidNode) and the connection keeps serving. Subscribe has no error
  // slot, so a mismatched Subscribe gets its connection closed. The service
  // is writable, so every verb would succeed at the right version.
  ClusterTopologyConfig tcfg;
  tcfg.num_data_nodes = 1;
  tcfg.regions_per_node = 4;
  tcfg.replication_factor = 1;
  ClusterTopology topology(tcfg);
  ClusterNodeService service(/*node=*/0, &topology);
  const Key key = 7;
  ASSERT_TRUE(service.Put(key, "payload-7").ok());
  LoopbackRpc rpc(&service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();

  auto conn = TcpConnect(rpc.server().host(), rpc.server().port(), 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  const std::vector<std::pair<MsgType, std::string>> requests = {
      {MsgType::kFetchReq, EncodeKeyRequest(key)},
      {MsgType::kExecuteReq, EncodeExecuteRequest(key, "p")},
      {MsgType::kBatchReq, EncodeTaggedBatchRequest(0, 0, {{key, "p"}})},
      {MsgType::kStatReq, EncodeKeyRequest(key)},
      {MsgType::kPutReq, EncodePutRequest(key, "overwritten")},
      {MsgType::kRegionSummaryReq, EncodeRegionSummaryRequest(0)},
      {MsgType::kRegionSyncReq, EncodeRegionSyncRequest(0, {})},
      {MsgType::kOwnerReq, EncodeKeyRequest(key)},
  };
  uint32_t seq = 0;
  for (uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    for (const auto& [type, body] : requests) {
      SCOPED_TRACE(std::string(MsgTypeToString(type)) + " stamped v" +
                   std::to_string(version));
      ASSERT_TRUE(SendStamped(conn->get(), type, ++seq, body, version).ok());
      auto resp = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_EQ(resp->header.version, kWireVersion);
      EXPECT_EQ(resp->header.type, ResponseTypeFor(type));
      EXPECT_EQ(resp->header.seq, seq);
      if (type == MsgType::kOwnerReq) {
        auto owner = DecodeOwnerResponse(resp->body);
        ASSERT_TRUE(owner.ok()) << owner.status();
        EXPECT_EQ(*owner, kInvalidNode);
      } else {
        EXPECT_EQ(ResponseError(type, resp->body).code(),
                  StatusCode::kFailedPrecondition);
      }
    }
  }
  EXPECT_EQ(rpc.server().stats().protocol_errors, 16);

  // The same connection still serves a v2 request, and the refused Put
  // wrote nothing.
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kFetchReq, ++seq,
                        EncodeKeyRequest(key), 1.0, kDefaultMaxFrameBytes)
                  .ok());
  auto fetch = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(fetch.ok()) << fetch.status();
  auto fetched = DecodeFetchResponse(fetch->body);
  ASSERT_TRUE(fetched.ok() && fetched->ok()) << fetched.status();
  EXPECT_EQ(fetched->value().value, "payload-7");

  // A Subscribe stamped v1 is refused by closing the connection — an EOF,
  // not a timeout — while a v2 Subscribe on a fresh one is answered.
  auto sub = TcpConnect(rpc.server().host(), rpc.server().port(), 1.0);
  ASSERT_TRUE(sub.ok()) << sub.status();
  ASSERT_TRUE(SendStamped(sub->get(), MsgType::kSubscribeReq, 1,
                           EncodeSubscribeRequest(99), 1)
                  .ok());
  auto refused = RecvFrame(sub->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_FALSE(refused.ok());
  EXPECT_FALSE(IsDeadlineExceeded(refused.status())) << refused.status();

  auto sub2 = TcpConnect(rpc.server().host(), rpc.server().port(), 1.0);
  ASSERT_TRUE(sub2.ok()) << sub2.status();
  ASSERT_TRUE(SendFrame(sub2->get(), MsgType::kSubscribeReq, 1,
                        EncodeSubscribeRequest(99), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());
  auto snapshot = RecvFrame(sub2->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->header.type, MsgType::kSubscribeResp);
}

TEST(RpcTransportTest, ReadBalancingSpreadsFetchesButWritesStayPrimary) {
  StoreFixture fx;
  RpcClientOptions copts;
  copts.balance_reads = true;
  constexpr int kReplicas = 3;
  LoopbackRpc rpc(&fx.service, EchoFn(), kReplicas, copts);
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();

  constexpr int kReads = 120;
  for (int i = 0; i < kReads; ++i) {
    auto fetched = rpc.client().Fetch(static_cast<Key>(i % 64));
    ASSERT_TRUE(fetched.ok()) << fetched.status();
  }
  // Sequential reads leave zero outstanding everywhere, so the round-robin
  // tie-break must spread them evenly: each replica gets its fair share.
  int64_t read_counts[kReplicas];
  for (int r = 0; r < kReplicas; ++r) {
    read_counts[r] = rpc.server(r).stats().requests;
    EXPECT_GE(read_counts[r], kReads / kReplicas / 2)
        << "replica " << r << " starved under read balancing";
  }

  // Executes (potential writes / UDF side effects) must keep hitting the
  // primary only — balancing applies to reads alone.
  constexpr int kWrites = 30;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(rpc.client().Execute(static_cast<Key>(i), "w", EchoFn()).ok());
  }
  EXPECT_EQ(rpc.server(0).stats().requests, read_counts[0] + kWrites);
  for (int r = 1; r < kReplicas; ++r) {
    EXPECT_EQ(rpc.server(r).stats().requests, read_counts[r])
        << "execute leaked to replica " << r;
  }
}

TEST(RpcTransportTest, RecoveryCountersStayExactUnderConcurrentFailover) {
  // Satellite: many ParallelInvoker workers fail over concurrently from a
  // dead primary. Every call takes exactly two attempts (primary refused,
  // replica answers), so the counters have exact expected values — any
  // lost or double increment under concurrency shows up as an inequality.
  StoreFixture fx;
  RpcClientOptions copts;
  copts.balance_reads = false;  // every call starts at the dead primary
  copts.recovery.max_attempts = 2;
  copts.recovery.backoff_base = 1e-3;
  copts.recovery.backoff_max = 2e-3;
  LoopbackRpc rpc(&fx.service, EchoFn(), /*num_replicas=*/2, copts);
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();
  rpc.StopServer(0);

  ParallelInvokerOptions opts;
  opts.num_threads = 8;
  ParallelInvoker invoker(&rpc.client(), EchoFn(), opts);
  constexpr int kItems = 200;
  for (int i = 0; i < kItems; ++i) {
    invoker.SubmitComp(static_cast<Key>(i % 64), "f" + std::to_string(i));
  }
  for (int i = 0; i < kItems; ++i) {
    Key k = static_cast<Key>(i % 64);
    auto r = invoker.FetchComp(k, "f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, *fx.service.Execute(k, "f" + std::to_string(i), EchoFn()));
  }
  invoker.Barrier();

  RecoveryCounters rec = rpc.client().recovery_counters();
  int64_t calls = rpc.client().stats().calls;
  EXPECT_GT(calls, 0);
  // Exactness: one failover retry per call, nothing abandoned, and the
  // refused connect is not misclassified as a timeout.
  EXPECT_EQ(rec.retries, calls);
  EXPECT_EQ(rec.failovers, calls);
  EXPECT_EQ(rec.tuples_failed, 0);
  EXPECT_EQ(rec.timeouts, 0);
  EXPECT_EQ(invoker.stats().transport_errors, 0);
}

TEST(RpcTransportTest, ParallelInvokerRunsUnmodifiedOverSockets) {
  StoreFixture fx;
  LoopbackRpc rpc(&fx.service, EchoFn());
  ASSERT_TRUE(rpc.status().ok()) << rpc.status();

  ParallelInvokerOptions opts;
  opts.num_threads = 4;
  ParallelInvoker invoker(&rpc.client(), EchoFn(), opts);
  for (int round = 0; round < 4; ++round) {
    for (Key k = 0; k < 64; ++k) invoker.SubmitComp(k, "s");
    for (Key k = 0; k < 64; ++k) {
      auto r = invoker.FetchComp(k, "s");
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(*r, *fx.service.Execute(k, "s", EchoFn()));
    }
  }
  invoker.Barrier();
  ParallelInvokerStats stats = invoker.stats();
  EXPECT_EQ(stats.submitted, 256);
  EXPECT_EQ(stats.transport_errors, 0);
  EXPECT_EQ(rpc.client().recovery_counters().tuples_failed, 0);
}

}  // namespace
}  // namespace joinopt

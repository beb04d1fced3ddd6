// Wire-level invalidation tests: the Subscribe/Notify stream end to end
// (raw frames and through UpdateSubscriber into a ParallelInvoker), the
// epoch/seq re-sync discipline — sequence gaps after a dropped stream
// trigger a *targeted* region re-sync, node restarts bump epochs — and the
// no-stale-read guarantee across reconnects.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "joinopt/cluster/deployment.h"
#include "joinopt/engine/parallel_invoker.h"
#include "joinopt/net/socket.h"

namespace joinopt {
namespace {

UserFn EchoFn() {
  return [](Key key, const std::string& params, const std::string& value) {
    return std::to_string(key) + "/" + params + "/" + value;
  };
}

bool WaitFor(const std::function<bool()>& pred, double timeout_sec) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_sec));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

ClusterDeploymentOptions SmallOptions(int nodes) {
  ClusterDeploymentOptions opts;
  opts.topology.num_data_nodes = nodes;
  opts.topology.regions_per_node = 4;
  opts.topology.replication_factor = 1;
  opts.start_controller = false;  // liveness managed by hand here
  opts.client.recovery.backoff_base = 2e-3;
  opts.client.recovery.backoff_max = 20e-3;
  return opts;
}

UpdateSubscriberOptions FastSubscriber() {
  UpdateSubscriberOptions opts;
  opts.poll_tick = 20e-3;
  opts.reconnect_backoff = 10e-3;
  return opts;
}

/// A key owned (as primary) by `node` in this topology.
Key KeyOwnedBy(ClusterTopology& topology, NodeId node, Key start = 0) {
  for (Key k = start; k < start + 10000; ++k) {
    if (topology.OwnerOf(k) == node) return k;
  }
  ADD_FAILURE() << "no key owned by node " << node;
  return 0;
}

TEST(SubscriberTest, RawSubscribeDeliversSnapshotThenInOrderEvents) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(1));
  ASSERT_TRUE(deploy.Start().ok());
  RpcEndpoint ep = deploy.topology().endpoint(0);

  auto conn = TcpConnect(ep.host, ep.port, 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kSubscribeReq, 1,
                        EncodeSubscribeRequest(99), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());

  auto resp = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->header.type, MsgType::kSubscribeResp);
  auto snapshot = DecodeSubscribeResponse(resp->body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_EQ(snapshot->size(),
            static_cast<size_t>(deploy.topology().num_regions()));
  for (const RegionEpoch& re : *snapshot) {
    EXPECT_EQ(re.epoch, 1u);
    EXPECT_EQ(re.seq, 0u);
  }

  // A write lands as a kNotifyEvt carrying the bumped sequence number.
  Key key = 5;
  auto version = deploy.Seed(key, "value");
  ASSERT_TRUE(version.ok());
  auto evt = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(evt.ok()) << evt.status();
  ASSERT_EQ(evt->header.type, MsgType::kNotifyEvt);
  auto event = DecodeNotifyEvent(evt->body);
  ASSERT_TRUE(event.ok()) << event.status();
  EXPECT_EQ(event->key, key);
  EXPECT_EQ(event->version, *version);
  EXPECT_EQ(event->region, deploy.topology().RegionOf(key));
  EXPECT_EQ(event->epoch, 1u);
  EXPECT_EQ(event->seq, 1u);
}

TEST(SubscriberTest, NotifyKeepsFlowingAfterFirstBatch) {
  // A quiet subscriber must keep receiving pushes: between batches the
  // server checks the stream for a hang-up, and that check must not wait
  // for the (never-sending) subscriber. Each write below lands after the
  // server's idle tick has expired at least once, so every event is its
  // own Notify batch.
  ClusterDeployment deploy(EchoFn(), SmallOptions(1));
  ASSERT_TRUE(deploy.Start().ok());
  RpcEndpoint ep = deploy.topology().endpoint(0);
  auto conn = TcpConnect(ep.host, ep.port, 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kSubscribeReq, 1,
                        EncodeSubscribeRequest(7), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());
  auto resp = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->header.type, MsgType::kSubscribeResp);

  constexpr int kBatchesAfterFirst = 3;
  const auto start = std::chrono::steady_clock::now();
  for (int batch = 0; batch <= kBatchesAfterFirst; ++batch) {
    if (batch > 0) std::this_thread::sleep_for(std::chrono::milliseconds(80));
    Key key = static_cast<Key>(10 + batch);
    auto version = deploy.Seed(key, "v" + std::to_string(batch));
    ASSERT_TRUE(version.ok()) << version.status();
    double left = 2.0 - std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ASSERT_GT(left, 0.0) << "out of time before batch " << batch;
    auto evt = RecvFrame(conn->get(), left, kDefaultMaxFrameBytes);
    ASSERT_TRUE(evt.ok()) << "batch " << batch << ": " << evt.status();
    ASSERT_EQ(evt->header.type, MsgType::kNotifyEvt);
    auto event = DecodeNotifyEvent(evt->body);
    ASSERT_TRUE(event.ok()) << event.status();
    EXPECT_EQ(event->key, key);
    EXPECT_EQ(event->version, *version);
  }
}

TEST(SubscriberTest, FrameSplitAcrossIdleTicksKeepsTheStream) {
  // A fake data node sends one Notify frame's header, then its body only
  // after several of the subscriber's idle ticks, then a second event.
  // A tick expiring mid-frame must not desynchronize the stream: both
  // events arrive in order, with no redial and no re-sync.
  ClusterTopologyConfig config;
  config.num_data_nodes = 1;
  config.replication_factor = 1;
  ClusterTopology topology(config);
  auto listener = TcpListen("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = BoundPort(listener->get());
  ASSERT_TRUE(port.ok());
  topology.SetEndpoint(0, RpcEndpoint{"127.0.0.1", *port});

  std::thread node([&] {
    auto readable = WaitReadable(listener->get(), 5.0);
    ASSERT_TRUE(readable.ok() && *readable);
    UniqueFd conn(::accept(listener->get(), nullptr, nullptr));
    ASSERT_GE(conn.get(), 0);
    auto req = RecvFrame(conn.get(), 2.0, kDefaultMaxFrameBytes);
    ASSERT_TRUE(req.ok()) << req.status();
    std::vector<RegionEpoch> snapshot;
    for (int r = 0; r < topology.num_regions(); ++r) {
      snapshot.push_back(RegionEpoch{r, 1, 0});
    }
    ASSERT_TRUE(SendFrame(conn.get(), MsgType::kSubscribeResp,
                          req->header.seq, EncodeSubscribeResponse(snapshot),
                          1.0, kDefaultMaxFrameBytes)
                    .ok());
    auto first = BuildFrame(MsgType::kNotifyEvt, 0,
                            EncodeNotifyEvent(UpdateEvent{0, 1, 1, 7, 2}),
                            kDefaultMaxFrameBytes);
    auto second = BuildFrame(MsgType::kNotifyEvt, 1,
                             EncodeNotifyEvent(UpdateEvent{0, 1, 2, 8, 3}),
                             kDefaultMaxFrameBytes);
    ASSERT_TRUE(first.ok() && second.ok());
    ASSERT_TRUE(
        SendAll(conn.get(), first->data(), kFrameHeaderBytes, 1.0).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(SendAll(conn.get(), first->data() + kFrameHeaderBytes,
                        first->size() - kFrameHeaderBytes, 1.0)
                    .ok());
    ASSERT_TRUE(SendAll(conn.get(), second->data(), second->size(), 1.0).ok());
    // Hold the stream open until the subscriber hangs up.
    char byte;
    (void)RecvAll(conn.get(), &byte, 1, 3.0);
  });

  std::vector<Key> delivered;
  Mutex delivered_mu;
  UpdateSubscriberOptions options = FastSubscriber();
  UpdateSubscriber subscriber(
      &topology, {0},
      [&](Key key, uint64_t) {
        MutexLock lock(delivered_mu);
        delivered.push_back(key);
      },
      [](NodeId, int) { return int64_t{0}; }, options);
  EXPECT_TRUE(WaitFor([&] { return subscriber.stats().notifications >= 2; },
                      2.0));
  subscriber.Stop();
  node.join();
  UpdateSubscriberStats stats = subscriber.stats();
  EXPECT_EQ(stats.notifications, 2);
  EXPECT_EQ(stats.reconnects, 0);
  EXPECT_EQ(stats.resyncs, 0);
  MutexLock lock(delivered_mu);
  EXPECT_EQ(delivered, (std::vector<Key>{7, 8}));
}

TEST(SubscriberTest, NotificationsReachTheInvokerAndKillStaleReads) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(2));
  ASSERT_TRUE(deploy.Start().ok());
  Key key = KeyOwnedBy(deploy.topology(), 0);
  ASSERT_TRUE(deploy.Seed(key, "old").ok());

  ParallelInvokerOptions iopts;
  iopts.num_threads = 2;
  ParallelInvoker invoker(&deploy.client(), EchoFn(), iopts);
  auto subscriber = deploy.MakeSubscriber(&invoker, FastSubscriber());
  ASSERT_TRUE(WaitFor([&] { return subscriber->AllSnapshotsSeen(); }, 5.0));

  // Warm the key so version floors / caches exist, then update it.
  for (int i = 0; i < 8; ++i) {
    auto r = invoker.FetchComp(key, "p");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, std::to_string(key) + "/p/old");
  }
  ASSERT_TRUE(deploy.Seed(key, "new").ok());
  ASSERT_TRUE(WaitFor(
      [&] { return subscriber->stats().notifications >= 1; }, 5.0))
      << "update event never arrived over the stream";

  // No stale read: the next fetches converge on the new value.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto r = invoker.FetchComp(key, "p");
        return r.ok() && *r == std::to_string(key) + "/p/new";
      },
      5.0))
      << "stale value survived an in-order invalidation";
}

TEST(SubscriberTest, SequenceGapAfterDroppedStreamTriggersTargetedResync) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(2));
  ASSERT_TRUE(deploy.Start().ok());
  Key gap_key = KeyOwnedBy(deploy.topology(), 0);
  Key safe_key = KeyOwnedBy(deploy.topology(), 1);
  ASSERT_TRUE(deploy.Seed(gap_key, "old").ok());
  ASSERT_TRUE(deploy.Seed(safe_key, "safe").ok());

  ParallelInvokerOptions iopts;
  iopts.num_threads = 2;
  ParallelInvoker invoker(&deploy.client(), EchoFn(), iopts);
  // A wide reconnect backoff keeps the subscriber deaf long enough that a
  // write after the drop is provably lost (not just delivered late).
  UpdateSubscriberOptions sopts = FastSubscriber();
  sopts.reconnect_backoff = 400e-3;
  auto subscriber = deploy.MakeSubscriber(&invoker, sopts);
  ASSERT_TRUE(WaitFor([&] { return subscriber->AllSnapshotsSeen(); }, 5.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(invoker.FetchComp(gap_key, "p").ok());
    ASSERT_TRUE(invoker.FetchComp(safe_key, "p").ok());
  }

  // Sever node 0's stream, update while the subscriber is deaf (inside its
  // reconnect backoff), and let it reconnect: the fresh snapshot's
  // sequence number is ahead of the last seen, which must be detected as a
  // gap and answered with a region re-sync.
  subscriber->DropConnectionForTest(0);
  // Let the teardown land before writing, so the event is provably lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(deploy.Seed(gap_key, "new").ok());
  ASSERT_TRUE(
      WaitFor([&] { return subscriber->stats().gaps_detected >= 1; }, 5.0))
      << "reconnect snapshot did not surface the missed updates as a gap";
  UpdateSubscriberStats stats = subscriber->stats();
  EXPECT_GE(stats.resyncs, 1);
  EXPECT_GE(stats.reconnects, 1);
  // Targeted: only the gapped region re-synced, not one per region.
  EXPECT_LT(stats.resyncs,
            static_cast<int64_t>(deploy.topology().num_regions()));

  // No stale read after the re-sync.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto r = invoker.FetchComp(gap_key, "p");
        return r.ok() && *r == std::to_string(gap_key) + "/p/new";
      },
      5.0))
      << "stale value survived the gap re-sync";
  // The safe key (other node, no gap) is untouched and still correct.
  auto safe = invoker.FetchComp(safe_key, "p");
  ASSERT_TRUE(safe.ok());
  EXPECT_EQ(*safe, std::to_string(safe_key) + "/p/safe");
}

TEST(SubscriberTest, NodeRestartBumpsEpochAndForcesResync) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(1));
  ASSERT_TRUE(deploy.Start().ok());
  Key key = 3;
  ASSERT_TRUE(deploy.Seed(key, "before").ok());

  ParallelInvokerOptions iopts;
  iopts.num_threads = 2;
  ParallelInvoker invoker(&deploy.client(), EchoFn(), iopts);
  auto subscriber = deploy.MakeSubscriber(&invoker, FastSubscriber());
  ASSERT_TRUE(WaitFor([&] { return subscriber->AllSnapshotsSeen(); }, 5.0));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(invoker.FetchComp(key, "p").ok());
  }

  // Crash, write while dark (in-process: the store outlives the server),
  // restart on the same port. The epoch bump must force re-syncs even
  // though per-epoch sequence numbers restarted from zero.
  deploy.KillDataNode(0);
  ASSERT_TRUE(deploy.data_node(0).service().Put(key, "after").ok());
  ASSERT_TRUE(deploy.RestartDataNode(0).ok());

  ASSERT_TRUE(
      WaitFor([&] { return subscriber->stats().epoch_bumps >= 1; }, 10.0))
      << "restart was not observed as an epoch bump";
  EXPECT_GE(subscriber->stats().resyncs, 1);

  ASSERT_TRUE(WaitFor(
      [&] {
        auto r = invoker.FetchComp(key, "p");
        return r.ok() && *r == std::to_string(key) + "/p/after";
      },
      5.0))
      << "stale value survived a node restart";
}

}  // namespace
}  // namespace joinopt

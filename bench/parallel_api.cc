// Throughput benchmark for the multi-threaded preMap/map executor
// (ParallelInvoker) against a latency-padded data service: the shape a
// networked deployment presents. Sweeps the worker-pool size over a
// zipf-skewed key popularity (the paper's skewed workloads) and reports
//   * ops/sec per thread count and the speedup over one worker,
//   * the live cache hit-rate, compared with the deterministic
//     single-threaded executor (one worker, one shard, FetchComp only) on
//     the same request sequence.
// Emits machine-readable BENCH_parallel_api.json so the perf trajectory
// is tracked across PRs.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "joinopt/common/random.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/latency_service.h"
#include "joinopt/engine/parallel_invoker.h"
#include "joinopt/engine/plan_exec.h"

namespace joinopt {
namespace bench {
namespace {

struct WorkloadConfig {
  uint64_t num_keys = 2048;
  double zipf_z = 0.99;
  size_t payload_bytes = 4096;
  int64_t ops = 8000;
  int window = 256;  // submit window between fetch drains
};

/// A cheap deterministic UDF: a few dozen mixing rounds over the payload
/// prefix (microseconds of CPU, so service latency dominates — the regime
/// the parallel executor targets).
UserFn MixUdf() {
  return [](Key key, const std::string& params, const std::string& value) {
    uint64_t acc = Mix64(key) ^ Fnv1a(params);
    size_t limit = value.size() < 256 ? value.size() : 256;
    for (size_t i = 0; i < limit; i += 8) {
      acc = Mix64(acc + static_cast<unsigned char>(value[i]));
    }
    return std::to_string(acc & 0xffff);
  };
}

std::vector<Key> MakeTrace(const WorkloadConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf(cfg.num_keys, cfg.zipf_z);
  std::vector<Key> trace;
  trace.reserve(static_cast<size_t>(cfg.ops));
  for (int64_t i = 0; i < cfg.ops; ++i) {
    trace.push_back(static_cast<Key>(zipf.Sample(rng)));
  }
  return trace;
}

struct RunResult {
  int threads = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double hit_rate = 0;
  int64_t delegated = 0;
  int64_t delegation_batches = 0;
  int64_t coalesced_fetches = 0;
  LatencyRecorder fetch_latency;  ///< per-FetchComp wall time (drain side)
};

ParallelInvokerOptions InvokerOptions(int threads) {
  ParallelInvokerOptions opt;
  opt.num_threads = threads;
  opt.bandwidth_bytes_per_sec = 125e6;
  opt.queue_capacity = 1024;
  return opt;
}

RunResult RunParallel(ParallelStore* store, const WorkloadConfig& cfg,
                      const std::vector<Key>& trace, int threads) {
  LocalDataService raw(store);
  ServiceLatencyModel latency;  // defaults: 400 us RTT, 1 Gbps, 20 us/UDF
  LatencyPaddedService service(&raw, latency);
  ParallelInvoker invoker(&service, MixUdf(), InvokerOptions(threads));

  RunResult out;
  double t0 = PlanNowSeconds();
  size_t i = 0;
  const size_t n = trace.size();
  while (i < n) {
    size_t end = std::min(i + static_cast<size_t>(cfg.window), n);
    for (size_t j = i; j < end; ++j) {
      invoker.SubmitComp(trace[j], "p");
    }
    for (size_t j = i; j < end; ++j) {
      double f0 = PlanNowSeconds();
      auto r = invoker.FetchComp(trace[j], "p");
      if (!r.ok()) {
        std::fprintf(stderr, "fetch failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
      out.fetch_latency.Observe(PlanNowSeconds() - f0);
    }
    i = end;
  }
  invoker.Barrier();
  double elapsed = PlanNowSeconds() - t0;

  ParallelInvokerStats s = invoker.stats();
  out.threads = threads;
  out.seconds = elapsed;
  out.ops_per_sec = static_cast<double>(n) / elapsed;
  out.hit_rate =
      static_cast<double>(s.served_from_cache) / static_cast<double>(n);
  out.delegated = s.delegated;
  out.delegation_batches = s.delegation_batches;
  out.coalesced_fetches = s.coalesced_fetches;
  return out;
}

/// Hit-rate of the deterministic single-threaded executor on the same
/// trace, against the same latency model: the measured compute-request
/// cost feeds the ski-rental threshold, so the baseline must see the same
/// service latencies the parallel runs do.
double SingleThreadedHitRate(ParallelStore* store,
                             const std::vector<Key>& trace) {
  LocalDataService raw(store);
  ServiceLatencyModel latency;
  LatencyPaddedService service(&raw, latency);
  ParallelInvokerOptions opt = InvokerOptions(/*threads=*/1);
  opt.num_shards = 1;
  ParallelInvoker invoker(&service, MixUdf(), opt);
  for (Key key : trace) {
    auto r = invoker.FetchComp(key, "p");
    if (!r.ok()) std::exit(1);
  }
  return static_cast<double>(invoker.stats().served_from_cache) /
         static_cast<double>(trace.size());
}

}  // namespace

int Main() {
  double scale = BenchScale();
  WorkloadConfig cfg;
  cfg.ops = static_cast<int64_t>(cfg.ops * scale);
  if (cfg.ops < 512) cfg.ops = 512;

  PrintHeader("parallel_api: multi-threaded preMap/map executor",
              "throughput scales with workers by overlapping service "
              "latency; hit-rate tracks the single-threaded executor");

  ParallelStore store(ParallelStoreConfig{}, {10, 11, 12, 13}, {0});
  {
    Rng rng(7);
    for (Key k = 0; k < cfg.num_keys; ++k) {
      StoredItem item;
      item.payload.assign(cfg.payload_bytes,
                          static_cast<char>('a' + (k % 26)));
      item.size_bytes = static_cast<double>(item.payload.size());
      store.Put(k, item);
    }
  }

  std::vector<Key> trace = MakeTrace(cfg, /*seed=*/42);
  double st_hit_rate = SingleThreadedHitRate(&store, trace);

  std::printf("%8s %12s %14s %10s %10s %10s %8s\n", "threads", "seconds",
              "ops/sec", "speedup", "hit_rate", "delegated", "batches");
  std::vector<RunResult> results;
  for (int threads : {1, 2, 4, 8}) {
    RunResult r = RunParallel(&store, cfg, trace, threads);
    double speedup =
        results.empty() ? 1.0 : r.ops_per_sec / results.front().ops_per_sec;
    std::printf("%8d %12.3f %14.0f %9.2fx %9.1f%% %10" PRId64 " %8" PRId64
                "\n",
                r.threads, r.seconds, r.ops_per_sec, speedup,
                100.0 * r.hit_rate, r.delegated, r.delegation_batches);
    char label[64];
    std::snprintf(label, sizeof(label), "  fetch latency @%d threads",
                  r.threads);
    r.fetch_latency.PrintLine(label);
    std::fflush(stdout);
    results.push_back(r);
  }

  double speedup_8v1 = results.back().ops_per_sec / results.front().ops_per_sec;
  std::printf("\nspeedup at 8 threads vs 1: %.2fx\n", speedup_8v1);
  std::printf("single-threaded executor hit-rate on this trace: %.1f%%\n",
              100.0 * st_hit_rate);

  FILE* json = std::fopen("BENCH_parallel_api.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel_api.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"parallel_api\",\n");
  std::fprintf(json, "  \"scale\": %.3f,\n", scale);
  std::fprintf(json, "  \"num_keys\": %" PRIu64 ",\n", cfg.num_keys);
  std::fprintf(json, "  \"zipf_z\": %.3f,\n", cfg.zipf_z);
  std::fprintf(json, "  \"payload_bytes\": %zu,\n", cfg.payload_bytes);
  std::fprintf(json, "  \"ops\": %" PRId64 ",\n", cfg.ops);
  std::fprintf(json, "  \"single_thread_executor_hit_rate\": %.4f,\n",
               st_hit_rate);
  std::fprintf(json, "  \"speedup_8_vs_1\": %.3f,\n", speedup_8v1);
  std::fprintf(json, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"seconds\": %.4f, \"ops_per_sec\": "
                 "%.1f, \"hit_rate\": %.4f, \"delegated\": %" PRId64
                 ", \"delegation_batches\": %" PRId64
                 ", \"coalesced_fetches\": %" PRId64 ", ",
                 r.threads, r.seconds, r.ops_per_sec, r.hit_rate, r.delegated,
                 r.delegation_batches, r.coalesced_fetches);
    r.fetch_latency.JsonFields(json, "fetch");
    std::fprintf(json, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_parallel_api.json\n");
  return 0;
}

}  // namespace bench
}  // namespace joinopt

int main() { return joinopt::bench::Main(); }

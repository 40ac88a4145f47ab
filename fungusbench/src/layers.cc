#include "layers.h"

#include <fstream>

#include "fungusdb/persist.h"

namespace fungusbench {

using fungusdb::ResultSet;

double TableBytes(const HealthNumbers& health) {
  double bytes = health.cellar_bytes;
  for (const auto& [name, t] : health.tables) bytes += t.memory_bytes;
  return bytes;
}

void ServerLayers(fungusdb::server::Client& client, const Prom& before,
                  const Prom& after, Outcome& out) {
  auto& l = out.layers;
  l["server.queue_wait_us.p50"] =
      HistQuantile(before, after, "fungusdb_server_queue_wait_us", 0.5);
  l["server.queue_wait_us.p99"] =
      HistQuantile(before, after, "fungusdb_server_queue_wait_us", 0.99);
  l["server.statement_us.p50"] =
      HistQuantile(before, after, "fungusdb_server_statement_latency_us", 0.5);
  l["server.statement_us.p99"] =
      HistQuantile(before, after, "fungusdb_server_statement_latency_us", 0.99);
  l["server.threads"] = Delta({}, after, "fungusdb_process_threads");
  l["server.overloaded"] =
      Delta(before, after, "fungusdb_server_requests_overloaded");
  l["core.pin_wait_us.p50"] =
      HistQuantile(before, after, "fungusdb_query_pin_wait_us", 0.5);
  l["core.pin_wait_us.p99"] =
      HistQuantile(before, after, "fungusdb_query_pin_wait_us", 0.99);
  l["core.epochs"] = Delta(before, after, "fungusdb_exec_epoch");

  const std::string tick = "fungusdb_decay_tick_duration_us";
  const std::string table = "table=\"readings\"";
  l["fungus.tick_us.p50"] = HistQuantile(before, after, tick, 0.5, table);
  l["fungus.tick_us.p99"] = HistQuantile(before, after, tick, 0.99, table);
  const double ticks = Delta(before, after, "fungusdb_decay_ticks");
  l["fungus.ticks"] = ticks;
  for (const char* c : {"segments_folded", "segments_skipped",
                        "rows_materialized", "tuples_touched",
                        "tuples_killed"}) {
    l[std::string("fungus.") + c] =
        Delta(before, after, std::string("fungusdb_decay_") + c);
  }
  // Morsels since boot, not just while timed: the served workloads must
  // never fan out (ThreadPool::ParallelFor race).
  l["parallel.morsels_dispatched"] =
      Delta({}, after, "fungusdb_parallel_morsels_dispatched");
  l["parallel.barrier_wait_us"] =
      Delta({}, after, "fungusdb_parallel_barrier_wait_us");
  l["storage.decode_batches"] =
      Delta(before, after, "fungusdb_storage_decode_batches");
  l["storage.thaws"] =
      Delta(before, after, "fungusdb_storage_thaw_count{" + table + "}");

  const ResultSet storage = MustRun(client, "\\storage readings");
  const double segments = static_cast<double>(storage.at(0, 1).AsInt64());
  l["fungus.fold_ratio"] = ticks > 0 && segments > 0
                               ? l["fungus.segments_folded"] / ticks / segments
                               : 0;
}

void StorageLayers(fungusdb::server::Client& client,
                   const HealthNumbers& health, Outcome& out) {
  const ResultSet storage = MustRun(client, "\\storage readings");
  const double encoded = static_cast<double>(storage.at(0, 3).AsInt64());
  out.layers["storage.frozen_segments"] =
      static_cast<double>(storage.at(0, 2).AsInt64());
  out.layers["storage.encoded_bytes"] = encoded;
  out.layers["storage.plain_bytes"] =
      health.tables.at("readings").memory_bytes - encoded;
  out.layers["summary.cellar_bytes"] = health.cellar_bytes;
  out.layers["pipeline.rows_cooked"] = static_cast<double>(health.rows_cooked);
}

void InProcessLayers(fungusdb::Database& db, Outcome& out) {
  fungusdb::MetricsRegistry& m = db.metrics();
  auto& l = out.layers;
  const fungusdb::HistogramMetric* tick =
      m.FindHistogram("fungusdb.decay.tick_duration_us", "table=readings");
  l["fungus.tick_us.p50"] = tick != nullptr ? tick->Quantile(0.5) : 0;
  l["fungus.tick_us.p99"] = tick != nullptr ? tick->Quantile(0.99) : 0;
  const double ticks =
      static_cast<double>(m.GetCounter("fungusdb.decay.ticks"));
  l["fungus.ticks"] = ticks;
  for (const char* c : {"segments_folded", "segments_skipped",
                        "rows_materialized", "tuples_touched",
                        "tuples_killed"}) {
    l[std::string("fungus.") + c] = static_cast<double>(
        m.GetCounter(std::string("fungusdb.decay.") + c));
  }
  fungusdb::TableHandle t = db.GetTable("readings").value();
  const fungusdb::StorageStats st = t.storage_stats();
  l["fungus.fold_ratio"] =
      ticks > 0 && st.total_segments > 0
          ? l["fungus.segments_folded"] / ticks /
                static_cast<double>(st.total_segments)
          : 0;
  l["parallel.morsels_dispatched"] = static_cast<double>(
      m.GetCounter("fungusdb.parallel.morsels_dispatched"));
  l["parallel.barrier_wait_us"] = static_cast<double>(
      m.GetCounter("fungusdb.parallel.barrier_wait_us"));
  l["storage.frozen_segments"] = static_cast<double>(st.frozen_segments);
  l["storage.encoded_bytes"] = static_cast<double>(st.encoded_bytes);
  l["storage.plain_bytes"] =
      static_cast<double>(t.memory_bytes()) - static_cast<double>(st.encoded_bytes);
  l["storage.thaws"] = static_cast<double>(st.thaw_count);
  l["storage.decode_batches"] = static_cast<double>(
      m.GetCounter("fungusdb.storage.decode_batches"));
  const fungusdb::HealthReport health = db.Health();
  l["summary.cellar_bytes"] = static_cast<double>(health.cellar_bytes);
  l["pipeline.rows_cooked"] = static_cast<double>(health.rows_cooked);
}

void DumpServerTrace(fungusdb::server::Client& client, const Options& options) {
  const ResultSet dump = MustRun(client, "\\trace dump");
  std::ofstream(options.workdir + "/fungusd_trace.json", std::ios::trunc)
      << dump.at(0, 0).AsString();
}

void PersistLayers(const std::string& snap, const Options& options,
                   Outcome& out) {
  auto began = SteadyClock::now();
  auto loaded = [&] {
    ScopedSpan span("persist.load");
    return fungusdb::LoadDatabaseSnapshot(snap);
  }();
  const double load_ms = SecondsSince(began) * 1e3;
  if (!loaded.ok()) throw HarnessError("load: " + loaded.status().ToString());
  const std::string copy = options.workdir + "/resaved.snap";
  began = SteadyClock::now();
  {
    ScopedSpan span("persist.save");
    if (!fungusdb::SaveDatabaseSnapshot(**loaded, copy).ok()) {
      throw HarnessError("save failed");
    }
  }
  out.layers["persist.save_ms"] = SecondsSince(began) * 1e3;
  out.layers["persist.load_ms"] = load_ms;
  out.layers["persist.snapshot_bytes"] = static_cast<double>(FileSize(snap));
  out.layers["persist.boot_overhead_ms"] =
      out.layers.at("persist.restart_ms") - load_ms;
}

}  // namespace fungusbench

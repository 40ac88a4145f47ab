// serve_mixed: a live stream with writes beside reads, as an open loop
// at one fixed offered rate. fungusd has retention and EGI attached to
// readings. Three wire connections send batched \insert requests,
// `recent` reads, and a periodic \advance plus a periodic CONSUME SELECT
// that drains the fungus-free alerts table fed by fault readings; a
// fourth connection scrapes GET /metrics at 1 Hz, as production does.
// Every request is timed from when it was due.
#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "harness.h"
#include "layers.h"
#include "rows.h"

namespace fungusbench {
namespace {

using fungusdb::ResultSet;
using fungusdb::kSecond;

constexpr int64_t kBaseRows = 4096;
constexpr int64_t kHorizon = 30 * 60;  // retention, seconds
constexpr int64_t kStep = 60;          // virtual seconds per \advance
// Offered load, about half of what a 4-core machine sustains (README).
constexpr double kWriteRate = 300;  // insert requests per second
constexpr int kRowsPerWrite = 10;
constexpr double kReadRate = 300;  // recent reads per second
// The third connection has 20 slots per second: \advance in even slots
// (10/s), CONSUME in every fourth slot (5/s).
constexpr double kTickerSlots = 20;
constexpr double kScrapeRate = 1;  // GET /metrics per second
// Untimed reads in set-up: enough that set-up lasts about 1.5 s, so a
// slow start of fresh processes on a shared machine, up to 0.7 s long,
// does not set its time. They go 40 to a request, so the server's work
// outweighs the round trips, whose cost on a shared machine swung by half
// between quarters of an hour.
constexpr int kWarmupRequests = 300;
constexpr size_t kWarmupReadsPerRequest = 40;

double MicrosSince(SteadyClock::time_point t) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t)
      .count();
}

/// Calls `send(k, due)` for k = 0, 1, ... at `rate` per second from
/// `t0 + offset` until `seconds` have passed, recording how late each
/// call started. `send` times its request from `due`.
void OpenLoop(
    SteadyClock::time_point t0, double rate, double offset, double seconds,
    Samples& late,
    const std::function<void(uint64_t, SteadyClock::time_point)>& send) {
  const auto n = static_cast<uint64_t>(seconds * rate);
  for (uint64_t k = 0; k < n; ++k) {
    const auto due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                              std::chrono::duration<double>(
                                  offset + static_cast<double>(k) / rate));
    std::this_thread::sleep_until(due);
    late.Add(MicrosSince(due));
    send(k, due);
  }
}

/// The `recent` read: the last ten virtual minutes before `now_s`.
std::string RecentSql(int64_t now_s) {
  return "SELECT count(*) AS n, avg(temp) AS a FROM readings WHERE __ts >= " +
         std::to_string((now_s - 10 * 60) * kSecond) +
         " AND __freshness > 0.5";
}

/// Concurrent inserts and EGI leave the exact answer of a `recent` read
/// open; it must still be a count with an average inside the generated
/// range.
bool WellFormedRecent(const fungusdb::Result<ResultSet>& rs) {
  return rs.ok() && rs->num_rows() == 1 && rs->at(0, 0).AsInt64() >= 0 &&
         (rs->at(0, 0).AsInt64() == 0 || (rs->at(0, 1).AsFloat64() >= 10.0 &&
                                          rs->at(0, 1).AsFloat64() <= 30.0));
}

struct Lane {
  Samples latency;    // microseconds from the due time
  Timeline timeline;  // the same, stamped with the due time
  Outcome out;
};

}  // namespace

Outcome RunServeMixed(const Options& options, SteadyClock::time_point start) {
  Outcome out;
  const std::string snap = options.workdir + "/mixed.snap";
  double insert_us = 0, gen_us = 0;
  BuildBaseSnapshot(options.seed, kBaseRows, snap, &insert_us, &gen_us);

  Fungusd daemon(options, "fungusd");
  daemon.Boot(snap);
  fungusdb::server::Client admin = daemon.Connect();
  MustRun(admin, "\\attach retention readings " + std::to_string(kStep) +
                     "s " + std::to_string(kHorizon) + "s");
  MustRun(admin, "\\attach egi readings " + std::to_string(kStep) + "s");
  MustRun(admin, "\\advance " + std::to_string(kStep) + "s");
  std::atomic<int64_t> now_s{kBaseRows + kStep};
  // Warm-up: `recent` reads in batched requests, checked, not timed.
  const std::vector<std::string> warm_batch(kWarmupReadsPerRequest,
                                            RecentSql(now_s.load()));
  for (int i = 0; i < kWarmupRequests; ++i) {
    for (const auto& rs : RunBatch(admin, warm_batch)) {
      if (!WellFormedRecent(rs)) {
        out.Mismatch("recent read in the warm-up: malformed answer");
      }
    }
  }
  const HealthNumbers at_start = RemoteHealth(admin);
  const Prom before = Scrape(daemon);
  out.Set("setup_s", SecondsSince(start), "s");

  Lane writes, reads, advances, consumes, scrapes;
  Samples late;
  std::mutex late_mu;
  uint64_t acked_readings = 0;
  std::vector<int64_t> acked_alerts, consumed;
  const double seconds = options.seconds;
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(20);
  auto record = [&t0](Lane& lane, SteadyClock::time_point due) {
    const double us = MicrosSince(due);
    lane.latency.Add(us);
    lane.timeline.Add(std::chrono::duration<double>(due - t0).count(), us);
  };
  auto lane_loop = [&](double rate, double offset,
                       const std::function<void(uint64_t, SteadyClock::time_point)>& send) {
    Samples mine;
    OpenLoop(t0, rate, offset, seconds, mine, send);
    std::lock_guard<std::mutex> lock(late_mu);
    late.Append(mine);
  };
  Threads threads;  // writer, reader, ticker, scraper

  threads.Start([&] {
    fungusdb::server::Client client = daemon.Connect();
    ReadingStream stream(options.seed + 1, kBaseRows);
    lane_loop(kWriteRate, 0, [&](uint64_t k, SteadyClock::time_point due) {
      std::vector<std::string> batch;
      std::vector<int64_t> alerts;
      for (int i = 0; i < kRowsPerWrite; ++i) {
        const Reading r = stream.Next();
        batch.push_back(InsertReading(r));
        if (r.fault) {
          batch.push_back(InsertAlert(r));
          alerts.push_back(r.event_id);
        }
      }
      std::vector<fungusdb::Result<ResultSet>> results = [&] {
        ScopedSpan span("client.insert", 0, k + 1);
        return RunBatch(client, batch);
      }();
      record(writes, due);
      ++writes.out.attempted;
      for (const auto& r : results) {
        if (!r.ok()) writes.out.Mismatch("insert: " + r.status().ToString());
      }
      acked_readings += kRowsPerWrite;
      acked_alerts.insert(acked_alerts.end(), alerts.begin(), alerts.end());
    });
  });

  threads.Start([&] {
    fungusdb::server::Client client = daemon.Connect();
    lane_loop(kReadRate, 0.5 / kReadRate,
              [&](uint64_t k, SteadyClock::time_point due) {
      const fungusdb::Result<ResultSet> rs = [&] {
        ScopedSpan span("client.recent", 0, k + 1);
        return Run(client, RecentSql(now_s.load()));
      }();
      record(reads, due);
      ++reads.out.attempted;
      if (!WellFormedRecent(rs)) {
        reads.out.Mismatch("recent read: malformed answer");
      }
    });
  });

  threads.Start([&] {
    fungusdb::server::Client client = daemon.Connect();
    lane_loop(kTickerSlots, 0, [&](uint64_t k, SteadyClock::time_point due) {
      if (k % 2 == 0) {
        const fungusdb::Result<ResultSet> rs = [&] {
          ScopedSpan span("client.advance", 0, k + 1);
          return Run(client, "\\advance " + std::to_string(kStep) + "s");
        }();
        record(advances, due);
        ++advances.out.attempted;
        if (!rs.ok()) {
          advances.out.Mismatch("advance: " + rs.status().ToString());
          return;
        }
        const int64_t now = now_s.fetch_add(kStep) + kStep;
        // After the tick no live row may be older than the horizon.
        const fungusdb::Result<ResultSet> old =
            Run(client, "SELECT count(*) AS n FROM readings WHERE __ts < " +
                            std::to_string((now - kHorizon) * kSecond));
        ++advances.out.attempted;
        if (!old.ok() || old->at(0, 0).AsInt64() != 0) {
          advances.out.Mismatch("rows older than the horizon are live");
        }
      } else if (k % 4 == 1) {
        const fungusdb::Result<ResultSet> rs = [&] {
          ScopedSpan span("client.consume", 0, k + 1);
          return Run(client, "CONSUME SELECT event_id FROM alerts");
        }();
        record(consumes, due);
        ++consumes.out.attempted;
        if (!rs.ok()) {
          consumes.out.Mismatch("consume: " + rs.status().ToString());
          return;
        }
        for (const auto& row : rs->rows) consumed.push_back(row[0].AsInt64());
      }
    });
  });

  threads.Start([&] {
    lane_loop(kScrapeRate, 0.25, [&](uint64_t, SteadyClock::time_point due) {
      const Prom prom = [&] {
        ScopedSpan span("http.scrape");
        return Scrape(daemon);
      }();
      record(scrapes, due);
      ++scrapes.out.attempted;
      if (prom.count("fungusdb_server_statements_total") == 0) {
        scrapes.out.Mismatch("scrape lacks the server counters");
      }
    });
  });
  threads.Join();
  const double answered_by = SecondsSince(t0);
  const Prom after = Scrape(daemon);

  uint64_t answered = 0;
  for (Lane* lane : {&writes, &reads, &advances, &consumes, &scrapes}) {
    out.attempted += lane->out.attempted;
    for (const std::string& m : lane->out.mismatches) out.Mismatch(m);
    if (lane != &scrapes) answered += lane->latency.size();
  }
  // An open loop answers what it is offered; its rate is the wire
  // requests answered over the time until the last answer. The latency
  // figure is the reads' (read_p50_us): a median over a mix of
  // sub-millisecond inserts and slower reads would sit on the boundary
  // between the two and jump with their proportions.
  const Timeline::Summary summary = reads.timeline.Windowed(seconds, 4.0);
  out.Set("ops_per_s", static_cast<double>(answered) / answered_by, "op/s");
  out.Set("op_p50_us", summary.p50, "us");

  // Drain what is left of the alerts, then check the books.
  const ResultSet rest = MustRun(admin, "CONSUME SELECT event_id FROM alerts");
  for (const auto& row : rest.rows) consumed.push_back(row[0].AsInt64());
  const HealthNumbers health = RemoteHealth(admin);
  const TableNumbers& r = health.tables.at("readings");
  const TableNumbers& a = health.tables.at("alerts");
  const uint64_t appended = r.appended - at_start.tables.at("readings").appended;
  if (appended != acked_readings || r.live + r.killed != r.appended) {
    out.Mismatch("readings: acknowledged " + std::to_string(acked_readings) +
                 ", appended " + std::to_string(appended) + ", live " +
                 std::to_string(r.live) + " + killed " +
                 std::to_string(r.killed) + " of " + std::to_string(r.appended));
  }
  // CONSUME tombstones what it returns, so a consumed alert counts as
  // killed: acknowledged = live + killed, and killed = consumed.
  std::sort(acked_alerts.begin(), acked_alerts.end());
  std::sort(consumed.begin(), consumed.end());
  if (a.appended != acked_alerts.size() || a.live != 0 ||
      a.killed != consumed.size() || consumed != acked_alerts) {
    out.Mismatch("alerts: acknowledged " + std::to_string(acked_alerts.size()) +
                 ", consumed " + std::to_string(consumed.size()) +
                 "; each alert must be consumed exactly once");
  }
  const ResultSet fresh =
      MustRun(admin, "SELECT count(*) AS n, min(__freshness) AS lo, "
                     "max(__freshness) AS hi FROM readings");
  if (fresh.at(0, 0).AsInt64() > 0 && !(fresh.at(0, 1).AsFloat64() > 0 &&
                                        fresh.at(0, 2).AsFloat64() <= 1)) {
    out.Mismatch("freshness outside (0, 1]");
  }
  const fungusdb::Result<ResultSet> fsck = Run(admin, "\\fsck");
  if (!fsck.ok()) out.Mismatch("fsck: " + fsck.status().ToString());
  out.Set("bytes_per_live_row",
          TableBytes(health) / static_cast<double>(std::max<uint64_t>(r.live, 1)),
          "B/row");

  if (options.trace) {
    ServerLayers(admin, before, after, out);
    StorageLayers(admin, health, out);
    auto& l = out.layers;
    l["storage.insert_us"] = insert_us;
    l["loadgen.gen_us_per_row"] = gen_us;
    l["loadgen.late_us.p99"] = late.Quantile(0.99);
    l["client.read_p50_us"] = reads.latency.Median();
    l["client.read_p99_us"] = reads.latency.Quantile(0.99);
    l["client.write_p50_us"] = writes.latency.Median();
    l["client.write_p99_us"] = writes.latency.Quantile(0.99);
    l["client.consume_p50_us"] = consumes.latency.Median();
    l["client.advance_p50_us"] = advances.latency.Median();
    l["http.scrape_ms.p50"] = scrapes.latency.Median() / 1e3;
    DumpServerTrace(admin, options);
  }
  PersistLeg(daemon, snap, "readings", r.live, 3, out);
  if (options.trace) PersistLayers(snap, options, out);
  return out;
}

}  // namespace fungusbench

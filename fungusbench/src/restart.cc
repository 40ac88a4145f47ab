// restart: a clean restart and a crash, over the wire. Each cycle starts
// from a fresh copy of one base snapshot:
//   1. boot fungusd and check the contents;
//   2. attach retention and insert acknowledged rows;
//   3. SIGTERM, boot again and check the contents;
//   4. \advance past the horizon and check that expired rows are gone;
//   5. insert more acknowledged rows, kill -9, boot again and check that
//      every acknowledged row is present.
// Step 4 fails every time today (snapshots do not keep fungus
// attachments: decay_lost_on_restart) and so does step 5 (fungusd keeps
// no journal: acked_write_lost). kill -9 leaves the page cache intact,
// so step 5 tests a process crash, not a power loss. Set-up builds the
// base snapshot and runs a few untimed warm-up cycles.
#include <cmath>

#include "harness.h"
#include "layers.h"
#include "rows.h"

namespace fungusbench {
namespace {

// With 200,000 base rows a boot is mostly the snapshot load rather than
// process start, and set-up mostly builds this base in process.
constexpr int64_t kBaseRows = 200000;
constexpr int kInsertRequests = 10;
// 100 rows per insert request, so the request rate measures mostly the
// server's work rather than the wake-ups of round trips.
constexpr int kRowsPerRequest = 100;
// Untimed cycles in set-up. Each boots fungusd three times, and the
// cost of starting processes swung too much between quarters of an hour
// on a shared machine to put more of them in set-up.
constexpr int kWarmupCycles = 1;
constexpr int64_t kHorizonHours = 6;
constexpr int64_t kMarkerSensor = 999;  // rows of step 5

struct Contents {
  int64_t n = 0;
  int64_t temp8_sum = 0;
  int64_t sensor_sum = 0;
  bool operator==(const Contents&) const = default;
  void Add(const Reading& r) {
    ++n;
    temp8_sum += r.temp8;
    sensor_sum += r.sensor_id;
  }
};

struct Cycle {
  fungusdb::server::Client* client = nullptr;
  Timeline* latency = nullptr;  // every request
  Timeline* reads = nullptr;    // the SELECTs only
  SteadyClock::time_point began;
  Outcome* out = nullptr;

  fungusdb::Result<fungusdb::ResultSet> Timed(const std::string& sql) {
    const auto t0 = SteadyClock::now();
    fungusdb::Result<fungusdb::ResultSet> rs = [&] {
      ScopedSpan span("client.statement", 0, latency->size() + 1);
      return Run(*client, sql);
    }();
    const double us = SecondsSince(t0) * 1e6;
    latency->Add(SecondsSince(began), us);
    if (sql.starts_with("SELECT")) reads->Add(SecondsSince(began), us);
    ++out->attempted;
    return rs;
  }

  /// One timed request carrying `statements`; every one must succeed.
  void Insert(const std::vector<std::string>& statements) {
    const auto t0 = SteadyClock::now();
    std::vector<fungusdb::Result<fungusdb::ResultSet>> results = [&] {
      ScopedSpan span("client.insert", 0, latency->size() + 1);
      return RunBatch(*client, statements);
    }();
    latency->Add(SecondsSince(began), SecondsSince(t0) * 1e6);
    ++out->attempted;
    for (const auto& r : results) {
      if (!r.ok()) out->Mismatch("insert: " + r.status().ToString());
    }
  }

  Contents Read() {
    const fungusdb::Result<fungusdb::ResultSet> rs = Timed(
        "SELECT count(*) AS n, sum(temp) AS t, sum(sensor_id) AS s FROM "
        "readings");
    Contents c;
    if (!rs.ok() || rs->num_rows() != 1) {
      out->Mismatch("contents query failed");
      return c;
    }
    c.n = rs->at(0, 0).AsInt64();
    if (c.n > 0) {
      c.temp8_sum = std::llround(rs->at(0, 1).AsFloat64() * 8.0);
      c.sensor_sum = rs->at(0, 2).AsInt64();
    }
    return c;
  }
};

/// What the cycles of one phase record: the set-up's warm-up cycles
/// and the timed ones keep separate books.
struct Record {
  Outcome out;
  Timeline latency, reads;
  Samples restart, shutdown, snapshot_bytes, table_bytes;
  double lifecycle_s = 0;  // spent booting, stopping and crashing fungusd
};

/// One cycle, steps 1 to 5, from a fresh copy of `base`; request
/// latencies are stamped against `began`.
void RunCycle(Fungusd& daemon, const std::string& base, const std::string& snap,
              const Contents& base_contents, ReadingStream& stream,
              SteadyClock::time_point began, Record& rec) {
  Outcome& out = rec.out;
  CopyFile(base, snap);
  auto boot = [&] {
    ScopedSpan span("persist.boot");
    rec.restart.Add(daemon.Boot(snap));
    rec.lifecycle_s += rec.restart.last();
  };
  auto terminate = [&] {
    ScopedSpan span("persist.shutdown");
    rec.shutdown.Add(daemon.Terminate());
    rec.lifecycle_s += rec.shutdown.last();
  };
  fungusdb::server::Client client = [&] {
    boot();
    return daemon.Connect();
  }();
  Cycle cycle{&client, &rec.latency, &rec.reads, began, &out};

  // 1. Boot on the base snapshot.
  if (!(cycle.Read() == base_contents)) out.Mismatch("base contents differ");

  // 2. Retention plus acknowledged rows.
  const fungusdb::Result<fungusdb::ResultSet> attached =
      cycle.Timed("\\attach retention readings 1h " +
                  std::to_string(kHorizonHours) + "h");
  if (!attached.ok()) out.Mismatch("attach: " + attached.status().ToString());
  Contents want = base_contents;
  for (int i = 0; i < kInsertRequests; ++i) {
    std::vector<std::string> batch;
    for (int j = 0; j < kRowsPerRequest; ++j) {
      const Reading r = stream.Next();
      want.Add(r);
      batch.push_back(InsertReading(r));
    }
    cycle.Insert(batch);
  }

  // 3. Clean restart: the contents must equal the record.
  terminate();
  rec.snapshot_bytes.Add(static_cast<double>(FileSize(snap)) /
                         static_cast<double>(want.n));
  boot();
  client = daemon.Connect();
  if (!(cycle.Read() == want)) {
    out.Mismatch("contents after a clean restart differ from the record");
  }
  const HealthNumbers health = RemoteHealth(client);
  rec.table_bytes.Add(TableBytes(health) / static_cast<double>(want.n));

  // 4. Past the horizon every row has expired, if decay survived.
  const fungusdb::Result<fungusdb::ResultSet> advanced = cycle.Timed(
      "\\advance " + std::to_string(kHorizonHours + 1) + "h");
  if (!advanced.ok()) out.Mismatch("advance: " + advanced.status().ToString());
  const Contents after_advance = cycle.Read();
  if (after_advance.n == want.n) {
    out.Fault("decay_lost_on_restart");
  } else if (after_advance.n != 0) {
    out.Mismatch("after the horizon " + std::to_string(after_advance.n) +
                 " rows remain");
  }

  // 5. Acknowledged rows, then a crash.
  for (int i = 0; i < kInsertRequests; ++i) {
    std::vector<std::string> batch;
    for (int j = 0; j < kRowsPerRequest; ++j) {
      Reading r = stream.Next();
      r.sensor_id = kMarkerSensor;
      batch.push_back(InsertReading(r));
    }
    cycle.Insert(batch);
  }
  {
    ScopedSpan span("persist.crash");
    const auto crashed = SteadyClock::now();
    daemon.Crash();
    rec.lifecycle_s += SecondsSince(crashed);
  }
  boot();
  client = daemon.Connect();
  const fungusdb::Result<fungusdb::ResultSet> acked = cycle.Timed(
      "SELECT count(*) AS n FROM readings WHERE sensor_id = " +
      std::to_string(kMarkerSensor));
  const int64_t acked_rows = kInsertRequests * kRowsPerRequest;
  if (!acked.ok()) {
    out.Mismatch("count after crash failed");
  } else if (acked->at(0, 0).AsInt64() == 0) {
    out.Fault("acked_write_lost");
  } else if (acked->at(0, 0).AsInt64() != acked_rows) {
    out.Mismatch("after a crash " + acked->at(0, 0).ToString() + " of " +
                 std::to_string(acked_rows) + " acknowledged rows remain");
  }
  terminate();
}

}  // namespace

Outcome RunRestart(const Options& options, SteadyClock::time_point start) {
  const std::string base = options.workdir + "/restart_base.snap";
  const std::string snap = options.workdir + "/restart.snap";
  double insert_us = 0, gen_us = 0;
  const std::vector<Reading> rows =
      BuildBaseSnapshot(options.seed, kBaseRows, base, &insert_us, &gen_us);
  Contents base_contents;
  for (const Reading& r : rows) base_contents.Add(r);
  Fungusd daemon(options, "fungusd");
  ReadingStream stream(options.seed + 1, kBaseRows);

  // Warm-up: whole checked cycles, not timed and not counted. Their
  // answers are checked like the timed ones; their faults are not
  // counted, so the failed share of attempted stays exact.
  Record warm;
  for (int i = 0; i < kWarmupCycles; ++i) {
    RunCycle(daemon, base, snap, base_contents, stream, SteadyClock::now(),
             warm);
  }
  Outcome out;
  out.correct = warm.out.correct;
  out.mismatches = warm.out.mismatches;
  out.Set("setup_s", SecondsSince(start), "s");

  Record rec;
  const auto began = SteadyClock::now();
  while (SecondsSince(began) < options.seconds) {
    RunCycle(daemon, base, snap, base_contents, stream, began, rec);
  }
  out.attempted = rec.out.attempted;
  out.failed = rec.out.failed;
  out.faults = rec.out.faults;
  for (const std::string& m : rec.out.mismatches) out.Mismatch(m);
  // The rate counts serving time only: the boots and stops between the
  // requests are persist.restart_ms and persist.shutdown_ms, and their
  // process start-up cost varied too much from run to run to bound.
  // The latency figure is the SELECTs', each a scan of the table a boot
  // has just loaded. The median over every request sits on the inserts,
  // and it moved by up to 1.8x between runs on a shared machine while
  // the SELECTs' held within a few percent.
  const Timeline::Summary summary = rec.reads.Windowed(options.seconds, 4.0);
  out.Set("ops_per_s",
          static_cast<double>(rec.latency.size()) /
              (SecondsSince(began) - rec.lifecycle_s),
          "op/s");
  out.Set("op_p50_us", summary.p50, "us");
  out.Set("bytes_per_live_row", rec.table_bytes.Median(), "B/row");
  out.layers["persist.restart_ms"] = rec.restart.Median() * 1e3;
  out.layers["persist.shutdown_ms"] = rec.shutdown.Median() * 1e3;
  out.Set("snapshot_bytes_per_row", rec.snapshot_bytes.Median(), "B/row");
  if (options.trace) {
    out.layers["storage.insert_us"] = insert_us;
    out.layers["loadgen.gen_us_per_row"] = gen_us;
    PersistLayers(snap, options, out);
  }
  return out;
}

}  // namespace fungusbench

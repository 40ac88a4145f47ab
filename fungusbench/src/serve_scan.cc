// serve_scan: dashboard reads over the wire, closed loop on four
// connections, no writes while timed. fungusd boots on a snapshot of an
// aged readings table; retention is ticked to a known virtual time and
// \freeze leaves most full segments frozen before timing starts. Every
// answer is checked against the benchmark's own tally of the generated
// rows under the retention rule (alive iff age < horizon at the last
// tick; freshness = 1 - age / horizon).
#include <algorithm>
#include <array>
#include <thread>

#include "fungusdb/fungi.h"
#include "fungusdb/persist.h"
#include "fungusdb/query.h"
#include "harness.h"
#include "layers.h"
#include "rows.h"

namespace fungusbench {
namespace {

using fungusdb::ResultSet;
using fungusdb::kSecond;

constexpr int64_t kRows = 48000;          // one reading per virtual second
constexpr int64_t kHorizon = 12 * 3600;   // retention, seconds
constexpr int64_t kPeriod = 3600;         // retention tick period, seconds
constexpr int64_t kTicks = 3;             // ticks before timing
constexpr int kConnections = 4;
// Untimed rounds per connection in set-up: enough that set-up lasts about
// 1.5 s, so a slow start of fresh processes on a shared machine, up to
// 0.7 s long, does not set its time.
constexpr int kWarmupRounds = 20;
constexpr int kVariants = 64;

enum Class { kAgg, kGroup, kRange, kRecent, kLookup, kNumClasses };
constexpr std::array<const char*, kNumClasses> kClassNames = {
    "agg", "group", "range", "recent", "lookup"};
constexpr std::array<const char*, kNumClasses> kSpanNames = {
    "client.agg", "client.group", "client.range", "client.recent",
    "client.lookup"};

struct Statement {
  std::string sql;
  Tally want;
  std::array<Tally, kSensors> groups;  // kGroup only
};

/// The statement pool with expected answers, from the live rows at the
/// last tick `last_tick` (seconds).
struct Plan {
  std::array<std::vector<Statement>, kNumClasses> pool;
};

Plan MakePlan(const std::vector<Reading>& rows, int64_t last_tick,
              uint64_t seed) {
  fungusdb::Rng rng(seed ^ 0x5CA9);
  // Row i is stamped (i + 1) s; it is alive iff last_tick - ts < horizon.
  const int64_t first_live = last_tick - kHorizon;  // index of first live
  auto age = [&](int64_t i) { return last_tick - (i + 1); };
  Plan plan;

  Statement agg;
  agg.sql = "SELECT count(*) AS n, avg(temp) AS a FROM readings";
  Statement group;
  group.sql =
      "SELECT sensor_id, count(*) AS n, avg(temp) AS a FROM readings "
      "GROUP BY sensor_id";
  for (int64_t i = first_live; i < kRows; ++i) {
    agg.want.Add(rows[static_cast<size_t>(i)]);
    group.groups[static_cast<size_t>(rows[static_cast<size_t>(i)].sensor_id)]
        .Add(rows[static_cast<size_t>(i)]);
  }
  plan.pool[kAgg].push_back(agg);
  plan.pool[kGroup].push_back(group);

  const int64_t youngest_age = age(kRows - 1);
  for (int v = 0; v < kVariants; ++v) {
    Statement range;
    const int64_t lo = rng.NextInt(120, 200);
    const int64_t hi = lo + 16;
    range.sql = "SELECT count(*) AS n FROM readings WHERE temp >= " +
                TempText(lo) + " AND temp < " + TempText(hi);
    Statement recent;
    // Window on __ts plus a freshness cut halfway between the discrete
    // freshness levels of two neighbouring seconds, so float rounding
    // of the accumulated decay cannot move a row across it.
    const int64_t ts_window = rng.NextInt(300, 1800);
    const int64_t f_window = rng.NextInt(300, 1800);
    const int64_t ts0 = last_tick - youngest_age - ts_window;
    const double f0 =
        1.0 - (static_cast<double>(youngest_age + f_window) + 0.5) /
                  static_cast<double>(kHorizon);
    char fbuf[40];
    std::snprintf(fbuf, sizeof(fbuf), "%.17g", f0);
    recent.sql = "SELECT count(*) AS n, avg(temp) AS a FROM readings WHERE "
                 "__ts >= " + std::to_string(ts0 * kSecond) +
                 " AND __freshness > " + fbuf;
    for (int64_t i = first_live; i < kRows; ++i) {
      const Reading& r = rows[static_cast<size_t>(i)];
      if (r.temp8 >= lo && r.temp8 < hi) range.want.Add(r);
      if (i + 1 >= ts0 && age(i) <= youngest_age + f_window) recent.want.Add(r);
    }
    plan.pool[kRange].push_back(range);
    plan.pool[kRecent].push_back(recent);

    // Lookup targets are fixed (not drawn from the seed) and sit well
    // inside the live range, so the outcome of a lookup does not depend
    // on the seed.
    Statement lookup;
    const int64_t span = kRows - first_live - 1024;
    const int64_t target = first_live + 512 + (v * 7919) % span;
    lookup.sql = "SELECT count(*) AS n FROM readings WHERE event_id = " +
                 std::to_string(kEventBase + target);
    lookup.want.n = 1;
    plan.pool[kLookup].push_back(lookup);
  }
  return plan;
}

/// Checks one answer; returns false when the op failed by a named fault.
void Check(Class c, const Statement& s, const fungusdb::Result<ResultSet>& rs,
           Outcome& out) {
  if (!rs.ok()) {
    out.Mismatch(std::string(kClassNames[c]) + ": " + rs.status().ToString());
    return;
  }
  const ResultSet& r = *rs;
  if (c == kGroup) {
    size_t groups = 0;
    for (const Tally& t : s.groups) groups += t.n > 0 ? 1 : 0;
    if (r.num_rows() != groups) {
      out.Mismatch("group: " + std::to_string(r.num_rows()) + " groups");
      return;
    }
    for (const auto& row : r.rows) {
      const int64_t sensor = row[0].AsInt64();
      if (sensor < 0 || sensor >= kSensors) {
        out.Mismatch("group: unknown sensor");
        return;
      }
      const Tally& t = s.groups[static_cast<size_t>(sensor)];
      if (row[1].AsInt64() != t.n || !Near(row[2].AsFloat64(), t.avg())) {
        out.Mismatch("group: sensor " + std::to_string(sensor) + " n=" +
                     row[1].ToString() + " want " + std::to_string(t.n));
        return;
      }
    }
    return;
  }
  if (r.num_rows() != 1) {
    out.Mismatch(std::string(kClassNames[c]) + ": rows=" +
                 std::to_string(r.num_rows()));
    return;
  }
  const int64_t n = r.at(0, 0).AsInt64();
  if (c == kLookup) {
    // Known fault: int64 equality goes through double above 2^53, so a
    // lookup matches every id that rounds to the same double.
    if (n != 1) out.Fault("lookup_int64");
    return;
  }
  bool ok = n == s.want.n;
  if (ok && r.num_columns() > 1 && s.want.n > 0) {
    ok = Near(r.at(0, 1).AsFloat64(), s.want.avg());
  }
  if (!ok) {
    out.Mismatch(std::string(kClassNames[c]) + ": n=" + std::to_string(n) +
                 " want " + std::to_string(s.want.n) + " (" + s.sql + ")");
  }
}

struct Worker {
  Outcome out;
  std::array<Samples, kNumClasses> latency;  // microseconds
  Timeline timeline;                         // every statement
  uint64_t statements = 0;
};

/// One connection's closed loop: whole rounds of the five classes until
/// `seconds` have passed since `began` (or `rounds` rounds when > 0).
void Loop(const Fungusd& daemon, const Plan& plan, int conn, uint64_t seed,
          SteadyClock::time_point began, double seconds, int rounds,
          Worker& w) {
  fungusdb::server::Client client = daemon.Connect();
  fungusdb::Rng rng(seed * 131 + static_cast<uint64_t>(conn));
  for (int round = 0;; ++round) {
    if (rounds > 0 ? round >= rounds : SecondsSince(began) >= seconds) break;
    const uint64_t round_span = Spans::Global().Begin("client.round");
    for (int c = 0; c < kNumClasses; ++c) {
      const auto& pool = plan.pool[static_cast<size_t>(c)];
      const size_t v = c == kLookup
                           ? static_cast<size_t>(conn * 17 + round) % pool.size()
                           : static_cast<size_t>(rng.NextBounded(pool.size()));
      const Statement& s = pool[v];
      const auto sent = SteadyClock::now();
      fungusdb::Result<ResultSet> rs = [&] {
        ScopedSpan span(kSpanNames[static_cast<size_t>(c)], round_span,
                        w.statements + 1);
        return Run(client, s.sql);
      }();
      const double us = SecondsSince(sent) * 1e6;
      w.latency[static_cast<size_t>(c)].Add(us);
      w.timeline.Add(SecondsSince(began), us);
      ++w.statements;
      ++w.out.attempted;
      Check(static_cast<Class>(c), s, rs, w.out);
    }
    Spans::Global().End(round_span);
  }
}

/// Replays fungusd's set-up in process on the same base snapshot and
/// times ParseQuery and Session::ExecuteRead per class.
void QueryLayers(const std::string& base, const Plan& plan,
                 const std::array<Samples, kNumClasses>& wire, Outcome& out) {
  auto loaded = fungusdb::LoadDatabaseSnapshot(base);
  if (!loaded.ok()) throw HarnessError("load: " + loaded.status().ToString());
  std::unique_ptr<fungusdb::Database> db = std::move(loaded).value();
  db->AttachFungus("readings",
                   std::make_unique<fungusdb::RetentionFungus>(kHorizon * kSecond),
                   kPeriod * kSecond)
      .value();
  if (!db->SetFreezeAfterIdleTicks("readings", 1).ok() ||
      !db->AdvanceTime(kTicks * kPeriod * kSecond).ok()) {
    throw HarnessError("in-process replay of the set-up failed");
  }
  fungusdb::Session session(db.get());
  for (int c = 0; c < kNumClasses; ++c) {
    Samples parse_us, exec_us;
    double scanned = 0, pruned = 0, seg_pruned = 0, matched = 0;
    const auto& pool = plan.pool[static_cast<size_t>(c)];
    const int reps = 3 * kVariants;
    for (int i = 0; i < reps; ++i) {
      const Statement& s = pool[static_cast<size_t>(i) % pool.size()];
      auto t0 = SteadyClock::now();
      fungusdb::Result<fungusdb::Query> q = [&] {
        ScopedSpan span("query.parse");
        return fungusdb::ParseQuery(s.sql);
      }();
      parse_us.Add(SecondsSince(t0) * 1e6);
      if (!q.ok()) throw HarnessError("parse: " + s.sql);
      t0 = SteadyClock::now();
      fungusdb::Result<ResultSet> rs = [&] {
        ScopedSpan span("query.execute");
        return session.ExecuteRead(*q);
      }();
      exec_us.Add(SecondsSince(t0) * 1e6);
      Check(static_cast<Class>(c), s, rs, out);
      if (rs.ok()) {
        scanned += static_cast<double>(rs->stats.rows_scanned);
        pruned += static_cast<double>(rs->stats.rows_pruned);
        seg_pruned += static_cast<double>(rs->stats.segments_pruned);
        matched += static_cast<double>(rs->stats.rows_matched);
      }
    }
    const std::string name = kClassNames[static_cast<size_t>(c)];
    const double per = 1.0 / reps;
    out.layers["query.parse_us." + name] = parse_us.Median();
    out.layers["query.exec_us." + name] = exec_us.Median();
    out.layers["query.rows_scanned." + name] = scanned * per;
    out.layers["query.rows_pruned." + name] = pruned * per;
    out.layers["query.segments_pruned." + name] = seg_pruned * per;
    out.layers["query.ns_per_row." + name] =
        scanned > 0 ? exec_us.Sum() * 1000.0 / scanned : 0;
    out.layers["query.match_ratio." + name] = scanned > 0 ? matched / scanned : 0;
    out.layers["server.overhead_us." + name] =
        wire[static_cast<size_t>(c)].Median() -
        (parse_us.Median() + exec_us.Median());
  }
}

}  // namespace

Outcome RunServeScan(const Options& options, SteadyClock::time_point start) {
  Outcome out;
  const std::string base = options.workdir + "/scan_base.snap";
  const std::string snap = options.workdir + "/scan.snap";
  double insert_us = 0, gen_us = 0;
  const std::vector<Reading> rows =
      BuildBaseSnapshot(options.seed, kRows, base, &insert_us, &gen_us);
  CopyFile(base, snap);

  Fungusd daemon(options, "fungusd");
  daemon.Boot(snap);
  fungusdb::server::Client admin = daemon.Connect();
  MustRun(admin, "\\attach retention readings " + std::to_string(kPeriod) +
                     "s " + std::to_string(kHorizon) + "s");
  MustRun(admin, "\\freeze readings 1");
  MustRun(admin, "\\advance " + std::to_string(kTicks * kPeriod) + "s");
  const int64_t last_tick = kRows + kTicks * kPeriod;
  const Plan plan = MakePlan(rows, last_tick, options.seed);

  // Warm-up: checked rounds on each connection in turn, not timed.
  {
    Worker warm;
    for (int c = 0; c < kConnections; ++c) {
      Loop(daemon, plan, c, options.seed + 7, SteadyClock::now(), 0,
           kWarmupRounds, warm);
    }
    out.correct = warm.out.correct;
    out.mismatches = warm.out.mismatches;
  }
  const Prom before = Scrape(daemon);
  out.Set("setup_s", SecondsSince(start), "s");

  std::vector<Worker> workers(kConnections);
  Threads threads;
  const auto began = SteadyClock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.Start([&, c] {
      Loop(daemon, plan, c, options.seed, began, options.seconds, 0,
           workers[static_cast<size_t>(c)]);
    });
  }
  threads.Join();

  Samples all;
  Timeline timeline;
  std::array<Samples, kNumClasses> by_class;
  for (Worker& w : workers) {
    for (int c = 0; c < kNumClasses; ++c) {
      all.Append(w.latency[static_cast<size_t>(c)]);
      by_class[static_cast<size_t>(c)].Append(w.latency[static_cast<size_t>(c)]);
    }
    timeline.Append(w.timeline);
    out.attempted += w.out.attempted;
    out.failed += w.out.failed;
    for (const auto& [k, v] : w.out.faults) out.faults[k] += v;
    for (const std::string& m : w.out.mismatches) out.Mismatch(m);
  }
  const Prom after = Scrape(daemon);
  const Timeline::Summary summary = timeline.Windowed(options.seconds, 1.0);
  out.Set("ops_per_s", summary.per_s, "op/s");
  out.Set("op_p50_us", summary.p50, "us");

  const fungusdb::Result<ResultSet> fsck = Run(admin, "\\fsck");
  if (!fsck.ok()) out.Mismatch("fsck: " + fsck.status().ToString());
  const HealthNumbers health = RemoteHealth(admin);
  const uint64_t live = health.tables.at("readings").live;
  if (live != static_cast<uint64_t>(plan.pool[kAgg][0].want.n)) {
    out.Mismatch("live rows " + std::to_string(live));
  }
  out.Set("bytes_per_live_row", TableBytes(health) / static_cast<double>(live),
          "B/row");

  if (options.trace) {
    ServerLayers(admin, before, after, out);
    StorageLayers(admin, health, out);
    out.layers["storage.insert_us"] = insert_us;
    out.layers["loadgen.gen_us_per_row"] = gen_us;
    out.layers["client.read_p50_us"] = all.Median();
    out.layers["client.read_p99_us"] = all.Quantile(0.99);
    DumpServerTrace(admin, options);
  }
  PersistLeg(daemon, snap, "readings", live, 3, out);
  if (options.trace) {
    PersistLayers(snap, options, out);
    QueryLayers(base, plan, by_class, out);
  }
  return out;
}

}  // namespace fungusbench

// ingest_decay: embedded ingest under the decay clock, one thread,
// default DatabaseOptions. Readings arrive at one virtual second per row
// through Database::IngestPaced with retention and EGI attached, idle
// segments freeze, and a kOnRot cook spec distills every dying row into
// the cellar. Set-up ingests 60 retention horizons first, so the live
// set is steady when timing starts.
#include <sched.h>

#include <algorithm>

#include "fungusdb/fungi.h"
#include "fungusdb/persist.h"
#include "harness.h"
#include "layers.h"
#include "rows.h"

namespace fungusbench {
namespace {

using fungusdb::kSecond;

constexpr int64_t kHorizon = 2 * 3600;  // retention, seconds
constexpr int64_t kPeriod = 60;         // tick period of both fungi, seconds
constexpr uint64_t kBatch = 64;         // rows per IngestPaced call
// Set-up ingests 60 horizons: the live set is steady after the first,
// and the rest makes set-up last long enough (about 1.5 s) that a slow
// start of a fresh process on a shared machine, up to 0.7 s long, does
// not set its time.
constexpr uint64_t kWarmRows = 60 * kHorizon;

/// Moves the calling thread to the next CPU it may run on every quarter
/// second, and back to all of them at the end. One busy thread otherwise
/// stays on the CPU it started on, so a run measures that CPU alone; on
/// a shared machine whole runs went at two thirds of the usual speed
/// (2,947 against 4,478 calls per second). Moving it samples every CPU,
/// as the workloads with several threads do.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Tick() {
    const auto now = SteadyClock::now();
    if (cpus_.size() < 2 || now - last_ < std::chrono::milliseconds(250)) {
      return;
    }
    last_ = now;
    next_ = (next_ + 1) % cpus_.size();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  SteadyClock::time_point last_ = SteadyClock::now();
};

/// Ingested = live + cooked; every live row obeys the retention rule at
/// the last retention tick; Fsck() is clean.
void Check(fungusdb::Database& db, uint64_t ingested, Outcome& out) {
  fungusdb::TableHandle t = db.GetTable("readings").value();
  const fungusdb::HealthReport health = db.Health();
  if (t.total_appended() != ingested ||
      ingested != t.live_rows() + health.rows_cooked) {
    out.Mismatch("ingested " + std::to_string(ingested) + " != live " +
                 std::to_string(t.live_rows()) + " + cooked " +
                 std::to_string(health.rows_cooked));
  }
  const fungusdb::verify::Report fsck = db.Fsck();
  if (!fsck.ok()) out.Mismatch("fsck: " + fsck.ToString());

  fungusdb::Session session(&db);
  const fungusdb::Result<fungusdb::ResultSet> rs =
      session.ExecuteRead("SELECT __ts, __freshness FROM readings");
  if (!rs.ok() || rs->num_rows() != t.live_rows()) {
    out.Mismatch("live scan disagrees with live_rows");
    return;
  }
  const int64_t last_tick = db.Now() / (kPeriod * kSecond) * (kPeriod * kSecond);
  for (const auto& row : rs->rows) {
    const int64_t ts = row[0].type() == fungusdb::DataType::kTimestamp
                           ? row[0].AsTimestamp()
                           : row[0].AsInt64();
    const double f = row[1].AsFloat64();
    const int64_t age = last_tick - ts;
    const double formula =
        age <= 0 ? 1.0
                 : 1.0 - static_cast<double>(age) /
                             static_cast<double>(kHorizon * kSecond);
    // A row whose age equals the horizon may outlive its last tick by a
    // rounding residue (CHANGES.md, FOUND); only older rows are wrong.
    if (!(f > 0 && f <= 1) || age > kHorizon * kSecond ||
        f > formula + 1e-9) {
      out.Mismatch("row at ts " + std::to_string(ts) + " has freshness " +
                   std::to_string(f) + ", retention allows " +
                   std::to_string(formula));
      return;
    }
  }
}

}  // namespace

Outcome RunIngestDecay(const Options& options, SteadyClock::time_point start) {
  Outcome out;
  fungusdb::Database db;
  fungusdb::TableOptions table_options;
  table_options.freeze_after_idle_ticks = 2;
  db.CreateTable("readings", ReadingsSchema(), table_options).value();
  db.AttachFungus("readings",
                  std::make_unique<fungusdb::RetentionFungus>(kHorizon * kSecond),
                  kPeriod * kSecond)
      .value();
  db.AttachFungus("readings",
                  std::make_unique<fungusdb::EgiFungus>(
                      fungusdb::EgiFungus::Params{}),
                  kPeriod * kSecond)
      .value();
  fungusdb::CookSpec spec;
  spec.table_name = "readings";
  spec.trigger = fungusdb::CookTrigger::kOnRot;
  spec.cellar_name = "temp_by_sensor";
  spec.column = "temp";
  spec.group_by = "sensor_id";
  if (!db.AddCookSpec(spec).ok()) throw HarnessError("cook spec refused");

  ReadingSource source(options.seed);
  auto ingest = [&](uint64_t rows) {
    fungusdb::Result<uint64_t> n =
        db.IngestPaced("readings", source, rows, kSecond);
    if (!n.ok() || *n != rows) throw HarnessError("IngestPaced failed");
  };
  // The rotation ends before fungusd is spawned for the persist leg.
  auto rotation = std::make_unique<CpuRotation>();
  for (uint64_t done = 0; done < kWarmRows; done += kHorizon) {
    rotation->Tick();
    ingest(kHorizon);
  }
  uint64_t ingested = kWarmRows;
  db.metrics().Reset();
  out.Set("setup_s", SecondsSince(start), "s");

  Samples latency;
  Timeline timeline;
  // Bytes per live row every 256 calls (16,384 virtual seconds): EGI
  // kills in bursts, so the value at one instant depends on where the
  // run happens to stop; the samples fall at the same virtual times in
  // every run of a seed.
  Samples bytes_per_row;
  const auto began = SteadyClock::now();
  while (SecondsSince(began) < options.seconds) {
    if (latency.size() % 256 == 0) {
      const fungusdb::HealthReport health = db.Health();
      bytes_per_row.Add(static_cast<double>(health.tables.at(0).memory_bytes +
                                            health.cellar_bytes) /
                        static_cast<double>(health.tables.at(0).live_rows));
    }
    rotation->Tick();
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan span("pipeline.ingest_paced", 0, latency.size() + 1);
      ingest(kBatch);
    }
    latency.Add(SecondsSince(t0) * 1e6);
    timeline.Add(SecondsSince(began), SecondsSince(t0) * 1e6);
    ingested += kBatch;
    ++out.attempted;
  }
  rotation.reset();
  const Timeline::Summary summary = timeline.Windowed(options.seconds, 1.0);
  out.Set("ops_per_s", summary.per_s, "op/s");
  out.Set("op_p50_us", summary.p50, "us");

  Check(db, ingested, out);
  const uint64_t live = db.GetTable("readings").value().live_rows();
  out.Set("bytes_per_live_row", bytes_per_row.Median(), "B/row");

  if (options.trace) {
    InProcessLayers(db, out);
    const fungusdb::HistogramMetric* tick = db.metrics().FindHistogram(
        "fungusdb.decay.tick_duration_us", "table=readings");
    const double tick_us = tick != nullptr ? static_cast<double>(tick->sum()) : 0;
    out.layers["pipeline.ingest_us_per_row"] =
        (latency.Sum() - tick_us) /
        static_cast<double>(latency.size() * kBatch);
  }

  const std::string snap = options.workdir + "/ingest.snap";
  {
    ScopedSpan span("persist.save");
    if (!fungusdb::SaveDatabaseSnapshot(db, snap).ok()) {
      throw HarnessError("save failed");
    }
  }
  Fungusd daemon(options, "fungusd");
  PersistLeg(daemon, snap, "readings", live, 3, out);
  if (options.trace) PersistLayers(snap, options, out);
  return out;
}

}  // namespace fungusbench

#include "rows.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "fungusdb/persist.h"
#include "harness.h"

namespace fungusbench {

using fungusdb::Value;

ReadingStream::ReadingStream(uint64_t seed, int64_t first)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x1F), next_(first) {}

Reading ReadingStream::Next() {
  Reading r;
  r.event_id = kEventBase + next_++;
  r.sensor_id = static_cast<int64_t>(rng_.NextBounded(kSensors));
  // Baselines spread over 14..26 degrees, noise +-4 degrees.
  r.temp8 = 112 + r.sensor_id * 3 / 2 + rng_.NextInt(-32, 32);
  r.fault = rng_.NextBernoulli(0.01);
  return r;
}

fungusdb::Schema ReadingsSchema() {
  return fungusdb::Schema::Parse(
             "(event_id int64, sensor_id int64, temp float64, status string)")
      .value();
}

fungusdb::Schema AlertsSchema() {
  return fungusdb::Schema::Parse("(event_id int64, sensor_id int64, temp float64)")
      .value();
}

std::vector<Value> ToValues(const Reading& r) {
  return {Value::Int64(r.event_id), Value::Int64(r.sensor_id),
          Value::Float64(r.temp()), Value::String(r.fault ? "fault" : "ok")};
}

std::string TempText(int64_t temp8) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(temp8) / 8.0);
  return buf;
}

std::string InsertReading(const Reading& r) {
  return "\\insert readings " + std::to_string(r.event_id) + "," +
         std::to_string(r.sensor_id) + "," + TempText(r.temp8) + "," +
         (r.fault ? "fault" : "ok");
}

std::string InsertAlert(const Reading& r) {
  return "\\insert alerts " + std::to_string(r.event_id) + "," +
         std::to_string(r.sensor_id) + "," + TempText(r.temp8);
}

std::optional<std::vector<Value>> ReadingSource::Next() {
  return ToValues(stream_.Next());
}

std::vector<Reading> BuildBaseSnapshot(uint64_t seed, int64_t rows,
                                       const std::string& path,
                                       double* insert_us, double* gen_us) {
  fungusdb::Database db;
  db.CreateTable("readings", ReadingsSchema()).value();
  db.CreateTable("alerts", AlertsSchema()).value();
  ReadingStream stream(seed);
  std::vector<Reading> readings;
  readings.reserve(static_cast<size_t>(rows));
  const auto gen_began = SteadyClock::now();
  for (int64_t i = 0; i < rows; ++i) readings.push_back(stream.Next());
  if (gen_us != nullptr) {
    *gen_us = SecondsSince(gen_began) * 1e6 / static_cast<double>(rows);
  }
  double total_us = 0;
  for (int64_t i = 0; i < rows; ++i) {
    db.clock().SetTime((i + 1) * fungusdb::kSecond);
    const std::vector<Value> values = ToValues(readings[static_cast<size_t>(i)]);
    const auto began = SteadyClock::now();
    const fungusdb::Result<fungusdb::RowId> row = db.Insert("readings", values);
    total_us += std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                          began)
                    .count();
    if (!row.ok()) throw HarnessError("insert: " + row.status().ToString());
  }
  if (insert_us != nullptr) *insert_us = total_us / static_cast<double>(rows);
  ScopedSpan span("persist.save");
  const fungusdb::Status saved = fungusdb::SaveDatabaseSnapshot(db, path);
  if (!saved.ok()) throw HarnessError("save: " + saved.ToString());
  return readings;
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace fungusbench

// The benchmark's inputs: an IoT-style stream of sensor readings, made
// from the run's seed, and the benchmark's own tallies of it.
//
// readings(event_id int64, sensor_id int64, temp float64, status string)
//
// Temperatures are multiples of 1/8, so every sum the engine and the
// benchmark compute is exact whatever the order of addition. Event ids
// are snowflake-style: 2^60 + the row's position in the stream. Row
// timestamps and ids do not depend on the seed; sensor, temperature and
// status do.
#ifndef FUNGUSBENCH_ROWS_H_
#define FUNGUSBENCH_ROWS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fungusdb/common.h"
#include "fungusdb/database.h"

namespace fungusbench {

inline constexpr int64_t kEventBase = int64_t{1} << 60;
inline constexpr int64_t kSensors = 64;

struct Reading {
  int64_t event_id = 0;
  int64_t sensor_id = 0;
  int64_t temp8 = 0;  // temperature in 1/8 degrees
  bool fault = false;

  double temp() const { return static_cast<double>(temp8) / 8.0; }
};

/// Deterministic reading stream: the i-th call yields event id
/// kEventBase + first + i.
class ReadingStream {
 public:
  ReadingStream(uint64_t seed, int64_t first = 0);
  Reading Next();

 private:
  fungusdb::Rng rng_;
  int64_t next_ = 0;
};

fungusdb::Schema ReadingsSchema();
/// The fungus-free alerts table that fault readings feed.
fungusdb::Schema AlertsSchema();

std::vector<fungusdb::Value> ToValues(const Reading& r);
/// `\insert readings ...` for one reading.
std::string InsertReading(const Reading& r);
/// `\insert alerts ...` for one fault reading.
std::string InsertAlert(const Reading& r);
/// Exact decimal text of a temperature in 1/8 degrees.
std::string TempText(int64_t temp8);

/// Feeds a ReadingStream to Database::IngestPaced.
class ReadingSource : public fungusdb::RecordSource {
 public:
  explicit ReadingSource(uint64_t seed) : stream_(seed), schema_(ReadingsSchema()) {}
  const fungusdb::Schema& schema() const override { return schema_; }
  std::optional<std::vector<fungusdb::Value>> Next() override;

 private:
  ReadingStream stream_;
  fungusdb::Schema schema_;
};

/// Builds a database whose `readings` table holds `rows` readings of
/// the stream, the i-th stamped at (i + 1) virtual seconds, plus an
/// empty `alerts` table, and saves it to `path`. Reports the mean
/// microseconds per Database::Insert and per generated row when the
/// pointers are non-null.
std::vector<Reading> BuildBaseSnapshot(uint64_t seed, int64_t rows,
                                       const std::string& path,
                                       double* insert_us = nullptr,
                                       double* gen_us = nullptr);

/// Count and exact temperature sum over a set of readings.
struct Tally {
  int64_t n = 0;
  int64_t temp8_sum = 0;
  void Add(const Reading& r) {
    ++n;
    temp8_sum += r.temp8;
  }
  double avg() const {
    return n == 0 ? 0.0 : static_cast<double>(temp8_sum) / 8.0 / static_cast<double>(n);
  }
};

/// True iff `got` equals `want` within a relative tolerance of 1e-9
/// (avg divides an exact sum by an exact count).
bool Near(double got, double want);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_ROWS_H_

// Shared machinery of the FungusBench driver: run options and outcome,
// latency samples, the in-memory span recorder of traced runs, the
// fungusd child process, and the helpers that read what fungusd exports
// (/metrics over HTTP, \health over the wire).
#ifndef FUNGUSBENCH_HARNESS_H_
#define FUNGUSBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fungusdb/client.h"

namespace fungusbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds elapsed since `t`.
double SecondsSince(SteadyClock::time_point t);

/// Microseconds on the steady clock (spans and latencies share it).
int64_t NowMicros();

/// A failure of the benchmark's own machinery (a child that will not
/// boot, a lost connection): the run ends without a result.
struct HarnessError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fungusd;  // path of the fungusd binary
  std::string workdir;  // per-run scratch directory (snapshots, logs)
};

/// What one run reports. `metrics` holds the end-to-end figures of an
/// untraced run, `layers` the per-layer figures of a traced one.
struct Outcome {
  struct Metric {
    double value = 0;
    std::string unit;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed operations by named, known program fault.
  std::map<std::string, uint64_t> faults;
  /// First few unexpected mismatches, for the log.
  std::vector<std::string> mismatches;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> layers;

  /// An answer that is wrong and not one of the named faults.
  void Mismatch(const std::string& what);
  /// One operation failed by a named fault.
  void Fault(const std::string& name);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Latency (or any) samples; quantiles by linear interpolation.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double last() const { return values_.back(); }
  double Sum() const;
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Samples stamped with when they were taken (seconds since the timed
/// window opened). The end-to-end figures are medians over equal
/// sub-windows, so one noisy second on a shared machine moves them little.
class Timeline {
 public:
  struct Summary {
    double per_s = 0;  // samples per second
    double p50 = 0;
  };

  void Add(double at_s, double v);
  void Append(const Timeline& other);
  size_t size() const { return at_.size(); }

  /// Splits [0, seconds) into windows of about `width` seconds (later samples
  /// fall in the last one) and returns the median over the windows of
  /// each window's rate and p50.
  Summary Windowed(double seconds, double width) const;

 private:
  std::vector<double> at_;
  std::vector<double> values_;
};

/// In-memory span recorder for traced runs: spans at the benchmark's
/// calls into each layer (name, start, end, parent, request id), kept in
/// memory and written out once the workload has ended. Disabled in
/// untraced runs, where Begin/End cost one branch.
class Spans {
 public:
  static Spans& Global();

  void Enable() { enabled_ = true; }

  /// Returns the new span's id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent = 0,
                 uint64_t request = 0);
  void End(uint64_t id);

  /// Writes one JSON object per line: id, parent, name, request,
  /// start_us, end_us.
  void WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    const char* name = "";
    uint64_t request = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
  };

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t parent = 0,
                      uint64_t request = 0)
      : id_(Spans::Global().Begin(name, parent, request)) {}
  ~ScopedSpan() { Spans::Global().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

/// One fungusd child process on --port 0 with port files in the run
/// directory. The child is killed and reaped by the destructor, by a
/// fatal signal to the driver (see InstallChildReaper), and by the
/// kernel if the driver itself dies (parent-death signal).
class Fungusd {
 public:
  Fungusd(const Options& options, std::string name);
  ~Fungusd();
  Fungusd(const Fungusd&) = delete;
  Fungusd& operator=(const Fungusd&) = delete;

  /// Spawns fungusd on `snapshot` and returns the seconds from spawn
  /// until its first statement (`\now`) is answered.
  double Boot(const std::string& snapshot);
  /// SIGTERM; returns seconds until the process has exited (the
  /// snapshot is written by then). Throws unless it exits with 0.
  double Terminate();
  /// SIGKILL and reap: a process crash.
  void Crash();

  bool running() const { return pid_ > 0; }
  uint16_t port() const { return port_; }
  uint16_t http_port() const { return http_port_; }

  /// A new wire connection.
  fungusdb::server::Client Connect() const;

 private:
  void Reap(bool expect_clean_exit);

  const Options& options_;
  std::string name_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  uint16_t http_port_ = 0;
};

/// Load-generator threads. An exception in one (a lost connection) is
/// kept and rethrown by Join once every thread has ended, instead of
/// terminating the driver with its fungusd child unreaped.
class Threads {
 public:
  Threads() = default;
  ~Threads();
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  void Start(std::function<void()> body);
  /// Joins every thread; rethrows the first exception any of them threw.
  void Join();

 private:
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::exception_ptr error_;
};

/// Kills and reaps every live fungusd child on SIGTERM, SIGINT or
/// SIGHUP before the driver exits.
void InstallChildReaper();

/// Runs one statement; a transport failure throws HarnessError, a
/// statement error is returned.
fungusdb::Result<fungusdb::ResultSet> Run(fungusdb::server::Client& client,
                                          const std::string& statement);
/// Runs a batch of statements as one request.
std::vector<fungusdb::Result<fungusdb::ResultSet>> RunBatch(
    fungusdb::server::Client& client,
    const std::vector<std::string>& statements);
/// Runs one statement that must succeed (throws otherwise).
fungusdb::ResultSet MustRun(fungusdb::server::Client& client,
                            const std::string& statement);

/// HTTP/1.0 GET against 127.0.0.1:port; returns the body.
std::string HttpGet(uint16_t port, const std::string& path);

/// Prometheus text exposition, by series (name plus label set).
using Prom = std::map<std::string, double>;
Prom ParseProm(const std::string& text);
Prom Scrape(const Fungusd& daemon);

/// Value of a series in `after` minus `before` (missing counts as 0).
double Delta(const Prom& before, const Prom& after, const std::string& key);
/// Quantile of the observations a histogram gained between two scrapes,
/// interpolated inside its power-of-two buckets. `labels` is the label
/// set without `le` (e.g. `worker="writer"`), empty for none.
double HistQuantile(const Prom& before, const Prom& after,
                    const std::string& name, double q,
                    const std::string& labels = "");

/// Per-table numbers parsed from a `\health` answer.
struct TableNumbers {
  uint64_t live = 0;
  uint64_t appended = 0;
  uint64_t killed = 0;
  double memory_bytes = 0;
};
struct HealthNumbers {
  std::map<std::string, TableNumbers> tables;
  double cellar_bytes = 0;
  uint64_t rows_cooked = 0;
};
HealthNumbers RemoteHealth(fungusdb::server::Client& client);

/// Copies a file (snapshots), replacing `to`.
void CopyFile(const std::string& from, const std::string& to);
uint64_t FileSize(const std::string& path);

/// Stops `daemon` (if running) with SIGTERM, which writes `snapshot`,
/// then boots fungusd on it `boots` times, checking each time that
/// `table` holds `live_rows`, and stops it cleanly again. Records
/// snapshot_bytes_per_row and the persist.restart_ms and
/// persist.shutdown_ms medians. Leaves `daemon` stopped.
void PersistLeg(Fungusd& daemon, const std::string& snapshot,
                const std::string& table, uint64_t live_rows, int boots,
                Outcome& out);

// --- The four workloads (one file each). ---
Outcome RunServeScan(const Options& options, SteadyClock::time_point start);
Outcome RunServeMixed(const Options& options, SteadyClock::time_point start);
Outcome RunIngestDecay(const Options& options,
                       SteadyClock::time_point start);
Outcome RunRestart(const Options& options, SteadyClock::time_point start);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_HARNESS_H_

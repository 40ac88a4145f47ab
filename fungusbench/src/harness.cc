#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "fungusdb/common.h"
#include "server/socket.h"

namespace fungusbench {

using fungusdb::Result;
using fungusdb::ResultSet;
using fungusdb::server::Client;

double SecondsSince(SteadyClock::time_point t) {
  return std::chrono::duration<double>(SteadyClock::now() - t).count();
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

void Outcome::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

void Outcome::Fault(const std::string& name) {
  ++failed;
  ++faults[name];
}

// --- Samples. ---

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double total = 0;
  for (double v : values_) total += v;
  return total;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void Timeline::Add(double at_s, double v) {
  at_.push_back(at_s);
  values_.push_back(v);
}

void Timeline::Append(const Timeline& other) {
  at_.insert(at_.end(), other.at_.begin(), other.at_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

Timeline::Summary Timeline::Windowed(double seconds, double width) const {
  const int windows = std::max(1, static_cast<int>(seconds / width));
  width = seconds / windows;
  std::vector<Samples> per(static_cast<size_t>(windows));
  for (size_t i = 0; i < at_.size(); ++i) {
    const int w = std::clamp(static_cast<int>(at_[i] / width), 0, windows - 1);
    per[static_cast<size_t>(w)].Add(values_[i]);
  }
  Samples rate, p50;
  for (const Samples& s : per) {
    rate.Add(static_cast<double>(s.size()) / width);
    p50.Add(s.Median());
  }
  return {rate.Median(), p50.Median()};
}

// --- Spans. ---

Spans& Spans::Global() {
  static Spans spans;
  return spans;
}

uint64_t Spans::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.request = request;
  span.start_us = now;
  spans_.push_back(span);
  return span.id;
}

void Spans::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_us = now;
}

void Spans::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
}

// --- Child processes. ---

namespace {

constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void TrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
  throw HarnessError("too many fungusd children");
}

void UntrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void ReapChildrenAndExit(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  _exit(128 + sig);
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Port number from a port file once it is completely written.
std::optional<uint16_t> ReadPortFile(const std::string& path) {
  const std::string text = ReadSmallFile(path);
  if (text.empty() || text.back() != '\n') return std::nullopt;
  return static_cast<uint16_t>(std::atoi(text.c_str()));
}

}  // namespace

Threads::~Threads() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Threads::Start(std::function<void()> body) {
  threads_.emplace_back([this, body = std::move(body)] {
    try {
      body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  });
}

void Threads::Join() {
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  if (error_) std::rethrow_exception(error_);
}

void InstallChildReaper() {
  struct sigaction sa {};
  sa.sa_handler = ReapChildrenAndExit;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) sigaction(sig, &sa, nullptr);
}

Fungusd::Fungusd(const Options& options, std::string name)
    : options_(options), name_(std::move(name)) {}

Fungusd::~Fungusd() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    Reap(/*expect_clean_exit=*/false);
  }
}

double Fungusd::Boot(const std::string& snapshot) {
  if (pid_ > 0) throw HarnessError(name_ + " already running");
  const std::string dir = options_.workdir;
  const std::string port_file = dir + "/" + name_ + ".port";
  const std::string http_file = dir + "/" + name_ + ".http_port";
  std::filesystem::remove(port_file);
  std::filesystem::remove(http_file);
  const std::string log = dir + "/" + name_ + ".log";
  std::vector<std::string> args = {options_.fungusd,
                                   "--port",
                                   "0",
                                   "--port-file",
                                   port_file,
                                   "--http-port",
                                   "0",
                                   "--http-port-file",
                                   http_file,
                                   "--snapshot",
                                   snapshot};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto spawned = SteadyClock::now();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw HarnessError("fork failed");
  if (pid == 0) {
    // The child dies with the driver, whatever ends the driver.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    if (options_.trace) {
      setenv("FUNGUSDB_TRACE", "1", 1);
    } else {
      unsetenv("FUNGUSDB_TRACE");
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  TrackChild(pid);

  while (true) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      UntrackChild(pid_);
      pid_ = -1;
      throw HarnessError(name_ + " exited during boot; see " + log);
    }
    const std::optional<uint16_t> port = ReadPortFile(port_file);
    if (port.has_value()) {
      port_ = *port;
      http_port_ = ReadPortFile(http_file).value_or(0);
      break;
    }
    if (SecondsSince(spawned) > 60) {
      throw HarnessError(name_ + " did not listen within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Client client = Connect();
  MustRun(client, "\\now");
  return SecondsSince(spawned);
}

double Fungusd::Terminate() {
  if (pid_ <= 0) throw HarnessError(name_ + " is not running");
  const auto sent = SteadyClock::now();
  kill(pid_, SIGTERM);
  Reap(/*expect_clean_exit=*/true);
  return SecondsSince(sent);
}

void Fungusd::Crash() {
  if (pid_ <= 0) throw HarnessError(name_ + " is not running");
  kill(pid_, SIGKILL);
  Reap(/*expect_clean_exit=*/false);
}

void Fungusd::Reap(bool expect_clean_exit) {
  const auto began = SteadyClock::now();
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(began) > 60) {
      // A shutdown that hangs is a failed run, not a stuck driver.
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      UntrackChild(pid_);
      pid_ = -1;
      throw HarnessError(name_ + " did not exit within 60 s of SIGTERM");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  UntrackChild(pid_);
  pid_ = -1;
  if (expect_clean_exit && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    throw HarnessError(name_ + " did not exit cleanly on SIGTERM");
  }
}

Client Fungusd::Connect() const {
  Result<Client> client = Client::Connect("127.0.0.1", port_);
  if (!client.ok()) {
    throw HarnessError("connect: " + client.status().ToString());
  }
  return std::move(client).value();
}

// --- Wire helpers. ---

std::vector<Result<ResultSet>> RunBatch(Client& client,
                                        const std::vector<std::string>& statements) {
  Result<std::vector<Result<ResultSet>>> results = client.Execute(statements);
  if (!results.ok()) {
    throw HarnessError("wire: " + results.status().ToString());
  }
  if (results->size() != statements.size()) {
    throw HarnessError("wire: answer count differs from statement count");
  }
  return std::move(results).value();
}

Result<ResultSet> Run(Client& client, const std::string& statement) {
  std::vector<Result<ResultSet>> results = RunBatch(client, {statement});
  return std::move(results.front());
}

ResultSet MustRun(Client& client, const std::string& statement) {
  Result<ResultSet> rs = Run(client, statement);
  if (!rs.ok()) {
    throw HarnessError("statement failed: " + statement + ": " +
                       rs.status().ToString());
  }
  return std::move(rs).value();
}

std::string HttpGet(uint16_t port, const std::string& path) {
  Result<fungusdb::server::UniqueFd> fd =
      fungusdb::server::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) throw HarnessError("http connect: " + fd.status().ToString());
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!fungusdb::server::WriteAll(fd->get(), request).ok()) {
    throw HarnessError("http write failed");
  }
  std::string response;
  char buf[65536];
  while (true) {
    const ssize_t n = read(fd->get(), buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  const size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.1 200") != 0 &&
      response.compare(0, 12, "HTTP/1.0 200") != 0) {
    throw HarnessError("http " + path + ": " +
                       response.substr(0, response.find('\r')));
  }
  return body == std::string::npos ? "" : response.substr(body + 4);
}

Prom ParseProm(const std::string& text) {
  Prom prom;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    prom[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return prom;
}

Prom Scrape(const Fungusd& daemon) {
  return ParseProm(HttpGet(daemon.http_port(), "/metrics"));
}

double Delta(const Prom& before, const Prom& after, const std::string& key) {
  auto value = [&key](const Prom& p) {
    auto it = p.find(key);
    return it == p.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

double HistQuantile(const Prom& before, const Prom& after,
                    const std::string& name, double q,
                    const std::string& labels) {
  const std::string prefix =
      name + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  std::vector<std::pair<double, double>> buckets;  // (le, delta cumulative)
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string le = it->first.substr(prefix.size());
    if (le.rfind("+Inf", 0) == 0) continue;
    buckets.emplace_back(std::strtod(le.c_str(), nullptr),
                         Delta(before, after, it->first));
  }
  std::sort(buckets.begin(), buckets.end());
  if (buckets.empty() || buckets.back().second <= 0) return 0;
  const double target = q * buckets.back().second;
  double prev_le = 0;
  double prev_count = 0;
  for (const auto& [le, count] : buckets) {
    if (count >= target && count > prev_count) {
      return prev_le + (le - prev_le) * (target - prev_count) /
                           (count - prev_count);
    }
    prev_le = le;
    prev_count = count;
  }
  return buckets.back().first;
}

namespace {

HealthNumbers ParseHealth(const std::string& text) {
  // "  table t: live=L/A killed=K segments=S mem=1.2 MiB mean_fr..."
  // "  cellar: N entries, 3.4 KiB, rows_cooked=C"
  auto bytes = [](const std::string& s) {
    double v = std::strtod(s.c_str(), nullptr);
    if (s.find("KiB") != std::string::npos) v *= 1024.0;
    if (s.find("MiB") != std::string::npos) v *= 1024.0 * 1024.0;
    if (s.find("GiB") != std::string::npos) v *= 1024.0 * 1024.0 * 1024.0;
    return v;
  };
  HealthNumbers out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t table = line.find("table ");
    if (table != std::string::npos) {
      const size_t colon = line.find(':', table);
      TableNumbers t;
      const std::string name = line.substr(table + 6, colon - table - 6);
      t.live = std::strtoull(line.c_str() + line.find("live=") + 5, nullptr, 10);
      t.appended = std::strtoull(line.c_str() + line.find('/', colon) + 1,
                                 nullptr, 10);
      t.killed =
          std::strtoull(line.c_str() + line.find("killed=") + 7, nullptr, 10);
      const size_t mem = line.find("mem=") + 4;
      t.memory_bytes = bytes(line.substr(mem, line.find(" mean") - mem));
      out.tables[name] = t;
      continue;
    }
    const size_t cellar = line.find("cellar:");
    if (cellar != std::string::npos) {
      const size_t comma = line.find(", ");
      const size_t comma2 = line.find(", ", comma + 2);
      out.cellar_bytes = bytes(line.substr(comma + 2, comma2 - comma - 2));
      out.rows_cooked = std::strtoull(
          line.c_str() + line.find("rows_cooked=") + 12, nullptr, 10);
    }
  }
  return out;
}

}  // namespace

HealthNumbers RemoteHealth(Client& client) {
  const ResultSet rs = MustRun(client, "\\health");
  if (rs.rows.empty()) throw HarnessError("empty \\health answer");
  return ParseHealth(rs.at(0, 0).ToString());
}

void CopyFile(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing);
}

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

void PersistLeg(Fungusd& daemon, const std::string& snapshot,
                const std::string& table, uint64_t live_rows, int boots,
                Outcome& out) {
  Samples restart;
  Samples shutdown;
  if (daemon.running()) {
    ScopedSpan span("persist.shutdown");
    shutdown.Add(daemon.Terminate());
  }
  const uint64_t bytes = FileSize(snapshot);
  const std::string count = "SELECT count(*) AS n FROM " + table;
  for (int i = 0; i < boots; ++i) {
    {
      ScopedSpan span("persist.boot");
      restart.Add(daemon.Boot(snapshot));
    }
    Client client = daemon.Connect();
    const ResultSet rs = MustRun(client, count);
    if (static_cast<uint64_t>(rs.at(0, 0).AsInt64()) != live_rows) {
      out.Mismatch("after a clean restart " + table + " holds " +
                   rs.at(0, 0).ToString() + " rows, expected " +
                   std::to_string(live_rows));
    }
    ScopedSpan span("persist.shutdown");
    shutdown.Add(daemon.Terminate());
  }
  out.layers["persist.restart_ms"] = restart.Median() * 1e3;
  out.layers["persist.shutdown_ms"] = shutdown.Median() * 1e3;
  out.Set("snapshot_bytes_per_row",
          static_cast<double>(bytes) / static_cast<double>(std::max<uint64_t>(live_rows, 1)),
          "B/row");
}

}  // namespace fungusbench

// fungusbench — drives one FungusBench workload and prints its outcome
// as one JSON line. run.py builds this binary and fungusd, makes the
// per-run directory, and turns the line into the benchmark's report.
//
//   fungusbench --workload serve_scan --seed 1 --seconds 10 --trace 0
//               --fungusd <path> --workdir <dir>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "fungusdb/common.h"
#include "harness.h"

namespace {

using fungusbench::Outcome;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Print(const Outcome& out) {
  std::string json = "{\"correct\":" + std::string(out.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) + ",\"faults\":{";
  bool first = true;
  for (const auto& [name, n] : out.faults) {
    json += (first ? "" : ",") + JsonString(name) + ":" + std::to_string(n);
    first = false;
  }
  json += "},\"mismatches\":[";
  first = true;
  for (const std::string& m : out.mismatches) {
    json += (first ? "" : ",") + JsonString(m);
    first = false;
  }
  json += "],\"metrics\":{";
  first = true;
  for (const auto& [name, m] : out.metrics) {
    json += (first ? "" : ",") + JsonString(name) + ":{\"value\":" +
            JsonNumber(m.value) + ",\"unit\":" + JsonString(m.unit) + "}";
    first = false;
  }
  json += "},\"layers\":{";
  first = true;
  for (const auto& [name, v] : out.layers) {
    json += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(v);
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: fungusbench --workload <serve_scan|serve_mixed|"
               "ingest_decay|restart> --seed <n> --seconds <s> --trace <0|1> "
               "--fungusd <path> --workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = fungusbench::SteadyClock::now();
  fungusbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--fungusd") {
      options.fungusd = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.fungusd.empty() || options.workdir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  fungusbench::InstallChildReaper();
  if (options.trace) {
    fungusbench::Spans::Global().Enable();
    fungusdb::Tracer::Global().Enable();
  }
  try {
    Outcome out;
    if (options.workload == "serve_scan") {
      out = fungusbench::RunServeScan(options, start);
    } else if (options.workload == "serve_mixed") {
      out = fungusbench::RunServeMixed(options, start);
    } else if (options.workload == "ingest_decay") {
      out = fungusbench::RunIngestDecay(options, start);
    } else if (options.workload == "restart") {
      out = fungusbench::RunRestart(options, start);
    } else {
      return Usage();
    }
    if (options.trace) {
      fungusbench::Spans::Global().WriteJsonLines(options.workdir +
                                                  "/spans.jsonl");
      std::ofstream(options.workdir + "/inprocess_trace.json")
          << fungusdb::Tracer::Global().ExportChromeJson();
    }
    Print(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fungusbench: %s\n", e.what());
    return 1;
  }
}

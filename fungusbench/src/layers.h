// Per-layer figures of traced runs, read from what fungusd and the
// library already export: /metrics deltas over the timed window,
// \storage, \health, \trace dump, and the persist calls timed in
// process.
#ifndef FUNGUSBENCH_LAYERS_H_
#define FUNGUSBENCH_LAYERS_H_

#include <string>

#include "fungusdb/database.h"
#include "harness.h"

namespace fungusbench {

/// Table bytes (plain plus encoded) of every table plus cellar bytes.
double TableBytes(const HealthNumbers& health);

/// server.*, core.*, fungus.*, parallel.* and the storage counters from
/// two /metrics scrapes around the timed window.
void ServerLayers(fungusdb::server::Client& client, const Prom& before,
                  const Prom& after, Outcome& out);

/// storage.* occupancy of `readings` and summary.cellar_bytes.
void StorageLayers(fungusdb::server::Client& client,
                   const HealthNumbers& health, Outcome& out);

/// fungus.*, parallel.*, storage.* and summary.* of an in-process
/// database whose metrics were reset when timing started.
void InProcessLayers(fungusdb::Database& db, Outcome& out);

/// Writes fungusd's span ring (`\trace dump`) to the run directory,
/// where run.py folds it into the per-layer table.
void DumpServerTrace(fungusdb::server::Client& client, const Options& options);

/// persist.save_ms, persist.load_ms and persist.snapshot_bytes on the
/// snapshot `snap`, timed in process; persist.boot_overhead_ms from the
/// restart_s already in `out`.
void PersistLayers(const std::string& snap, const Options& options,
                   Outcome& out);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_LAYERS_H_

// Persistent job queue: one self-describing envelope per job, in a
// directory next to (or inside) the content-addressed result cache.
//
// The store is the durability layer of the job service.  Every mutation —
// admission, a state transition, each per-cell checkpoint — rewrites the
// job's envelope atomically (temp file + rename, the same discipline as
// cache::ResultCache), so a daemon killed at any instant leaves a
// directory that load() can fully reconstruct: terminal jobs stay
// terminal, and jobs caught in `preparing`/`running` are reset to
// `queued` so the scheduler simply runs them again.  Cells already
// computed land back instantly from the result cache, which is what makes
// the re-run cheap and the replayed artifact byte-identical.
//
// An empty directory string disables persistence: the store is then a
// plain in-memory queue (a daemon without --cache-dir still offers the
// async verbs, it just forgets jobs on restart).
//
// All operations are thread-safe; claim_next() is the single consumer
// entry point workers race on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "jobs/job.h"
#include "util/json.h"

namespace clktune::jobs {

class JobStore {
 public:
  /// Creates `directory` (and parents) when non-empty.
  explicit JobStore(std::string directory);

  /// Recovers every parseable envelope in the directory; interrupted jobs
  /// (preparing/running) are reset to queued and re-persisted.  Corrupt
  /// or foreign files are skipped.  Returns the number of jobs loaded.
  std::size_t load();

  /// Admits a new job: assigns `<hash12>-<nonce8>` id, the next sequence
  /// number and timestamps, persists the envelope, returns the record.
  JobRecord create(util::Json doc, std::string kind, std::string name,
                   std::optional<std::vector<std::size_t>> indices,
                   std::size_t cells_total);

  std::optional<JobRecord> get(const std::string& id) const;
  /// Every job, in submission (sequence) order.
  std::vector<JobRecord> list() const;

  /// Claims the oldest queued job for a worker: queued → preparing,
  /// persisted.  nullopt when nothing is queued.
  std::optional<JobRecord> claim_next();

  /// Unconditional transition (the worker path: preparing → running,
  /// running → done/error/cancelled).  Throws JobError on an unknown id.
  JobRecord set_state(const std::string& id, JobState state,
                      const std::string& error = {});

  /// Atomic cancel-if-queued: a queued job becomes cancelled; any other
  /// state is returned unchanged (the caller then cancels cooperatively).
  /// Throws JobError on an unknown id.
  JobRecord cancel_if_queued(const std::string& id);

  /// One per-cell checkpoint: records the finished global index (idempotent
  /// per index), bumps the cached / targets-missed counters, persists.
  /// Throws JobError on an unknown id.
  JobRecord record_cell(const std::string& id, std::size_t index, bool cached,
                        bool missed_target);

  /// Drops the oldest terminal jobs beyond `keep` (memory and disk) so an
  /// immortal daemon's job history stays bounded.  Returns #removed.
  std::size_t prune_terminal(std::size_t keep);

  const std::string& directory() const { return directory_; }

 private:
  void persist_locked(const JobRecord& rec) const;
  void unlink_locked(const JobRecord& rec) const;

  std::string directory_;
  mutable std::mutex mutex_;
  std::map<std::string, JobRecord> jobs_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace clktune::jobs

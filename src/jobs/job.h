// The durable async-job model: one record per submitted document.
//
// A job is a scenario or campaign submission with a persistent lifecycle
// that outlives the TCP connection that created it — the fire-and-forget
// admission path of the serve daemon.  Its state machine is explicit and
// monotone:
//
//     queued ──▶ preparing ──▶ running ──▶ done
//                                │    └──▶ error
//        └──────────┴────────────┴───────▶ cancelled
//
// `queued` means admitted and persisted; `preparing` that a scheduler
// worker has claimed it (parse + validate + expansion); `running` that
// cells are executing; the three terminal states never change again.  A
// daemon killed mid-`preparing`/`running` leaves the envelope in that
// state on disk — recovery (JobStore::load) resets it to `queued` so the
// job simply runs again, warm from the result cache.
//
// Job ids are `<content-hash-12>-<nonce-8>`: a SHA-256 prefix of the
// canonical resolved document (plus the explicit index selection) names
// *what* runs, the submission nonce distinguishes repeated submissions of
// the same document — resubmitting is always a new job, but the shared
// prefix makes duplicates visible to an operator at a glance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"

namespace clktune::jobs {

/// A job-layer failure surfaced to the protocol (unknown id, bad verb
/// usage).  Execution failures are not exceptions — they are the `error`
/// terminal state of the job itself.
class JobError : public std::runtime_error {
 public:
  explicit JobError(const std::string& what) : std::runtime_error(what) {}
};

enum class JobState {
  queued,     ///< admitted, persisted, waiting for a worker
  preparing,  ///< claimed by a worker, not yet executing cells
  running,    ///< cells executing
  done,       ///< terminal: every selected cell finished
  error,      ///< terminal: execution failed (see JobRecord::error)
  cancelled,  ///< terminal: cancelled by request
};

const char* to_string(JobState state);
/// Throws util::JsonError on an unknown name (a corrupt envelope).
JobState job_state_from_string(const std::string& name);
bool is_terminal(JobState state);

/// One job: identity, lifecycle, the resolved document it runs and the
/// per-cell progress checkpoints.  Serialises to a self-describing
/// envelope (schema-tagged, all state embedded) so a jobs directory is
/// recoverable with no side tables.
struct JobRecord {
  std::string id;
  std::uint64_t seq = 0;  ///< submission order within one store
  JobState state = JobState::queued;
  std::string kind;  ///< "scenario" | "campaign"
  std::string name;  ///< scenario/campaign name, for humans
  util::Json doc;    ///< resolved document (exec::Request::document)
  /// Explicit expansion-index selection (campaign work units), never
  /// empty; absent = the whole expansion.
  std::optional<std::vector<std::size_t>> indices;
  std::size_t cells_total = 0;  ///< cells the selection covers
  /// Global expansion indices already finished, sorted — the per-cell
  /// checkpoints that make a half-run job resumable and replayable.
  std::vector<std::size_t> done_indices;
  std::uint64_t cached = 0;          ///< finished cells served from cache
  std::uint64_t targets_missed = 0;  ///< finished cells below yield target
  std::string error;                 ///< diagnostic for the error state
  std::uint64_t created_ms = 0;      ///< Unix epoch milliseconds
  std::uint64_t updated_ms = 0;

  /// The global expansion indices this job covers, in streaming order:
  /// the explicit list when present, 0..cells_total otherwise.
  std::vector<std::size_t> selection() const;

  /// Self-describing persistence envelope.
  util::Json to_json() const;
  /// Throws util::JsonError on a non-envelope or corrupt document.
  static JobRecord from_json(const util::Json& j);

  /// The wire "job" frame of the serve protocol (docs/serve_protocol.md):
  /// identity + lifecycle + progress, never the document or the cells.  A
  /// job with an index list also carries
  /// "selection":{"of":N,"indices":[...]}, N from its document, so a
  /// client can rebuild the partial summary its cells make.
  util::Json status_json() const;
};

/// The wire "result" frame of one finished cell — the one builder of the
/// synchronous run/sweep stream and the attach stream, so the two cannot
/// drift.
util::Json result_frame(std::size_t index, bool cached, util::Json artifact);

}  // namespace clktune::jobs

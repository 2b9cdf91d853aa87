#include "jobs/job_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <system_error>

#include "util/fs.h"
#include "util/sha256.h"

namespace clktune::jobs {

using util::Json;

namespace {

/// Wall-clock (system_clock) on purpose: created_ms/updated_ms are
/// *display timestamps* persisted in job envelopes and shown to humans —
/// they must mean calendar time across process restarts.  No duration is
/// ever derived from them; every duration metric in the codebase comes
/// from steady_clock (util::Stopwatch, obs::steady_now_ns).
std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// 8 lowercase hex characters of entropy.  Uniqueness, not secrecy: two
/// submissions of the same document must get distinct ids, including
/// across daemon restarts (a counter alone would repeat after recovery).
std::string nonce8() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t mix = std::chrono::steady_clock::now()
                          .time_since_epoch()
                          .count();
  mix ^= static_cast<std::uint64_t>(::getpid()) << 32;
  mix ^= counter.fetch_add(0x9e3779b97f4a7c15ull);
  try {
    std::random_device entropy;
    mix ^= static_cast<std::uint64_t>(entropy()) << 16;
  } catch (const std::exception&) {
    // A clock-and-counter nonce still satisfies uniqueness.
  }
  // splitmix64 finaliser: spreads the mixed bits over the whole word.
  mix ^= mix >> 30;
  mix *= 0xbf58476d1ce4e5b9ull;
  mix ^= mix >> 27;
  mix *= 0x94d049bb133111ebull;
  mix ^= mix >> 31;
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08llx",
                static_cast<unsigned long long>(mix & 0xffffffffull));
  return hex;
}

/// Content hash of what the job runs: the canonical resolved document
/// salted with the selection, so the same sweep with different work-unit
/// indices hashes differently.
std::string content_hash12(
    const Json& doc, const std::optional<std::vector<std::size_t>>& indices) {
  util::Sha256 hasher;
  hasher.update(util::canonical_dump(doc));
  if (indices)
    for (const std::size_t index : *indices) {
      hasher.update(":");
      hasher.update(std::to_string(index));
    }
  return hasher.hex_digest().substr(0, 12);
}

}  // namespace

JobStore::JobStore(std::string directory) : directory_(std::move(directory)) {
  if (!directory_.empty()) std::filesystem::create_directories(directory_);
}

void JobStore::persist_locked(const JobRecord& rec) const {
  if (directory_.empty()) return;
  // Crash-durable commit (tmp + fsync + rename + directory fsync): an
  // accepted submission or a recorded checkpoint must survive power loss,
  // not just a process kill.  A daemon killed mid-write leaves either the
  // previous envelope or the new one, never a torn file through the final
  // path (which load() would skip, losing the job).
  std::string payload = rec.to_json().dump(-1);
  payload.push_back('\n');
  util::write_file_atomic(directory_ + "/" + rec.id + ".json", payload,
                          /*durable=*/true, /*fault_site=*/"jobstore");
}

void JobStore::unlink_locked(const JobRecord& rec) const {
  if (directory_.empty()) return;
  std::error_code ec;
  std::filesystem::remove(directory_ + "/" + rec.id + ".json", ec);
}

std::size_t JobStore::load() {
  if (directory_.empty()) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".json") continue;  // temp files etc.
    JobRecord rec;
    try {
      rec = JobRecord::from_json(util::read_json_file(entry.path().string()));
    } catch (const std::exception&) {
      continue;  // torn write, foreign file or future schema: skip
    }
    // A job caught mid-flight by the crash re-enters the queue; its
    // checkpointed cells replay from the result cache, so only the
    // unfinished remainder actually recomputes.
    if (rec.state == JobState::preparing || rec.state == JobState::running) {
      rec.state = JobState::queued;
      rec.updated_ms = now_ms();
      persist_locked(rec);
    }
    next_seq_ = std::max(next_seq_, rec.seq + 1);
    jobs_[rec.id] = std::move(rec);
  }
  return jobs_.size();
}

JobRecord JobStore::create(util::Json doc, std::string kind, std::string name,
                           std::optional<std::vector<std::size_t>> indices,
                           std::size_t cells_total) {
  const std::lock_guard<std::mutex> lock(mutex_);
  JobRecord rec;
  rec.doc = std::move(doc);
  rec.kind = std::move(kind);
  rec.name = std::move(name);
  rec.indices = std::move(indices);
  rec.cells_total = cells_total;
  const std::string prefix = content_hash12(rec.doc, rec.indices);
  do {
    rec.id = prefix + "-" + nonce8();
  } while (jobs_.count(rec.id) != 0);
  rec.seq = next_seq_++;
  rec.created_ms = now_ms();
  rec.updated_ms = rec.created_ms;
  persist_locked(rec);
  return jobs_.emplace(rec.id, rec).first->second;
}

std::optional<JobRecord> JobStore::get(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

std::vector<JobRecord> JobStore::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> all;
  all.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) all.push_back(rec);
  std::sort(all.begin(), all.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.seq < b.seq; });
  return all;
}

std::optional<JobRecord> JobStore::claim_next() {
  const std::lock_guard<std::mutex> lock(mutex_);
  JobRecord* oldest = nullptr;
  for (auto& [id, rec] : jobs_)
    if (rec.state == JobState::queued &&
        (oldest == nullptr || rec.seq < oldest->seq))
      oldest = &rec;
  if (oldest == nullptr) return std::nullopt;
  oldest->state = JobState::preparing;
  oldest->updated_ms = now_ms();
  persist_locked(*oldest);
  return *oldest;
}

JobRecord JobStore::set_state(const std::string& id, JobState state,
                              const std::string& error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw JobError("unknown job id \"" + id + "\"");
  it->second.state = state;
  if (!error.empty()) it->second.error = error;
  it->second.updated_ms = now_ms();
  persist_locked(it->second);
  return it->second;
}

JobRecord JobStore::cancel_if_queued(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw JobError("unknown job id \"" + id + "\"");
  if (it->second.state == JobState::queued) {
    it->second.state = JobState::cancelled;
    it->second.updated_ms = now_ms();
    persist_locked(it->second);
  }
  return it->second;
}

JobRecord JobStore::record_cell(const std::string& id, std::size_t index,
                                bool cached, bool missed_target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw JobError("unknown job id \"" + id + "\"");
  JobRecord& rec = it->second;
  const auto pos =
      std::lower_bound(rec.done_indices.begin(), rec.done_indices.end(), index);
  if (pos != rec.done_indices.end() && *pos == index) return rec;  // replayed
  rec.done_indices.insert(pos, index);
  rec.cached += cached ? 1 : 0;
  rec.targets_missed += missed_target ? 1 : 0;
  rec.updated_ms = now_ms();
  persist_locked(rec);
  return rec;
}

std::size_t JobStore::prune_terminal(std::size_t keep) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const JobRecord*> terminal;
  for (const auto& [id, rec] : jobs_)
    if (is_terminal(rec.state)) terminal.push_back(&rec);
  if (terminal.size() <= keep) return 0;
  std::sort(terminal.begin(), terminal.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->seq < b->seq;
            });
  const std::size_t drop = terminal.size() - keep;
  std::vector<std::string> victims;
  victims.reserve(drop);
  for (std::size_t i = 0; i < drop; ++i) victims.push_back(terminal[i]->id);
  for (const std::string& id : victims) {
    unlink_locked(jobs_[id]);
    jobs_.erase(id);
  }
  return drop;
}

}  // namespace clktune::jobs

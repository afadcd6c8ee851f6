#ifndef TSAUG_EVAL_JOURNAL_H_
#define TSAUG_EVAL_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/status.h"
#include "core/thread_annotations.h"

namespace tsaug::eval {

/// One completed grid cell run, as recorded in (and restored from) the
/// journal. `score` round-trips bitwise: the file stores the double's
/// IEEE-754 bit pattern, so a resumed grid reproduces its report byte for
/// byte. `status` is the cell's *deterministic* outcome — OK or a data
/// failure (singular solve, diverged training, injected fault). Cancelled
/// and deadline-exceeded cells are never journaled: they depend on wall
/// time or operator action, so a resumed run must re-attempt them.
struct JournalCell {
  std::string dataset;
  int run = 0;
  int cell = 0;  // 0 = baseline, i + 1 = techniques[i]
  std::string name;
  double score = 0.0;
  int retries = 0;
  core::Status status;
};

/// Append-only, CRC-guarded JSONL journal of completed grid cells.
///
/// File format — one record per line:
///
///   {"crc":"<8 lowercase hex>","body":{...}}
///
/// where the CRC-32 (IEEE) covers exactly the body object's bytes. The
/// first record is a header carrying the grid's config fingerprint
/// (model, runs, kernels, seed, technique list); every later record is a
/// cell. Appends flush per line, so after a crash at any instant the file
/// holds every finished cell plus at most one torn line.
///
/// Robustness contract (tested in eval_journal_test):
///   - a truncated or corrupt line is dropped with a stderr warning; the
///     affected cell is simply re-run on resume;
///   - duplicate (dataset, run, cell) records take the last writer;
///   - a journal whose header fingerprint does not match the resuming
///     grid's config is rejected with a clear Status (never silently
///     mixed into a different experiment).
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Loads `path` (creating it if absent), validates every record's CRC,
  /// checks the header against `fingerprint`, and reopens for append.
  /// Must complete before the journal is shared across threads: the
  /// restored-cell map and counters are written here once and read-only
  /// afterwards (only `file_`, which Append keeps writing, is guarded).
  core::Status Open(const std::string& path, const std::string& fingerprint)
      TSAUG_EXCLUDES(append_mu_);

  bool is_open() const TSAUG_EXCLUDES(append_mu_) {
    core::MutexLock lock(append_mu_);
    return file_ != nullptr;
  }

  /// Appends one completed cell and flushes. Thread-safe. Consults the
  /// "journal.flush" fault point first, so tests can inject a write
  /// failure (`journal.flush:N`) or kill the process mid-grid
  /// (`journal.flush:N!`).
  core::Status Append(const JournalCell& cell) TSAUG_EXCLUDES(append_mu_);

  /// The cell loaded from disk at Open() time, or nullptr if it must be
  /// (re-)run. Cells appended by this process are not returned: they were
  /// computed, not resumed.
  const JournalCell* Find(const std::string& dataset, int run,
                          int cell) const;

  /// Valid cell records loaded at Open().
  int loaded_cells() const { return loaded_; }
  /// Corrupt/truncated lines dropped (with a warning) at Open().
  int dropped_lines() const { return dropped_; }

 private:
  // Written by Open() before the journal is shared, read-only afterwards.
  std::string path_;
  std::map<std::tuple<std::string, int, int>, JournalCell> cells_;
  int loaded_ = 0;
  int dropped_ = 0;

  // The append stream: concurrently written by grid workers, so the handle
  // and every write/flush through it stay under the annotated mutex.
  mutable core::Mutex append_mu_;
  std::FILE* file_ TSAUG_GUARDED_BY(append_mu_) = nullptr;
};

/// CRC-32 (IEEE 802.3) of `data`, for the journal's per-line guard.
/// Exposed for tests that corrupt or hand-craft records.
std::uint32_t Crc32(const std::string& data);

/// Statistics of one MergeJournals() call.
struct JournalMergeStats {
  int inputs = 0;          // journals found and folded in
  int missing_inputs = 0;  // absent or empty inputs (tolerated)
  int cells = 0;           // distinct cells in the merged output
  int duplicates = 0;      // cross-file duplicates resolved last-writer
  int dropped_lines = 0;   // torn/corrupt lines dropped across inputs
};

/// Merges shard journals (eval/shard.h) into one journal equivalent to an
/// unsharded run's: every input's CRC-valid cells, deduplicated last-writer
/// in input order (within one file later lines win, exactly as in Open()),
/// written under a fresh `fingerprint` header in deterministic
/// (dataset, run, cell) order — merging the same inputs twice produces
/// byte-identical output.
///
/// Tolerated per the journal's robustness contract: a missing or empty
/// input (a shard that never started), torn/corrupt trailing lines
/// (dropped and counted). Rejected with an error: an input whose header
/// fingerprint differs from `fingerprint` (journals of different
/// experiments never mix silently), or cell records with no header.
[[nodiscard]] core::StatusOr<JournalMergeStats> MergeJournals(
    const std::vector<std::string>& inputs, const std::string& output_path,
    const std::string& fingerprint);

}  // namespace tsaug::eval

#endif  // TSAUG_EVAL_JOURNAL_H_

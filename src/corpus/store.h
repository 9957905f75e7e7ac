// Persistent on-disk test corpus: the durable artifact of a fuzzing
// campaign. Tests that earned their keep (new coverage, a mismatch) are
// appended together with their metadata and coverage attribution; programs
// live in fixed-capacity shard files and an index file carries all metadata
// plus each entry's (shard, offset) — the layout long-running sharded
// campaigns and cross-campaign corpus reuse are built on.
//
// Layout of a store directory:
//   <dir>/index.bin        versioned+checksummed index (util/serialize.h)
//   <dir>/shard-0000.bin   raw little-endian instruction words
//   <dir>/shard-0001.bin   ...
//
// Crash-safety contract: shards are append-only and the index is rewritten
// atomically by flush(). A crash can leave shard bytes beyond what the index
// references — they are unreachable garbage, reclaimed by the next append or
// truncate(). Campaign checkpoints record the entry count at snapshot time
// and resume() truncates back to it, which keeps the store byte-identical
// to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.h"
#include "util/serialize.h"

namespace chatfuzz::corpus {

/// Per-entry metadata: where the test came from and what it contributed.
struct StoreEntryMeta {
  std::uint64_t test_index = 0;      // global campaign test index
  std::uint32_t standalone_bins = 0; // condition bins this test hit
  std::uint32_t incremental_bins = 0;// bins newly covered by this test
  std::uint32_t mismatches = 0;      // post-filter mismatch records
  std::uint64_t ctrl_new = 0;        // new ctrl-reg states
  /// Phase signature of the test's basic-block vector (riscv::
  /// bbv_phase_hash over the DUT's commit stream). 0 = not yet computed:
  /// campaigns archive the hash while BBV collection (`--bbv`) is on and 0
  /// otherwise, so the store bytes depend on whether it was on. `corpus
  /// minimize` stamps the finer BbvRecorder::phase_hash by replay, then
  /// uses it to collapse phase-duplicate mismatch entries.
  std::uint64_t phase_hash = 0;
  /// Coverage attribution: the condition bins this test covered FIRST
  /// (disjoint across entries by construction — the basis for replay-free
  /// corpus audits).
  std::vector<std::uint32_t> new_bins;
};

class CorpusStore {
 public:
  static constexpr std::size_t kDefaultShardCapacity = 256;  // entries/shard

  /// Open an existing store or create an empty one at `dir` (the directory
  /// is created if needed). Fails cleanly on a corrupt/truncated/foreign
  /// index file.
  ser::Status open(const std::string& dir,
                   std::size_t shard_capacity = kDefaultShardCapacity);

  /// Append one program + metadata. The program bytes go to the current
  /// shard immediately; the index entry is buffered until flush().
  ser::Status append(const core::Program& program, const StoreEntryMeta& meta);

  /// Atomically rewrite the index to cover everything appended so far.
  ser::Status flush();

  /// Drop entries [n, size()) — the resume path's rollback to a checkpoint.
  /// Shard files are trimmed so a subsequent append reproduces the exact
  /// bytes an uninterrupted run would have written. Implies flush().
  ser::Status truncate(std::size_t n);

  std::size_t size() const { return entries_.size(); }
  const StoreEntryMeta& meta(std::size_t i) const { return entries_[i].meta; }
  /// Fill entry i's phase signature (tooling: `corpus minimize` replays the
  /// entry to compute it). Buffered like appends; flush() persists it.
  void set_phase_hash(std::size_t i, std::uint64_t h) {
    entries_[i].meta.phase_hash = h;
  }
  /// Stored program length in u32 instruction words (tooling/stats).
  std::size_t program_words(std::size_t i) const {
    return entries_[i].num_words;
  }
  /// Number of shard files the entries span (0 for an empty store).
  std::size_t num_shards() const {
    return entries_.empty() ? 0 : entries_.back().shard + 1;
  }
  ser::Status read_program(std::size_t i, core::Program* out) const;
  const std::string& dir() const { return dir_; }
  std::size_t shard_capacity() const { return shard_capacity_; }
  /// Shard file the entry lives in (for tests / tooling).
  std::string shard_path(std::size_t shard) const;

 private:
  struct Entry {
    std::uint32_t shard = 0;
    std::uint64_t offset_words = 0;  // into the shard, in u32 words
    std::uint32_t num_words = 0;
    StoreEntryMeta meta;
  };

  std::string dir_;
  std::size_t shard_capacity_ = kDefaultShardCapacity;
  std::vector<Entry> entries_;
};

}  // namespace chatfuzz::corpus

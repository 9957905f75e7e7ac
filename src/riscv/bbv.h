// Per-test basic-block vectors (the SimPoint methodology): BbvRecorder
// folds the committed instruction stream into a block-id -> execution-count
// vector, ids in discovery order, and hashes it into a phase signature for
// corpus minimization.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace chatfuzz::riscv {

/// FNV-1a over (block start, count) pairs in block-id order (the BBV-file
/// projection of a vector). Never 0 for a non-empty vector (0 is the "not
/// yet computed" sentinel in the corpus store).
std::uint64_t bbv_phase_hash(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& blocks);

/// Per-test basic-block-vector recorder. Hooked into the DUT's commit
/// stream: on_commit(pc, next_pc, trap) opens a block at the first pc
/// after a control transfer and closes it when the committed instruction
/// did not fall through (taken branch/jump, mret/sret) or trapped (the
/// magic trampoline resumes at fall-through, but control architecturally
/// left the block). Blocks are keyed by (start, end) — the same start
/// exited at a different point (e.g. a trap mid-block) is a distinct
/// block — with ids assigned in discovery order per test, so the vector
/// is a pure function of the committed instruction stream.
class BbvRecorder {
 public:
  BbvRecorder() : table_(kMinTable, 0) {}

  /// Start a new test: clears the vector, ids restart at 0.
  void begin();

  void on_commit(std::uint64_t pc, std::uint64_t next_pc, bool trap) {
    if (!open_) {
      open_ = true;
      block_start_ = pc;
    }
    block_end_ = pc + 4;  // exclusive: the block includes this instruction
    if (trap || next_pc != pc + 4) close_block();
  }

  /// End of test: the trailing block (ended by the stop condition rather
  /// than a transfer) still counts.
  void on_stop() {
    if (open_) close_block();
  }

  /// Blocks in id order as (start pc, execution count). Starts can repeat:
  /// each distinct (start, end) is its own block (ends via ends()).
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& blocks() const {
    return blocks_;
  }
  /// Per-block exclusive end pc, parallel to blocks().
  const std::vector<std::uint64_t>& ends() const { return ends_; }
  /// Phase signature: FNV-1a over (start, end, count) triples in id order —
  /// finer than bbv_phase_hash(blocks()) because straight-line tests of
  /// different lengths hash apart. Never 0.
  std::uint64_t phase_hash() const;

 private:
  static constexpr std::size_t kMinTable = 64;

  void close_block();

  bool open_ = false;
  std::uint64_t block_start_ = 0;
  std::uint64_t block_end_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks_;  // id-ordered
  std::vector<std::uint64_t> ends_;   // id-ordered exclusive end pcs
  std::vector<std::uint32_t> table_;  // open-addressed (start,end)→id+1
};

}  // namespace chatfuzz::riscv

#pragma once
// Flat bytecode execution engine for GP programs. A tree walk chases
// pointers once per sample per individual per generation; Program lowers
// a genome (gp/genome.hpp) to a postfix tape and executes it with an
// iterative stack machine over a column-major SampleMatrix: the operator
// dispatch runs once per *node* instead of once per (node, sample), the
// inner loops stream over contiguous columns, and a scoring pass performs
// zero allocations once the scratch buffers are warm. The tape applies
// the exact operation sequence tree evaluation would (postfix = the
// recursive evaluator's completion order, protected-op semantics
// included), so every sample's result is bit-identical to Expr::eval —
// the property the fleet's report_signature determinism gates rely on.
//
// Lowering is one forward scan of the genome; it runs only when a fitness
// has to be computed, since a cache hit needs nothing but the genome's
// bytes. Instructions use fused operands: an operator reads leaf
// arguments straight from the sample columns or the constant pool
// instead of first materializing them as stack columns, which removes
// roughly half the memory traffic of a typical small tree.
//
// FitnessCache rides on top: the genome's packed bytes are a canonical
// key for the program, so crossover/mutation offspring that reproduce an
// already-seen program can skip rescoring entirely.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gp/expr.hpp"
#include "gp/genome.hpp"

namespace dpr::gp {

/// Column-major (structure-of-arrays) sample storage: column v holds
/// variable v of every sample contiguously, so a tape instruction that
/// touches one variable streams over adjacent memory.
class SampleMatrix {
 public:
  SampleMatrix() = default;
  SampleMatrix(std::size_t n_samples, std::size_t n_vars)
      : n_samples_(n_samples),
        n_vars_(n_vars),
        data_(n_samples * n_vars, 0.0) {}

  /// Transpose row-major points (the correlate::Dataset layout) into
  /// columns. Every row must have exactly `n_vars` entries.
  static SampleMatrix from_rows(const std::vector<std::vector<double>>& rows,
                                std::size_t n_vars);

  std::size_t n_samples() const { return n_samples_; }
  std::size_t n_vars() const { return n_vars_; }

  double& at(std::size_t sample, std::size_t var) {
    return data_[var * n_samples_ + sample];
  }
  double at(std::size_t sample, std::size_t var) const {
    return data_[var * n_samples_ + sample];
  }
  std::span<const double> column(std::size_t var) const {
    return {data_.data() + var * n_samples_, n_samples_};
  }

 private:
  std::size_t n_samples_ = 0;
  std::size_t n_vars_ = 0;
  std::vector<double> data_;  // data_[var * n_samples + sample]
};

/// Growable 64-byte-aligned double buffer for the evaluation stack.
/// Unlike std::vector, ensure() never value-initializes: the tape writes
/// every stack column before reading it, so zero-filling was pure waste —
/// the old vector::resize cleared the whole stack's growth on every call
/// instead of only tracking the live watermark. Capacity only grows
/// (watermark semantics); contents are scratch and survive nothing.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { release(); }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grow capacity to at least `n` doubles (geometric, uninitialized).
  void ensure(std::size_t n) {
    if (n > capacity_) grow(n);
  }
  double* data() { return data_; }
  std::size_t capacity() const { return capacity_; }

 private:
  void grow(std::size_t n);
  void release();

  double* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Reusable buffers for batched evaluation. Owned by the caller (the GP
/// engine keeps one per thread) so the hot loop never allocates once the
/// buffers have grown to the workload's size.
struct EvalScratch {
  AlignedBuffer stack;              // stack_need padded column slots
  std::vector<double> predictions;  // one prediction per sample
  std::vector<double> residuals;    // trimmed-MAE scratch
};

/// A compiled program: postfix tape with fused leaf operands.
class Program {
 public:
  Program() = default;

  /// Lower one genome to a tape in a single forward scan (no recursion,
  /// so pathologically deep programs cannot overflow the C stack),
  /// reusing this program's buffers: no allocation once capacities are
  /// warm. The genome's variable indices must be valid for the samples
  /// the tape will run on.
  void lower(std::span<const std::uint8_t> genes);

  /// Node count of the lowered program. (Fused instructions cover several
  /// nodes each, so this is intentionally *not* the instruction count —
  /// parsimony pressure keys off program size.)
  std::size_t size() const { return nodes_; }
  /// Peak operand-stack columns of one tape pass (leaf operands are
  /// fused into their consumers and never occupy a column).
  std::size_t stack_need() const { return stack_need_; }

  /// Constant pool, in genome (pre-order) order: entry k is the k-th
  /// constant gene, so a tuner can patch genome and tape in lockstep
  /// without lowering again.
  std::size_t n_constants() const { return constants_.size(); }
  double constant(std::size_t k) const { return constants_[k]; }
  void set_constant(std::size_t k, double value) { constants_[k] = value; }

  /// Evaluate one sample. Iterative; bit-identical to Expr::eval.
  double eval_scalar(std::span<const double> vars,
                     EvalScratch& scratch) const;

  /// Evaluate every sample in one tape pass, writing predictions[i] for
  /// sample i. One dispatch per instruction; the per-instruction loops
  /// run through the active kernel table (AVX2 when compiled + supported
  /// + enabled, scalar otherwise — see gp/kernels.hpp), streaming over
  /// contiguous stack columns padded to 64-byte-aligned strides. The
  /// final instruction writes straight into `predictions` when it
  /// produces the result column. Bit-identical to Expr::eval under every
  /// kernel table.
  void eval_batch(const SampleMatrix& samples, EvalScratch& scratch) const;

 private:
  /// Where an instruction operand lives.
  enum class Src : std::uint8_t { kStack, kVar, kConst };
  struct Operand {
    Src src;
    std::uint32_t index;  // stack slot / variable column / pool index
  };
  /// A fused instruction: always an operator; leaf arguments are read
  /// through the operand descriptors, results land in stack column dst.
  struct Instr {
    Op op;
    Operand a;
    Operand b;  // unused for unary ops
    std::uint32_t dst;
  };

  /// A function whose operands are still being lowered.
  struct Frame {
    Op op;
    bool has_lhs;
    Operand lhs;
  };

  std::vector<Instr> code_;          // fused instructions
  Operand result_{Src::kStack, 0};   // where the final value lives
  std::vector<double> constants_;    // constant pool, pre-order
  std::vector<Frame> frames_;        // lowering stack, reused
  std::size_t nodes_ = 0;
  std::size_t stack_need_ = 0;
};

/// Bounded map from program key (genome bytes) to trimmed-MAE fitness,
/// owned by one thread's GP workspace and touched by no other thread, so
/// it needs no lock. Lookups compare full keys (never hashes alone), and
/// a cached value is a pure function of (key, dataset), so hit/miss
/// patterns can never change a result, only how fast it is reached.
/// Eviction is a deterministic epoch clear: a table that reaches its
/// capacity is emptied before the next insert.
///
/// One cache serves many runs: reset() re-arms it for the next run
/// instead of building a new one. reset(max_keys) sets the capacity to
/// `max_keys`, so a run inserting at most that many distinct keys never
/// evicts, and clears only the slots the previous run filled, so a run
/// costs memory traffic in proportion to what it inserts, not to the
/// table size. The slot array only grows (watermark semantics, like
/// AlignedBuffer).
///
/// Storage is one open-addressed slot array (linear probing at ≤ 0.5
/// load, key hashed once per operation). A slot is one cache line with
/// the key bytes stored inline, so a probe never chases a string pointer;
/// keys longer than the inline capacity (rare, large programs) fall back
/// to an overflow pool.
class FitnessCache {
 public:
  explicit FitnessCache(std::size_t max_keys = 0) { reset(max_keys); }

  /// Forget every entry and zero the counters, then size for a run of at
  /// most `max_keys` distinct keys.
  void reset(std::size_t max_keys);

  std::optional<double> lookup(std::string_view key);
  void insert(std::string_view key, double fitness);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::size_t kInlineKey = 44;
  struct alignas(64) Slot {
    std::uint64_t hash = 0;  // 0 = empty (hash_key never returns 0)
    double fitness = 0.0;
    std::uint32_t len = 0;   // key byte length; > kInlineKey -> overflow
    char key[kInlineKey] = {};  // inline key bytes, or a u32 overflow index
  };
  void clear();
  bool slot_matches(const Slot& slot, std::string_view key) const;
  static std::uint64_t hash_key(std::string_view key);

  std::vector<Slot> slots_;            // power-of-two size, ≥ 2x capacity
  std::vector<std::uint32_t> used_;    // filled slot indices
  std::vector<std::string> overflow_;  // keys longer than kInlineKey
  std::size_t capacity_ = 1;
  std::size_t slot_mask_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dpr::gp

#pragma once
// Flat bytecode execution engine for GP expression trees. Expr::eval
// chases unique_ptr children once per sample per individual per
// generation — the dominant cost of every campaign (Table 8). Program
// lowers a tree to a postfix tape and executes it with an iterative
// stack machine over a column-major SampleMatrix: the operator dispatch
// runs once per *node* instead of once per (node, sample), the inner
// loops stream over contiguous columns, and a scoring pass performs
// zero allocations once the scratch buffers are warm. The tape applies
// the exact operation sequence tree evaluation would (postfix = the
// recursive evaluator's completion order, protected-op semantics
// included), so every sample's result is bit-identical to Expr::eval —
// the property the fleet's report_signature determinism gates rely on.
//
// Lowering is split into two stages so the fitness cache's hot path
// stays minimal: analyze() makes a single walk over the tree and emits
// the canonical structural key (all a cache hit needs), and emit()
// lowers the analyzed nodes into executable instructions — paid only on
// a cache miss. Instructions use fused operands: an operator reads leaf
// arguments straight from the sample columns or the constant pool
// instead of first materializing them as stack columns, which removes
// roughly half the memory traffic of a typical small tree.
//
// FitnessCache rides on top: the analyze() byte stream is a canonical
// structural key for the expression, so crossover/mutation offspring
// that reproduce an already-seen shape can skip rescoring entirely.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gp/expr.hpp"

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
  std::string key;                  // structural cache key buffer
};

/// A compiled expression: postfix tape with fused leaf operands.
class Program {
 public:
  Program() = default;

  /// Lower `expr` to a tape. Iterative (explicit stack), so pathologically
  /// deep trees cannot overflow the C stack. Throws std::invalid_argument
  /// if the tree references a variable index outside [0, n_vars) — bad
  /// trees surface here instead of silently evaluating to 0.
  static Program compile(const Expr& expr, std::size_t n_vars);

  /// Stage 1: walk `expr` once (iteratively), validate variable indices
  /// against n_vars, and — when `key` is non-null — serialize the
  /// canonical structural key into it (identical bytes to
  /// structural_key()). After analyze(), size() is valid but the tape is
  /// stale; call emit() before evaluating. This is the cache-hit fast
  /// path: a hit costs one tree walk and one probe, no lowering.
  void analyze(const Expr& expr, std::size_t n_vars,
               std::string* key = nullptr);

  /// Stage 2: lower the nodes collected by the last analyze() into
  /// executable instructions, reusing this program's buffers (no
  /// allocation once capacities are warm).
  void emit();

  /// analyze() + emit(): full lowering in one call.
  void recompile(const Expr& expr, std::size_t n_vars,
                 std::string* key = nullptr);

  /// Node count of the last analyzed/compiled tree. (Fused instructions
  /// cover several nodes each, so this is intentionally *not* the
  /// instruction count — parsimony pressure keys off tree size.)
  std::size_t size() const { return recs_.size(); }
  bool empty() const { return recs_.empty(); }
  /// Peak operand-stack columns of one tape pass (leaf operands are
  /// fused into their consumers and never occupy a column).
  std::size_t stack_need() const { return stack_need_; }
  std::size_t n_constants() const { return constants_.size(); }

  /// Constant pool access for coordinate-descent tuning: `const_node(i)`
  /// is the tree node the pool entry was lowered from (postfix order), so
  /// a tuner can patch tree and tape in lockstep without recompiling.
  double constant(std::size_t pool_index) const {
    return constants_[pool_index];
  }
  void set_constant(std::size_t pool_index, double value) {
    constants_[pool_index] = value;
  }
  const Node* const_node(std::size_t pool_index) const {
    return const_nodes_[pool_index];
  }

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

  /// Serialize the structural key into `out` (cleared first): an
  /// instruction-count prefix, then per tree node (postfix order) the op
  /// byte followed by its payload (variable index for kVar, raw constant
  /// bits for kConst). Two expressions get equal keys iff their trees
  /// are structurally identical, which makes the key safe to cache
  /// fitness under — no hash collisions, exact byte equality.
  void structural_key(std::string& out) const;

 private:
  /// One tree node, captured during analyze() so emit() and the key
  /// serializer stream over contiguous memory instead of re-chasing
  /// child pointers.
  struct NodeRec {
    const Node* node;
    Op op;
    std::int32_t var;
    double value;
  };
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

  void append_key(std::string& out) const;

  std::vector<NodeRec> recs_;        // postfix node records (analyze)
  std::vector<Instr> code_;          // fused instructions (emit)
  Operand result_{Src::kStack, 0};   // where the final value lives
  std::vector<double> constants_;    // constant pool, postfix order
  std::vector<const Node*> const_nodes_;  // pool entry -> source tree node
  std::vector<const Node*> dfs_;     // traversal stack, reused
  std::vector<Operand> vstack_;      // emit-time virtual stack, reused
  std::size_t stack_need_ = 0;
};

/// Bounded, sharded map from structural key to trimmed-MAE fitness,
/// shared by every worker of one infer_formula() run. Lookups compare
/// full keys (never hashes alone), and a cached value is a pure function
/// of (key, dataset), so hit/miss patterns — and therefore thread
/// scheduling and eviction — can never change a result, only how fast it
/// is reached. Eviction is a deterministic epoch clear: a shard that
/// reaches its capacity is emptied before the next insert.
///
/// One cache serves many runs: each thread's GP workspace keeps one and
/// reset() re-arms it for the next run instead of building a new one.
/// reset(max_keys) sizes every shard so that a run inserting at most
/// `max_keys` distinct keys never evicts (shard capacity is twice the
/// even share plus slack), and clears only the slots the previous run
/// filled, so a run costs memory traffic in proportion to what it
/// inserts, not to the table size. Slot arrays only grow (watermark
/// semantics, like AlignedBuffer).
///
/// Storage is an open-addressed slot array per shard (linear probing at
/// ≤ 0.5 load, key hashed once per operation). A slot is one cache line
/// with the key bytes stored inline — a probe never chases a string
/// pointer — and keys longer than the inline capacity (rare, deep
/// trees) fall back to a per-shard overflow pool. Equality is always
/// decided on full key bytes, never the hash alone.
class FitnessCache {
 public:
  explicit FitnessCache(std::size_t max_keys = 0) { reset(max_keys); }

  /// Forget every entry and zero the counters, then size for a run of at
  /// most `max_keys` distinct keys. Not thread-safe: call it before the
  /// run's workers start.
  void reset(std::size_t max_keys);

  std::optional<double> lookup(const std::string& key);
  void insert(const std::string& key, double fitness);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kInlineKey = 44;
  struct alignas(64) Slot {
    std::uint64_t hash = 0;  // 0 = empty (hash_key never returns 0)
    double fitness = 0.0;
    std::uint32_t len = 0;   // key byte length; > kInlineKey -> overflow
    char key[kInlineKey] = {};  // inline key bytes, or a u32 overflow index
  };
  struct Shard {
    std::mutex mutex;
    std::vector<Slot> slots;  // power-of-two size, ≥ 2x shard capacity
    std::vector<std::uint32_t> used;    // filled slot indices; size = count
    std::vector<std::string> overflow;  // keys longer than kInlineKey
  };
  static void clear(Shard& shard);
  static bool slot_matches(const Shard& shard, const Slot& slot,
                           const std::string& key);
  static std::uint64_t hash_key(const std::string& key);
  Shard& shard_for(std::uint64_t hash) {
    return shards_[(hash >> 56) % kShards];
  }

  std::array<Shard, kShards> shards_;
  std::size_t shard_capacity_ = 1;
  std::size_t slot_mask_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace dpr::gp

#include "gp/program.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <stdexcept>

#include "gp/kernels.hpp"

namespace dpr::gp {

void AlignedBuffer::grow(std::size_t n) {
  // Geometric growth so a worker scanning programs of increasing depth
  // reallocates O(log) times; memory is left uninitialized on purpose.
  const std::size_t target = std::max(n, capacity_ * 2);
  release();
  data_ = static_cast<double*>(
      ::operator new(target * sizeof(double), std::align_val_t{64}));
  capacity_ = target;
}

void AlignedBuffer::release() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{64});
    data_ = nullptr;
  }
  capacity_ = 0;
}

SampleMatrix SampleMatrix::from_rows(
    const std::vector<std::vector<double>>& rows, std::size_t n_vars) {
  SampleMatrix matrix(rows.size(), n_vars);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != n_vars) {
      throw std::invalid_argument("gp: sample row width != n_vars");
    }
    for (std::size_t v = 0; v < n_vars; ++v) matrix.at(i, v) = rows[i][v];
  }
  return matrix;
}

void Program::lower(std::span<const std::uint8_t> genes) {
  code_.clear();
  constants_.clear();
  frames_.clear();
  nodes_ = 0;
  stack_need_ = 0;

  // Read the genome in pre-order, keeping each function open until its
  // operands are lowered: a leaf becomes an operand descriptor (variable
  // column / constant-pool slot) without emitting anything, and a
  // function whose last operand arrives emits one fused instruction whose
  // result occupies stack column `depth`. Instructions come out in
  // postfix order (lhs subtree, rhs subtree, node), the recursive
  // evaluator's completion order. Live stack operands always sit in
  // columns 0..depth-1, so dense slot assignment never clobbers a live
  // value (an instruction may write the column it reads — element i is
  // fully read before element i is written).
  std::size_t depth = 0;
  for (std::size_t at = 0; at < genes.size();) {
    const std::uint8_t* gene = &genes[at];
    const Op op = gene_op(gene);
    at += gene_bytes(op);
    ++nodes_;
    Operand operand;
    if (op == Op::kVar) {
      operand = {Src::kVar, static_cast<std::uint32_t>(gene_var(gene))};
    } else if (op == Op::kConst) {
      operand = {Src::kConst, static_cast<std::uint32_t>(constants_.size())};
      constants_.push_back(gene_value(gene));
    } else {
      frames_.push_back({op, false, {Src::kStack, 0}});
      continue;
    }
    // Hand the finished operand to the innermost open function; each
    // function it completes hands its own result up in turn.
    for (; !frames_.empty(); frames_.pop_back()) {
      Frame& frame = frames_.back();
      if (arity(frame.op) == 2 && !frame.has_lhs) {
        frame.has_lhs = true;
        frame.lhs = operand;
        break;
      }
      const bool binary = arity(frame.op) == 2;
      const Operand a = binary ? frame.lhs : operand;
      const Operand b = binary ? operand : Operand{Src::kStack, 0};
      if (binary && b.src == Src::kStack) --depth;
      if (a.src == Src::kStack) --depth;
      const auto dst = static_cast<std::uint32_t>(depth);
      code_.push_back({frame.op, a, b, dst});
      stack_need_ = std::max(stack_need_, ++depth);
      operand = {Src::kStack, dst};
    }
    if (frames_.empty()) result_ = operand;
  }
}

double Program::eval_scalar(std::span<const double> vars,
                            EvalScratch& scratch) const {
  scratch.stack.ensure(std::max<std::size_t>(1, stack_need_));
  double* st = scratch.stack.data();
  const auto value = [&](Operand operand) {
    switch (operand.src) {
      case Src::kStack:
        return st[operand.index];
      case Src::kVar:
        return vars[operand.index];
      default:
        return constants_[operand.index];
    }
  };
  for (const Instr& ins : code_) {
    st[ins.dst] = arity(ins.op) == 1
                      ? apply_unary(ins.op, value(ins.a))
                      : apply_binary(ins.op, value(ins.a), value(ins.b));
  }
  return value(result_);
}

void Program::eval_batch(const SampleMatrix& samples,
                         EvalScratch& scratch) const {
  const std::size_t n = samples.n_samples();
  scratch.predictions.resize(n);
  if (n == 0) return;
  // Stack columns are padded to a multiple of 8 doubles so every column
  // starts on a 64-byte boundary of the aligned scratch base (sample
  // columns stay unpadded — the kernels use unaligned loads for those).
  const std::size_t stride = (n + 7) & ~std::size_t{7};
  scratch.stack.ensure(std::max<std::size_t>(1, stack_need_) * stride);
  double* stack = scratch.stack.data();
  double* preds = scratch.predictions.data();
  const KernelTable& kernels = active_kernels();
  // A fused operand is either a column pointer (stack slot or sample
  // column) or a constant immediate; the four pointer/immediate kernel
  // shapes keep the inner loops branch-free.
  const auto column_of = [&](Operand operand) -> const double* {
    switch (operand.src) {
      case Src::kStack:
        return stack + operand.index * stride;
      case Src::kVar:
        return samples.column(operand.index).data();
      default:
        return nullptr;  // constant immediate
    }
  };
  // When the final instruction produces the result column (always the
  // case for an operator-rooted tree), it writes straight into the
  // predictions buffer — the closing memcpy disappears.
  const std::size_t n_code = code_.size();
  const bool last_writes_result = n_code > 0 &&
                                  result_.src == Src::kStack &&
                                  code_[n_code - 1].dst == result_.index;
  for (std::size_t pc = 0; pc < n_code; ++pc) {
    const Instr& ins = code_[pc];
    double* dst = (last_writes_result && pc + 1 == n_code)
                      ? preds
                      : stack + ins.dst * stride;
    const double* a = column_of(ins.a);
    if (arity(ins.op) == 1) {
      if (a != nullptr) {
        kernels.unary(ins.op, dst, a, n);
      } else {
        // Constant operand: apply_unary is pure, so computing it once
        // and broadcasting produces the same bits as computing it per
        // sample.
        const double v = apply_unary(ins.op, constants_[ins.a.index]);
        for (std::size_t i = 0; i < n; ++i) dst[i] = v;
      }
      continue;
    }
    const double* b = column_of(ins.b);
    if (a != nullptr && b != nullptr) {
      kernels.binary(ins.op, dst, a, b, n);
    } else if (a != nullptr) {
      kernels.binary_ak(ins.op, dst, a, constants_[ins.b.index], n);
    } else if (b != nullptr) {
      kernels.binary_kb(ins.op, dst, constants_[ins.a.index], b, n);
    } else {
      const double v = apply_binary(ins.op, constants_[ins.a.index],
                                    constants_[ins.b.index]);
      for (std::size_t i = 0; i < n; ++i) dst[i] = v;
    }
  }
  if (last_writes_result) return;
  switch (result_.src) {
    case Src::kStack:
      std::memcpy(preds, stack + result_.index * stride, n * sizeof(double));
      break;
    case Src::kVar: {
      const auto column = samples.column(result_.index);
      std::memcpy(preds, column.data(), n * sizeof(double));
      break;
    }
    default: {
      const double v = constants_[result_.index];
      for (std::size_t i = 0; i < n; ++i) preds[i] = v;
      break;
    }
  }
}

void FitnessCache::reset(std::size_t max_keys) {
  clear();
  capacity_ = std::max<std::size_t>(1, max_keys);
  // Power-of-two slot count at ≤ 0.5 max load, so linear probes always
  // terminate quickly.
  std::size_t slots = 2;
  while (slots < capacity_ * 2) slots <<= 1;
  if (slots_.size() < slots) slots_.assign(slots, Slot{});
  slot_mask_ = slots_.size() - 1;
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void FitnessCache::clear() {
  for (const std::uint32_t i : used_) slots_[i].hash = 0;
  used_.clear();
  overflow_.clear();
}

std::uint64_t FitnessCache::hash_key(std::string_view key) {
  // Chunked xor-multiply mix (8 bytes per step). Quality only matters
  // for probe placement: equality is always decided by comparing full
  // keys, so a colliding pair can share a slot chain but never a value.
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ key.size();
  const char* p = key.data();
  std::size_t remaining = key.size();
  while (remaining >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    h = (h ^ chunk) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    p += 8;
    remaining -= 8;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p, remaining);
  h = (h ^ tail) * 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h | 1;  // 0 is the empty-slot sentinel
}

bool FitnessCache::slot_matches(const Slot& slot, std::string_view key) const {
  if (slot.len != key.size()) return false;
  if (slot.len <= kInlineKey) {
    return std::memcmp(slot.key, key.data(), slot.len) == 0;
  }
  std::uint32_t index;
  std::memcpy(&index, slot.key, sizeof index);
  return overflow_[index] == key;
}

std::optional<double> FitnessCache::lookup(std::string_view key) {
  const std::uint64_t hash = hash_key(key);
  for (std::size_t i = hash & slot_mask_;; i = (i + 1) & slot_mask_) {
    const Slot& slot = slots_[i];
    if (slot.hash == 0) break;
    if (slot.hash == hash && slot_matches(slot, key)) {
      ++hits_;
      return slot.fitness;
    }
  }
  ++misses_;
  return std::nullopt;
}

void FitnessCache::insert(std::string_view key, double fitness) {
  const std::uint64_t hash = hash_key(key);
  if (used_.size() >= capacity_) {
    // Epoch eviction: drop every entry. Cached values are pure functions
    // of the key, so eviction affects hit rate, never results.
    clear();
    ++evictions_;
  }
  for (std::size_t i = hash & slot_mask_;; i = (i + 1) & slot_mask_) {
    Slot& slot = slots_[i];
    if (slot.hash == 0) {
      slot.hash = hash;
      slot.fitness = fitness;
      slot.len = static_cast<std::uint32_t>(key.size());
      if (key.size() <= kInlineKey) {
        std::memcpy(slot.key, key.data(), key.size());
      } else {
        const auto index = static_cast<std::uint32_t>(overflow_.size());
        overflow_.emplace_back(key);
        std::memcpy(slot.key, &index, sizeof index);
      }
      used_.push_back(static_cast<std::uint32_t>(i));
      return;
    }
    if (slot.hash == hash && slot_matches(slot, key)) return;  // known key
  }
}

}  // namespace dpr::gp

#include "gp/genome.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dpr::gp {

void append_op(Genes& out, Op op) {
  out.push_back(static_cast<std::uint8_t>(op));
}

void append_var(Genes& out, int var) {
  out.push_back(static_cast<std::uint8_t>(Op::kVar));
  out.push_back(static_cast<std::uint8_t>(var));
}

void append_const(Genes& out, double value) {
  out.push_back(static_cast<std::uint8_t>(Op::kConst));
  out.resize(out.size() + sizeof value);
  std::memcpy(out.data() + out.size() - sizeof value, &value, sizeof value);
}

std::size_t node_offset(std::span<const std::uint8_t> genes,
                        std::size_t index) {
  std::size_t at = 0;
  for (; index > 0; --index) at += gene_bytes(gene_op(&genes[at]));
  return at;
}

Extent subtree(std::span<const std::uint8_t> genes, std::size_t at) {
  // Each gene fills one pending slot and opens one per operand.
  Extent extent{at, 0};
  for (std::size_t pending = 1; pending > 0; ++extent.nodes) {
    const Op op = gene_op(&genes[extent.end]);
    pending = pending - 1 + static_cast<std::size_t>(arity(op));
    extent.end += gene_bytes(op);
  }
  return extent;
}

int genome_depth(std::span<const std::uint8_t> genes) {
  // The depth of each operand slot still to fill, the next one last.
  thread_local std::vector<int> slots;
  slots.assign(1, 1);
  int depth = 0;
  for (std::size_t at = 0; at < genes.size() && !slots.empty();) {
    const Op op = gene_op(&genes[at]);
    at += gene_bytes(op);
    const int level = slots.back();
    slots.pop_back();
    depth = std::max(depth, level);
    slots.insert(slots.end(), static_cast<std::size_t>(arity(op)), level + 1);
  }
  return depth;
}

void flatten(const Expr& expr, std::size_t n_vars, Genes& out) {
  const std::size_t vars = std::min(n_vars, kMaxVars);
  std::vector<const Node*> stack{expr.root()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->op == Op::kVar) {
      if (node->var < 0 || static_cast<std::size_t>(node->var) >= vars) {
        throw std::invalid_argument(
            "gp: variable index out of range for this dataset");
      }
      append_var(out, node->var);
    } else if (node->op == Op::kConst) {
      append_const(out, node->value);
    } else {
      append_op(out, node->op);
    }
    if (node->rhs) stack.push_back(node->rhs.get());
    if (node->lhs) stack.push_back(node->lhs.get());
  }
}

Expr to_expr(std::span<const std::uint8_t> genes) {
  std::unique_ptr<Node> root;
  // Child slots still to fill, the next one last.
  std::vector<std::unique_ptr<Node>*> slots{&root};
  for (std::size_t at = 0; at < genes.size() && !slots.empty();) {
    const std::uint8_t* gene = &genes[at];
    at += gene_bytes(gene_op(gene));
    std::unique_ptr<Node>& node = *slots.back();
    slots.pop_back();
    node = std::make_unique<Node>();
    node->op = gene_op(gene);
    if (node->op == Op::kVar) node->var = gene_var(gene);
    if (node->op == Op::kConst) node->value = gene_value(gene);
    if (arity(node->op) == 2) slots.push_back(&node->rhs);
    if (arity(node->op) > 0) slots.push_back(&node->lhs);
  }
  return root ? Expr(std::move(root)) : Expr();
}

namespace {

Op random_function(util::Rng& rng) {
  // Arithmetic-weighted function choice: real ECU formulas are mostly
  // affine/products, but the full 14-function set stays reachable.
  static const Op weighted[] = {
      Op::kAdd, Op::kAdd, Op::kAdd, Op::kSub, Op::kSub, Op::kMul, Op::kMul,
      Op::kMul, Op::kDiv, Op::kDiv, Op::kSqrt, Op::kLog, Op::kAbs,
      Op::kNeg, Op::kMin, Op::kMax, Op::kSin, Op::kCos, Op::kTan,
      Op::kInv};
  return weighted[rng.uniform_int(0, std::size(weighted) - 1)];
}

std::size_t grow(util::Rng& rng, std::size_t n_vars, int depth, bool full,
                 Genes& out) {
  if (depth <= 0 || (!full && rng.chance(0.3))) {
    if (rng.chance(0.6)) {
      append_var(out, static_cast<int>(rng.uniform_int(
                          0, static_cast<std::int64_t>(n_vars) - 1)));
    } else {
      append_const(out, rng.uniform(-10.0, 10.0));
    }
    return 1;
  }
  const Op op = random_function(rng);
  append_op(out, op);
  std::size_t nodes = 1 + grow(rng, n_vars, depth - 1, full, out);
  if (arity(op) == 2) nodes += grow(rng, n_vars, depth - 1, full, out);
  return nodes;
}

std::size_t random_node(util::Rng& rng, std::size_t nodes) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
}

/// Keeps the child that ends `out` (from byte `start`) unless it is deeper
/// than `max_depth`; then it becomes a copy of `a`.
Bred depth_checked(GenomeView a, std::size_t nodes, int max_depth,
                   std::size_t start, Genes& out) {
  if (genome_depth({out.data() + start, out.size() - start}) <= max_depth) {
    return {nodes, true};
  }
  out.resize(start);
  return copy_genome(a, out);
}

}  // namespace

std::size_t random_genome(util::Rng& rng, std::size_t n_vars, int depth,
                          bool full, Genes& out) {
  // Generation recurses once per level; the cap keeps a pathological
  // request off the C stack.
  depth = std::min(depth, full ? kMaxFullDepth : kMaxGrowDepth);
  return grow(rng, n_vars, depth, full, out);
}

Bred copy_genome(GenomeView a, Genes& out) {
  out.insert(out.end(), a.genes.begin(), a.genes.end());
  return {a.nodes, false};
}

Bred crossover(GenomeView a, GenomeView b, util::Rng& rng, int max_depth,
               Genes& out) {
  const std::size_t target = node_offset(a.genes, random_node(rng, a.nodes));
  const Extent cut = subtree(a.genes, target);
  const std::size_t source = node_offset(b.genes, random_node(rng, b.nodes));
  const Extent graft = subtree(b.genes, source);
  const std::size_t start = out.size();
  out.insert(out.end(), a.genes.begin(), a.genes.begin() + target);
  out.insert(out.end(), b.genes.begin() + source, b.genes.begin() + graft.end);
  out.insert(out.end(), a.genes.begin() + cut.end, a.genes.end());
  return depth_checked(a, a.nodes - cut.nodes + graft.nodes, max_depth,
                       start, out);
}

Bred subtree_mutation(GenomeView a, util::Rng& rng, std::size_t n_vars,
                      int max_depth, Genes& out) {
  const std::size_t target = node_offset(a.genes, random_node(rng, a.nodes));
  const Extent cut = subtree(a.genes, target);
  const std::size_t start = out.size();
  out.insert(out.end(), a.genes.begin(), a.genes.begin() + target);
  const std::size_t grown = random_genome(rng, n_vars, 2, false, out);
  out.insert(out.end(), a.genes.begin() + cut.end, a.genes.end());
  return depth_checked(a, a.nodes - cut.nodes + grown, max_depth, start,
                       out);
}

Bred point_mutation(GenomeView a, util::Rng& rng, std::size_t n_vars,
                    Genes& out) {
  static const Op unary[] = {Op::kSqrt, Op::kLog, Op::kAbs, Op::kNeg,
                             Op::kSin, Op::kCos, Op::kTan, Op::kInv};
  static const Op binary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                              Op::kMin, Op::kMax};
  const auto pick = [&rng](const auto& ops) {
    return static_cast<std::uint8_t>(
        ops[rng.uniform_int(0, std::size(ops) - 1)]);
  };
  const std::size_t start = out.size();
  Bred child = copy_genome(a, out);
  for (std::size_t at = start; at < out.size();) {
    std::uint8_t* gene = &out[at];
    const Op op = gene_op(gene);
    at += gene_bytes(op);
    if (!rng.chance(0.15)) continue;
    child.fresh = true;
    if (op == Op::kConst) {
      // Gaussian constant perturbation.
      const double value = gene_value(gene);
      const double step = rng.normal(0.0, 0.3 + 0.1 * std::abs(value));
      set_gene_value(gene, value + step);
    } else if (op == Op::kVar) {
      if (n_vars > 1) {
        gene[1] = static_cast<std::uint8_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n_vars) - 1));
      }
    } else {
      *gene = arity(op) == 1 ? pick(unary) : pick(binary);
    }
  }
  return child;
}

}  // namespace dpr::gp

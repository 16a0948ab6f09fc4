#pragma once
// Test-only oracle: the tree-based GP operators the search used before it
// bred flat genomes. Each operator draws from the Rng exactly as the
// search did, so a genome operator is correct when, from the same parents
// and Rng state, it builds the same tree and leaves the Rng in the same
// state (gp_program_test's differential test).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "gp/expr.hpp"
#include "util/rng.hpp"

namespace dpr::gp::oracle {

/// Every node in pre-order: the node order site selection indexes.
inline std::vector<Node*> nodes(Expr& expr) {
  std::vector<Node*> out;
  std::vector<Node*> stack{expr.root()};
  while (!stack.empty()) {
    Node* cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    if (cur->rhs) stack.push_back(cur->rhs.get());
    if (cur->lhs) stack.push_back(cur->lhs.get());
  }
  return out;
}

inline Op random_function(util::Rng& rng) {
  static const Op weighted[] = {
      Op::kAdd, Op::kAdd, Op::kAdd, Op::kSub, Op::kSub, Op::kMul, Op::kMul,
      Op::kMul, Op::kDiv, Op::kDiv, Op::kSqrt, Op::kLog, Op::kAbs,
      Op::kNeg, Op::kMin, Op::kMax, Op::kSin, Op::kCos, Op::kTan,
      Op::kInv};
  return weighted[rng.uniform_int(0, std::size(weighted) - 1)];
}

inline std::unique_ptr<Node> random_node(util::Rng& rng, std::size_t n_vars,
                                         int depth, bool full) {
  const bool make_leaf = depth <= 0 || (!full && rng.chance(0.3));
  auto node = std::make_unique<Node>();
  if (make_leaf) {
    if (rng.chance(0.6)) {
      node->op = Op::kVar;
      node->var = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_vars) - 1));
    } else {
      node->op = Op::kConst;
      node->value = rng.uniform(-10.0, 10.0);
    }
    return node;
  }
  node->op = random_function(rng);
  node->lhs = random_node(rng, n_vars, depth - 1, full);
  if (arity(node->op) == 2) {
    node->rhs = random_node(rng, n_vars, depth - 1, full);
  }
  return node;
}

/// Random tree ("grow" when `full` is false), depth clamped to 64 (grow)
/// or 16 (full).
inline Expr random_expr(util::Rng& rng, std::size_t n_vars, int depth,
                        bool full) {
  depth = std::min(depth, full ? 16 : 64);
  return Expr(random_node(rng, n_vars, depth, full));
}

/// Nullopt when the offspring exceeds the depth bound.
inline std::optional<Expr> crossover(const Expr& a, const Expr& b,
                                     util::Rng& rng, int max_depth) {
  Expr child = a;
  auto child_nodes = nodes(child);
  Expr donor = b;
  auto donor_nodes = nodes(donor);
  Node* target = child_nodes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(child_nodes.size()) - 1))];
  const Node* source = donor_nodes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(donor_nodes.size()) - 1))];
  auto cloned = source->clone();
  *target = std::move(*cloned);
  if (child.depth() > max_depth) return std::nullopt;
  return child;
}

inline std::optional<Expr> subtree_mutation(const Expr& a, util::Rng& rng,
                                            std::size_t n_vars,
                                            int max_depth) {
  Expr child = a;
  auto child_nodes = nodes(child);
  Node* target = child_nodes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(child_nodes.size()) - 1))];
  Expr replacement = random_expr(rng, n_vars, 2, false);
  auto cloned = replacement.root()->clone();
  *target = std::move(*cloned);
  if (child.depth() > max_depth) return std::nullopt;
  return child;
}

/// Nullopt when no node was mutated.
inline std::optional<Expr> point_mutation(const Expr& a, util::Rng& rng,
                                          std::size_t n_vars) {
  Expr child = a;
  bool mutated = false;
  for (Node* node : nodes(child)) {
    if (!rng.chance(0.15)) continue;
    mutated = true;
    switch (arity(node->op)) {
      case 0:
        if (node->op == Op::kConst) {
          node->value += rng.normal(0.0, 0.3 + 0.1 * std::abs(node->value));
        } else if (n_vars > 1) {
          node->var = static_cast<int>(
              rng.uniform_int(0, static_cast<std::int64_t>(n_vars) - 1));
        }
        break;
      case 1: {
        static const Op unary[] = {Op::kSqrt, Op::kLog, Op::kAbs, Op::kNeg,
                                   Op::kSin, Op::kCos, Op::kTan, Op::kInv};
        node->op = unary[rng.uniform_int(0, std::size(unary) - 1)];
        break;
      }
      case 2: {
        static const Op binary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                                    Op::kMin, Op::kMax};
        node->op = binary[rng.uniform_int(0, std::size(binary) - 1)];
        break;
      }
    }
  }
  if (!mutated) return std::nullopt;
  return child;
}

}  // namespace dpr::gp::oracle

#include "gp/expr.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "gp/vmath.hpp"

namespace dpr::gp {

Node::~Node() {
  // Steal the whole subtree into a flat worklist before anything dies:
  // every node then destructs with empty children, so teardown depth is
  // constant no matter how deep the tree was.
  std::vector<std::unique_ptr<Node>> queue;
  if (lhs) queue.push_back(std::move(lhs));
  if (rhs) queue.push_back(std::move(rhs));
  while (!queue.empty()) {
    auto node = std::move(queue.back());
    queue.pop_back();
    if (node->lhs) queue.push_back(std::move(node->lhs));
    if (node->rhs) queue.push_back(std::move(node->rhs));
  }
}

std::unique_ptr<Node> Node::clone() const {
  auto root = std::make_unique<Node>();
  std::vector<std::pair<const Node*, Node*>> stack{{this, root.get()}};
  while (!stack.empty()) {
    const auto [src, dst] = stack.back();
    stack.pop_back();
    dst->op = src->op;
    dst->value = src->value;
    dst->var = src->var;
    if (src->lhs) {
      dst->lhs = std::make_unique<Node>();
      stack.push_back({src->lhs.get(), dst->lhs.get()});
    }
    if (src->rhs) {
      dst->rhs = std::make_unique<Node>();
      stack.push_back({src->rhs.get(), dst->rhs.get()});
    }
  }
  return root;
}

Expr Expr::constant(double v) {
  auto node = std::make_unique<Node>();
  node->op = Op::kConst;
  node->value = v;
  return Expr(std::move(node));
}

Expr Expr::variable(int index) {
  auto node = std::make_unique<Node>();
  node->op = Op::kVar;
  node->var = index;
  return Expr(std::move(node));
}

Expr Expr::unary(Op op, Expr operand) {
  auto node = std::make_unique<Node>();
  node->op = op;
  node->lhs = std::move(operand.root_);
  return Expr(std::move(node));
}

Expr Expr::binary(Op op, Expr lhs, Expr rhs) {
  auto node = std::make_unique<Node>();
  node->op = op;
  node->lhs = std::move(lhs.root_);
  node->rhs = std::move(rhs.root_);
  return Expr(std::move(node));
}

namespace {

double eval_node(const Node* node, std::span<const double> vars) {
  switch (node->op) {
    case Op::kConst:
      return node->value;
    case Op::kVar:
      // A reference outside the operand vector means the tree is invalid
      // for this dataset — surface it instead of masking it as 0.
      if (node->var < 0 || node->var >= static_cast<int>(vars.size())) {
        throw std::out_of_range("gp: variable index out of range");
      }
      return vars[node->var];
    case Op::kAdd:
      return eval_node(node->lhs.get(), vars) +
             eval_node(node->rhs.get(), vars);
    case Op::kSub:
      return eval_node(node->lhs.get(), vars) -
             eval_node(node->rhs.get(), vars);
    case Op::kMul:
      return eval_node(node->lhs.get(), vars) *
             eval_node(node->rhs.get(), vars);
    case Op::kDiv: {
      const double d = eval_node(node->rhs.get(), vars);
      if (std::abs(d) < 1e-9) return 1.0;
      return eval_node(node->lhs.get(), vars) / d;
    }
    case Op::kMin:
      return std::min(eval_node(node->lhs.get(), vars),
                      eval_node(node->rhs.get(), vars));
    case Op::kMax:
      return std::max(eval_node(node->lhs.get(), vars),
                      eval_node(node->rhs.get(), vars));
    case Op::kSqrt:
      return std::sqrt(std::abs(eval_node(node->lhs.get(), vars)));
    case Op::kLog:
      return vm_log(eval_node(node->lhs.get(), vars));
    case Op::kAbs:
      return std::abs(eval_node(node->lhs.get(), vars));
    case Op::kNeg:
      return -eval_node(node->lhs.get(), vars);
    case Op::kSin:
      return vm_sin(eval_node(node->lhs.get(), vars));
    case Op::kCos:
      return vm_cos(eval_node(node->lhs.get(), vars));
    case Op::kTan:
      return vm_tan(eval_node(node->lhs.get(), vars));
    case Op::kInv: {
      const double v = eval_node(node->lhs.get(), vars);
      return std::abs(v) < 1e-9 ? 0.0 : 1.0 / v;
    }
  }
  return 0.0;
}

std::size_t size_node(const Node* node) {
  std::size_t n = 0;
  std::vector<const Node*> stack{node};
  while (!stack.empty()) {
    const Node* cur = stack.back();
    stack.pop_back();
    ++n;
    if (cur->lhs) stack.push_back(cur->lhs.get());
    if (cur->rhs) stack.push_back(cur->rhs.get());
  }
  return n;
}

int depth_node(const Node* node) {
  int d = 0;
  if (node->lhs) d = std::max(d, depth_node(node->lhs.get()));
  if (node->rhs) d = std::max(d, depth_node(node->rhs.get()));
  return d + 1;
}

std::string format_const(double v) {
  std::ostringstream out;
  out.precision(4);
  out << v;
  return out.str();
}

std::string print_node(const Node* node, std::size_t n_vars) {
  switch (node->op) {
    case Op::kConst:
      return format_const(node->value);
    case Op::kVar:
      return n_vars <= 1 ? "X" : "X" + std::to_string(node->var);
    case Op::kAdd:
      return "(" + print_node(node->lhs.get(), n_vars) + " + " +
             print_node(node->rhs.get(), n_vars) + ")";
    case Op::kSub:
      return "(" + print_node(node->lhs.get(), n_vars) + " - " +
             print_node(node->rhs.get(), n_vars) + ")";
    case Op::kMul:
      return "(" + print_node(node->lhs.get(), n_vars) + " * " +
             print_node(node->rhs.get(), n_vars) + ")";
    case Op::kDiv:
      return "(" + print_node(node->lhs.get(), n_vars) + " / " +
             print_node(node->rhs.get(), n_vars) + ")";
    case Op::kMin:
      return "min(" + print_node(node->lhs.get(), n_vars) + ", " +
             print_node(node->rhs.get(), n_vars) + ")";
    case Op::kMax:
      return "max(" + print_node(node->lhs.get(), n_vars) + ", " +
             print_node(node->rhs.get(), n_vars) + ")";
    case Op::kSqrt:
      return "sqrt(" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kLog:
      return "log(" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kAbs:
      return "abs(" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kNeg:
      return "(-" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kSin:
      return "sin(" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kCos:
      return "cos(" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kTan:
      return "tan(" + print_node(node->lhs.get(), n_vars) + ")";
    case Op::kInv:
      return "(1/" + print_node(node->lhs.get(), n_vars) + ")";
  }
  return "?";
}

bool is_const(const Node* node, double v) {
  return node->op == Op::kConst && node->value == v;
}

/// Returns true if the subtree contains no variables.
bool constant_subtree(const Node* node) {
  if (node->op == Op::kVar) return false;
  if (node->lhs && !constant_subtree(node->lhs.get())) return false;
  if (node->rhs && !constant_subtree(node->rhs.get())) return false;
  return true;
}

void simplify_node(std::unique_ptr<Node>& node) {
  if (node->lhs) simplify_node(node->lhs);
  if (node->rhs) simplify_node(node->rhs);

  // Fold fully-constant subtrees.
  if (node->op != Op::kConst && constant_subtree(node.get())) {
    const double v = eval_node(node.get(), {});
    if (std::isfinite(v)) {
      auto folded = std::make_unique<Node>();
      folded->op = Op::kConst;
      folded->value = v;
      node = std::move(folded);
      return;
    }
  }

  // Identity cleanups.
  switch (node->op) {
    case Op::kAdd:
      if (is_const(node->lhs.get(), 0.0)) node = std::move(node->rhs);
      else if (is_const(node->rhs.get(), 0.0)) node = std::move(node->lhs);
      break;
    case Op::kSub:
      if (is_const(node->rhs.get(), 0.0)) node = std::move(node->lhs);
      break;
    case Op::kMul:
      if (is_const(node->lhs.get(), 1.0)) node = std::move(node->rhs);
      else if (is_const(node->rhs.get(), 1.0)) node = std::move(node->lhs);
      else if (is_const(node->lhs.get(), 0.0) ||
               is_const(node->rhs.get(), 0.0)) {
        auto zero = std::make_unique<Node>();
        zero->op = Op::kConst;
        zero->value = 0.0;
        node = std::move(zero);
      }
      break;
    case Op::kDiv:
      if (is_const(node->rhs.get(), 1.0)) node = std::move(node->lhs);
      break;
    default:
      break;
  }
}

}  // namespace

double Expr::eval(std::span<const double> vars) const {
  return eval_node(root_.get(), vars);
}

std::size_t Expr::size() const { return size_node(root_.get()); }

int Expr::depth() const { return depth_node(root_.get()); }

std::string Expr::to_string(std::size_t n_vars) const {
  return print_node(root_.get(), n_vars);
}

void Expr::simplify() { simplify_node(root_); }

}  // namespace dpr::gp

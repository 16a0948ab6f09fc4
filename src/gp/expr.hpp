#pragma once
// Expression trees for genetic-programming symbolic regression (§3.5):
// interior nodes are functions, leaves are variables or constants. The
// search itself breeds flat genomes (gp/genome.hpp); a tree is the form
// of its result — simplified, printed, checkpointed — and Expr::eval is
// the reference semantics every faster evaluator must match bit for bit.
// The function set matches the paper's 14 supported functions (§6): addition,
// subtraction, multiplication, division, square root, log, absolute
// value, negation, maximum, minimum, sine, cosine, tangent, inverse.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dpr::gp {

enum class Op : std::uint8_t {
  kConst,
  kVar,
  // Binary functions.
  kAdd,
  kSub,
  kMul,
  kDiv,   // protected: |denominator| < 1e-9 evaluates to 1
  kMin,
  kMax,
  // Unary functions.
  kSqrt,  // protected: sqrt(|x|)
  kLog,   // protected: log(|x|), 0 at 0
  kAbs,
  kNeg,
  kSin,
  kCos,
  kTan,   // clamped to [-1e6, 1e6]
  kInv,   // protected: 1/x, 0 when |x| < 1e-9
};

constexpr int arity(Op op) {
  switch (op) {
    case Op::kConst:
    case Op::kVar:
      return 0;
    case Op::kSqrt:
    case Op::kLog:
    case Op::kAbs:
    case Op::kNeg:
    case Op::kSin:
    case Op::kCos:
    case Op::kTan:
    case Op::kInv:
      return 1;
    default:
      return 2;
  }
}

struct Node {
  Op op = Op::kConst;
  double value = 0.0;  // for kConst
  int var = 0;         // for kVar
  std::unique_ptr<Node> lhs;
  std::unique_ptr<Node> rhs;

  Node() = default;
  /// Iterative teardown: steals the children into an explicit worklist so
  /// destroying a pathologically deep tree never recurses down the C
  /// stack.
  ~Node();
  Node(Node&&) = default;
  Node& operator=(Node&&) = default;

  /// Deep copy via an explicit stack (never recursive).
  std::unique_ptr<Node> clone() const;
};

/// Owning expression handle with evaluation, printing and editing helpers.
class Expr {
 public:
  Expr() : root_(std::make_unique<Node>()) {}
  explicit Expr(std::unique_ptr<Node> root) : root_(std::move(root)) {}
  Expr(const Expr& other) : root_(other.root_->clone()) {}
  Expr& operator=(const Expr& other) {
    if (this != &other) root_ = other.root_->clone();
    return *this;
  }
  Expr(Expr&&) = default;
  Expr& operator=(Expr&&) = default;

  static Expr constant(double v);
  static Expr variable(int index);
  static Expr unary(Op op, Expr operand);
  static Expr binary(Op op, Expr lhs, Expr rhs);

  /// Recursive tree evaluation (the gp::Program tape is the batched fast
  /// path; this is the reference semantics). Throws std::out_of_range if
  /// the tree references a variable index outside `vars` — a bad tree is
  /// a hard error, never a silent 0.
  double eval(std::span<const double> vars) const;
  std::size_t size() const;
  int depth() const;

  /// Render with variable names "X" (single variable) or "X0"/"X1".
  std::string to_string(std::size_t n_vars) const;

  /// Constant folding + algebraic identity cleanup (x*1, x+0, ...).
  void simplify();

  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

 private:
  std::unique_ptr<Node> root_;
};

}  // namespace dpr::gp

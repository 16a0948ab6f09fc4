#pragma once
// Flat prefix genomes: the program representation the GP search (§3.5)
// breeds, as gplearn's flat program lists are.
//
// A genome is a program's nodes in pre-order, one gene per node: the op
// byte followed by the node's payload inline — one byte of variable index
// for kVar, the eight raw bytes of the value for kConst, nothing for a
// function. There is no padding, so two programs are equal exactly when
// their genes are, and the packed bytes serve as the fitness-cache key. A
// subtree is the contiguous range an arity scan finds from its first gene:
// crossover and subtree mutation are range splices, point mutation edits
// in place, and size and depth are scans. Pre-order node index equals gene
// index, so each operator makes the same draws, and builds the same
// program, as the matching tree operator does on the equivalent tree
// (tests/gp_tree_oracle.hpp keeps those tree operators).

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "gp/expr.hpp"
#include "util/rng.hpp"

namespace dpr::gp {

/// Packed genes of one or more genomes, back to back.
using Genes = std::vector<std::uint8_t>;

/// One genome: its genes and its node count.
struct GenomeView {
  std::span<const std::uint8_t> genes;
  std::size_t nodes = 0;
};

/// A variable's index must fit its one-byte payload.
inline constexpr std::size_t kMaxVars = 256;

constexpr std::size_t gene_bytes(Op op) {
  return op == Op::kConst ? 1 + sizeof(double) : op == Op::kVar ? 2 : 1;
}
inline Op gene_op(const std::uint8_t* gene) { return static_cast<Op>(*gene); }
inline int gene_var(const std::uint8_t* gene) { return gene[1]; }
inline double gene_value(const std::uint8_t* gene) {
  double value;
  std::memcpy(&value, gene + 1, sizeof value);
  return value;
}
inline void set_gene_value(std::uint8_t* gene, double value) {
  std::memcpy(gene + 1, &value, sizeof value);
}

void append_op(Genes& out, Op op);
void append_var(Genes& out, int var);
void append_const(Genes& out, double value);

/// Byte offset of pre-order node `index`.
std::size_t node_offset(std::span<const std::uint8_t> genes,
                        std::size_t index);

/// The subtree whose first gene is at byte offset `at`: the offset just
/// past its last gene, and its node count.
struct Extent {
  std::size_t end = 0;
  std::size_t nodes = 0;
};
Extent subtree(std::span<const std::uint8_t> genes, std::size_t at);

/// Levels of the program (a single leaf has depth 1).
int genome_depth(std::span<const std::uint8_t> genes);

/// Appends the genes of `expr`. Throws std::invalid_argument if the tree
/// references a variable outside [0, min(n_vars, kMaxVars)).
void flatten(const Expr& expr, std::size_t n_vars, Genes& out);

/// Builds the tree of one genome (iteratively, so depth is no concern).
Expr to_expr(std::span<const std::uint8_t> genes);

/// Appends a random program ("grow" when `full` is false) of at most
/// `depth` levels below the root; returns its node count. The depth is
/// clamped to kMaxGrowDepth (grow) or kMaxFullDepth (full trees double
/// per level, so the cap also bounds the node count).
inline constexpr int kMaxGrowDepth = 64;
inline constexpr int kMaxFullDepth = 16;
std::size_t random_genome(util::Rng& rng, std::size_t n_vars, int depth,
                          bool full, Genes& out);

/// What a breeding operator appended to its output: the child's node
/// count, and whether it is new. A child that is not new (an oversize
/// offspring rejected, or no site mutated) is a copy of the first parent
/// and keeps that parent's fitness.
struct Bred {
  std::size_t nodes = 0;
  bool fresh = false;
};

/// Appends a copy of `a`.
Bred copy_genome(GenomeView a, Genes& out);

/// Replaces a random subtree of `a` with a random subtree of `b`; an
/// offspring deeper than `max_depth` is rejected.
Bred crossover(GenomeView a, GenomeView b, util::Rng& rng, int max_depth,
               Genes& out);

/// Replaces a random subtree of `a` with a random grow tree of depth 2;
/// an offspring deeper than `max_depth` is rejected.
Bred subtree_mutation(GenomeView a, util::Rng& rng, std::size_t n_vars,
                      int max_depth, Genes& out);

/// Mutates each node of a copy of `a` with probability 0.15: constants
/// take a Gaussian step, variables a new index, functions another function
/// of the same arity.
Bred point_mutation(GenomeView a, util::Rng& rng, std::size_t n_vars,
                    Genes& out);

}  // namespace dpr::gp

#ifndef AUTOAC_COMPILER_PASSES_H_
#define AUTOAC_COMPILER_PASSES_H_

#include "tensor/graph_ir.h"

// Rewrite passes over the captured inference IR (DESIGN.md §11). Every pass
// preserves bitwise-identical outputs at every thread count: dead-node
// elimination and in-place marking never touch a float, constant folding
// executes the op's own recorded kernel once at compile time (the runtime
// is deterministic across thread counts), and fusion rebuilds kernels that
// replay the unfused chain's float ops in the same order.

namespace autoac::compiler {

/// Removes nodes whose outputs no consumer (transitively, from the graph
/// outputs) ever reads, and recomputes Graph::complete — a dead opaque op
/// (e.g. a loss recorded alongside the forward) no longer poisons the graph.
/// Returns the number of nodes removed.
int DeadNodeElimination(ir::Graph& g);

/// Evaluates every node whose inputs are all constants (frozen weights or
/// earlier folded results) by running its recorded kernel once, and replaces
/// the node with a kConst value holding the result. kInput values (H0) stop
/// folding exactly where run-time data enters. Returns the number of nodes
/// folded; run DeadNodeElimination afterwards to drop the now-dead inputs.
int FoldConstants(ir::Graph& g);

/// Pattern-fuses op chains into single fused kernels:
///   [GatherRows] -> MatMul -> [AddBias] -> [Relu|Elu]
///   SpMM -> [AddBias] -> [Relu|Elu]
/// A chain fuses only when every intermediate link has exactly one consumer
/// and is not a graph output, and only when at least one optional component
/// is present (a bare MatMul/SpMM is left alone). Returns the number of
/// chains fused.
int FusePatterns(ir::Graph& g);

/// Marks nodes whose output can reuse their first input's buffer: the node's
/// kernel is alias-safe (ir::kCanAliasInput0), the input is an intermediate
/// of equal numel, and this node is its final consumer. The planner then
/// assigns both values one arena slot. Returns the number of nodes marked.
int MarkInPlace(ir::Graph& g);

/// The fixed pipeline: DCE, fold, DCE, fuse, DCE, in-place.
void RunPassPipeline(ir::Graph& g);

}  // namespace autoac::compiler

#endif  // AUTOAC_COMPILER_PASSES_H_

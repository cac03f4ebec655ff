// Tests for the graph-compiler pass pipeline and arena memory planner
// (src/compiler/, DESIGN.md §11): IR capture and dump format, per-pass
// golden behaviour (dead-node elimination, constant folding, pattern
// fusion, in-place marking — each firing and each staying a no-op when its
// pattern is absent), planner liveness correctness under fuzzing, and the
// two end-to-end acceptance gates — compiled-vs-interpreted bitwise
// identity at 1 and 4 threads for every model architecture the factory can
// export, and zero heap tensor allocations in the compiled steady state.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiled_graph.h"
#include "compiler/passes.h"
#include "compiler/planner.h"
#include "data/hgb_datasets.h"
#include "graph/sparse_ops.h"
#include "gtest/gtest.h"
#include "models/factory.h"
#include "tensor/graph_ir.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace autoac {
namespace {

void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

SpMatPtr RandomSparse(int64_t m, int64_t n, int64_t nnz, Rng& rng) {
  std::vector<int64_t> rows, cols;
  std::vector<float> vals;
  for (int64_t e = 0; e < nnz; ++e) {
    rows.push_back(rng.UniformInt(0, m - 1));
    cols.push_back(rng.UniformInt(0, n - 1));
    vals.push_back(static_cast<float>(rng.Uniform(0.2, 1.0)));
  }
  return MakeSparse(Csr::FromCoo(m, n, rows, cols, vals));
}

// --- IR capture -------------------------------------------------------------

TEST(IrCaptureTest, RecordsValuesNodesAndOutputs) {
  Rng rng(1);
  Tensor xv = RandomNormal({2, 3}, 1.0f, rng);
  Tensor wv = RandomNormal({3, 4}, 1.0f, rng);
  Tensor bv = RandomNormal({4}, 1.0f, rng);

  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr y = AddBias(MatMul(x, MakeConst(wv)), MakeConst(bv));
    g = capture.Finish(y);
  }
  ASSERT_TRUE(g.complete);
  ASSERT_EQ(g.nodes.size(), 2u);
  ASSERT_EQ(g.outputs.size(), 1u);

  std::string dump = g.Dump();
  EXPECT_NE(dump.find("v0: input [2, 3] \"x\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("v1: const [3, 4]"), std::string::npos) << dump;
  EXPECT_NE(dump.find("n0: MatMul(v0, v1) -> v2 [2, 4]"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("n1: AddBias(v2, v3) -> v4 [2, 4]"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("outputs: v4"), std::string::npos) << dump;
}

TEST(IrCaptureTest, OpaqueOpMarksCaptureIncompleteUntilDceRemovesIt) {
  Rng rng(2);
  Tensor xv = RandomNormal({4, 4}, 1.0f, rng);
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    // Training-mode dropout has no replay kernel (it depends on RNG state);
    // its result is never consumed, so DCE can restore compilability.
    Rng dropout_rng(3);
    VarPtr unused = Dropout(x, 0.5f, /*training=*/true, dropout_rng);
    (void)unused;
    VarPtr y = Relu(x);
    g = capture.Finish(y);
  }
  EXPECT_FALSE(g.complete);
  EXPECT_NE(g.Dump().find("opaque"), std::string::npos) << g.Dump();

  EXPECT_EQ(compiler::DeadNodeElimination(g), 1);
  EXPECT_TRUE(g.complete);
  EXPECT_EQ(g.Dump().find("Dropout"), std::string::npos) << g.Dump();
}

// --- pass pipeline ----------------------------------------------------------

TEST(PassesTest, DeadNodeEliminationDropsUnreadChains) {
  Rng rng(4);
  Tensor xv = RandomNormal({3, 3}, 1.0f, rng);
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr dead = Mul(x, x);
    (void)dead;
    VarPtr y = Relu(x);
    g = capture.Finish(y);
  }
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(compiler::DeadNodeElimination(g), 1);
  EXPECT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.Dump().find("Mul"), std::string::npos) << g.Dump();
  // A second run is a no-op.
  EXPECT_EQ(compiler::DeadNodeElimination(g), 0);
}

TEST(PassesTest, ConstantFoldingFoldsFrozenSubexpressions) {
  Rng rng(5);
  Tensor xv = RandomNormal({6, 4}, 1.0f, rng);
  Tensor w1 = RandomNormal({4, 3}, 1.0f, rng);
  Tensor w2 = RandomNormal({4, 3}, 1.0f, rng);

  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    // Add(w1, w2) is a frozen-weight subexpression; MatMul sees the input.
    VarPtr y = MatMul(x, Add(MakeConst(w1), MakeConst(w2)));
    g = capture.Finish(y);
  }
  ASSERT_EQ(g.nodes.size(), 2u);
  EXPECT_EQ(compiler::FoldConstants(g), 1);
  ASSERT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.nodes[0].op, "MatMul");
  EXPECT_NE(g.Dump().find("folded"), std::string::npos) << g.Dump();

  // The folded constant is bitwise what the eager Add produced.
  Tensor expected(std::vector<int64_t>{4, 3});
  for (int64_t i = 0; i < expected.numel(); ++i) {
    expected.data()[i] = w1.data()[i] + w2.data()[i];
  }
  const Tensor* folded = g.values[g.nodes[0].inputs[1]].const_data();
  ASSERT_NE(folded, nullptr);
  ExpectTensorsBitwiseEqual(*folded, expected);
}

TEST(PassesTest, ConstantFoldingIsNoOpWhenInputReachesEverything) {
  Rng rng(6);
  Tensor xv = RandomNormal({3, 3}, 1.0f, rng);
  Tensor wv = RandomNormal({3, 3}, 1.0f, rng);
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr y = Relu(Sub(x, MakeConst(wv)));
    g = capture.Finish(y);
  }
  std::string before = g.Dump();
  EXPECT_EQ(compiler::FoldConstants(g), 0);
  EXPECT_EQ(g.Dump(), before);
}

TEST(PassesTest, FusionFiresOnDenseLinearChain) {
  Rng rng(7);
  Tensor xv = RandomNormal({6, 4}, 1.0f, rng);
  Tensor wv = RandomNormal({4, 3}, 1.0f, rng);
  Tensor bv = RandomNormal({3}, 1.0f, rng);

  Tensor eager;
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr y = Elu(AddBias(MatMul(x, MakeConst(wv)), MakeConst(bv)));
    eager = y->value;
    g = capture.Finish(y);
  }
  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_EQ(compiler::FusePatterns(g), 1);
  ASSERT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.nodes[0].op, "FusedMatMulBiasElu");

  // The fused graph still computes the exact eager result.
  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(g));
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  compiler::CompiledGraph cg = compiled.TakeValue();
  Tensor out;
  cg.Run({&xv}, &out);
  ExpectTensorsBitwiseEqual(out, eager);
}

TEST(PassesTest, FusionPullsGatherIntoTheLinearChain) {
  Rng rng(8);
  Tensor xv = RandomNormal({6, 4}, 1.0f, rng);
  Tensor wv = RandomNormal({4, 3}, 1.0f, rng);
  Tensor bv = RandomNormal({3}, 1.0f, rng);

  Tensor eager;
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr y = Relu(AddBias(
        MatMul(GatherRows(x, {3, 0, 5, 2}), MakeConst(wv)), MakeConst(bv)));
    eager = y->value;
    g = capture.Finish(y);
  }
  ASSERT_EQ(g.nodes.size(), 4u);
  EXPECT_EQ(compiler::FusePatterns(g), 1);
  ASSERT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.nodes[0].op, "FusedGatherMatMulBiasRelu");

  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(g));
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  compiler::CompiledGraph cg = compiled.TakeValue();
  Tensor out;
  cg.Run({&xv}, &out);
  ExpectTensorsBitwiseEqual(out, eager);
}

TEST(PassesTest, FusionFiresOnSparseAggregationChain) {
  Rng rng(9);
  SpMatPtr a = RandomSparse(5, 6, 11, rng);
  Tensor xv = RandomNormal({6, 3}, 1.0f, rng);
  Tensor bv = RandomNormal({3}, 1.0f, rng);

  Tensor eager;
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr y = Relu(AddBias(SpMM(a, x), MakeConst(bv)));
    eager = y->value;
    g = capture.Finish(y);
  }
  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_EQ(compiler::FusePatterns(g), 1);
  ASSERT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.nodes[0].op, "FusedSpMMBiasRelu");

  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(g));
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  compiler::CompiledGraph cg = compiled.TakeValue();
  Tensor out;
  cg.Run({&xv}, &out);
  ExpectTensorsBitwiseEqual(out, eager);
}

TEST(PassesTest, FusionIsNoOpWithoutAFusableNeighbor) {
  Rng rng(10);
  Tensor xv = RandomNormal({4, 4}, 1.0f, rng);
  Tensor wv = RandomNormal({4, 4}, 1.0f, rng);

  // A bare MatMul feeding the output has no optional component to fuse.
  {
    ir::Graph g;
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr y = MatMul(x, MakeConst(wv));
    g = capture.Finish(y);
    EXPECT_EQ(compiler::FusePatterns(g), 0);
  }

  // A MatMul read by two consumers must stay materialized: swallowing it
  // into a fused node would recompute (or hide) a value someone else reads.
  {
    ir::Graph g;
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr m = MatMul(x, MakeConst(wv));
    VarPtr y = Add(m, Relu(m));
    g = capture.Finish(y);
    std::string before = g.Dump();
    EXPECT_EQ(compiler::FusePatterns(g), 0);
    EXPECT_EQ(g.Dump(), before);
  }
}

TEST(PassesTest, InPlaceMarkingRequiresDyingIntermediateInput) {
  Rng rng(11);
  Tensor xv = RandomNormal({4, 4}, 1.0f, rng);
  Tensor wv = RandomNormal({4, 4}, 1.0f, rng);
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    // Sub reads the input leaf (not an intermediate): no in-place. Relu
    // reads Sub's dying intermediate: in-place. Scale defines the graph
    // output (which lives in the caller's tensor): no in-place.
    VarPtr y = Scale(Relu(Sub(x, MakeConst(wv))), 2.0f);
    g = capture.Finish(y);
  }
  EXPECT_EQ(compiler::MarkInPlace(g), 1);
  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_FALSE(g.nodes[0].inplace);
  EXPECT_TRUE(g.nodes[1].inplace);
  EXPECT_FALSE(g.nodes[2].inplace);
  EXPECT_NE(g.Dump().find("inplace"), std::string::npos) << g.Dump();
}

// --- memory planner ---------------------------------------------------------

TEST(PlannerTest, LongChainRecyclesTwoSlots) {
  Rng rng(12);
  Tensor xv = RandomNormal({4, 4}, 1.0f, rng);
  Tensor wv = RandomNormal({4, 4}, 1.0f, rng);
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr w = MakeConst(wv);
    VarPtr h = x;
    for (int step = 0; step < 5; ++step) h = Sub(h, w);
    g = capture.Finish(h);
  }
  // 4 intermediates (the 5th Sub defines the output) but only 2 slots: a
  // value dies as soon as the next link consumes it.
  compiler::MemoryPlan plan = compiler::PlanMemory(g);
  EXPECT_EQ(plan.slot_capacity.size(), 2u);
  Status verified = compiler::VerifyPlan(g, plan);
  EXPECT_TRUE(verified.ok()) << verified.message();
}

/// Random (structurally valid) graph: a few leaves, then nodes consuming
/// uniformly random prior values. Kernels stay null — the planner never
/// executes anything.
ir::Graph RandomGraph(Rng& rng) {
  ir::Graph g;
  int num_leaves = 1 + static_cast<int>(rng.UniformInt(0, 3));
  for (int l = 0; l < num_leaves; ++l) {
    ir::Value v;
    v.shape = {1 + rng.UniformInt(0, 7), 1 + rng.UniformInt(0, 7)};
    v.kind = l == 0 ? ir::ValueKind::kInput : ir::ValueKind::kConst;
    g.values.push_back(std::move(v));
  }
  int num_nodes = 1 + static_cast<int>(rng.UniformInt(0, 19));
  for (int i = 0; i < num_nodes; ++i) {
    ir::Node n;
    n.op = "FuzzOp";
    int arity = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int a = 0; a < arity; ++a) {
      n.inputs.push_back(static_cast<int32_t>(
          rng.UniformInt(0, static_cast<int64_t>(g.values.size()) - 1)));
    }
    if (rng.UniformInt(0, 1) == 1) n.flags = ir::kCanAliasInput0;
    if (rng.UniformInt(0, 3) == 0) n.scratch_numel = rng.UniformInt(1, 64);
    ir::Value out;
    out.shape = {1 + rng.UniformInt(0, 7), 1 + rng.UniformInt(0, 7)};
    out.kind = ir::ValueKind::kIntermediate;
    out.def = static_cast<int32_t>(g.nodes.size());
    n.out = static_cast<int32_t>(g.values.size());
    g.values.push_back(std::move(out));
    g.nodes.push_back(std::move(n));
  }
  // The last value is always read by the caller; sometimes an interior
  // intermediate is too (multi-output liveness).
  g.outputs.push_back(static_cast<int32_t>(g.values.size()) - 1);
  if (g.nodes.size() > 1 && rng.UniformInt(0, 1) == 1) {
    int32_t extra = g.nodes[g.nodes.size() / 2].out;
    if (extra != g.outputs[0]) g.outputs.push_back(extra);
  }
  return g;
}

// Fuzz gate: for every random graph (with in-place rewrites applied where
// legal), the plan must pass the full liveness-overlap verification — no
// two simultaneously live values may share a slot, every slot must be big
// enough, scratch must cover every node.
TEST(PlannerTest, FuzzedGraphsAlwaysVerifyClean) {
  Rng rng(123);
  for (int iter = 0; iter < 200; ++iter) {
    ir::Graph g = RandomGraph(rng);
    compiler::MarkInPlace(g);
    compiler::MemoryPlan plan = compiler::PlanMemory(g);
    Status verified = compiler::VerifyPlan(g, plan);
    ASSERT_TRUE(verified.ok())
        << "iteration " << iter << ": " << verified.message() << "\n"
        << g.Dump() << plan.Dump(g);
  }
}

TEST(PlannerTest, VerifyPlanRejectsCorruptedPlans) {
  Rng rng(13);
  Tensor xv = RandomNormal({4, 4}, 1.0f, rng);
  ir::Graph g;
  {
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    VarPtr a = Relu(x);
    VarPtr b = Elu(x);
    VarPtr y = Add(a, b);
    g = capture.Finish(y);
  }
  compiler::MemoryPlan good = compiler::PlanMemory(g);
  ASSERT_TRUE(compiler::VerifyPlan(g, good).ok());

  // Both intermediates are live at the Add: forcing them into one slot is
  // the overlap the fuzzer guards against.
  compiler::MemoryPlan overlapping = good;
  overlapping.slot_of_value[g.nodes[1].out] =
      overlapping.slot_of_value[g.nodes[0].out];
  EXPECT_FALSE(compiler::VerifyPlan(g, overlapping).ok());

  // A slot smaller than its value is equally fatal.
  compiler::MemoryPlan small = good;
  small.slot_capacity[small.slot_of_value[g.nodes[0].out]] = 1;
  EXPECT_FALSE(compiler::VerifyPlan(g, small).ok());

  // Scratch below a node's requirement must be caught too.
  compiler::MemoryPlan starved = good;
  g.nodes[0].scratch_numel = 128;
  EXPECT_FALSE(compiler::VerifyPlan(g, starved).ok());
}

// --- end-to-end: compiled forward over the model zoo ------------------------

// One tiny shared dataset/context for the end-to-end tests (building the
// context is the expensive part).
class CompilerEnvironment {
 public:
  static CompilerEnvironment& Get() {
    static CompilerEnvironment* env = new CompilerEnvironment();
    return *env;
  }
  const ModelContext& ctx() const { return ctx_; }

 private:
  CompilerEnvironment() {
    DatasetOptions options;
    options.scale = 0.04;
    dataset_ = MakeDataset("imdb", options);
    ctx_ = BuildModelContext(dataset_.graph);
  }
  Dataset dataset_;
  ModelContext ctx_;
};

ModelConfig SmallModelConfig() {
  ModelConfig config;
  config.in_dim = 8;
  config.hidden_dim = 8;
  config.out_dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.dropout = 0.0f;
  return config;
}

class CompiledZooTest : public ::testing::TestWithParam<std::string> {};

// Acceptance gate: for every architecture the factory can export, the
// compiled forward (passes + fusion + arena) is bitwise identical to the
// interpreted tape-free forward, at one thread and at four.
TEST_P(CompiledZooTest, CompiledMatchesInterpretedBitwiseAt1And4Threads) {
  const ModelContext& ctx = CompilerEnvironment::Get().ctx();
  Rng init_rng(7);
  ModelPtr model = MakeModel(GetParam(), SmallModelConfig(), ctx, init_rng);
  ASSERT_NE(model, nullptr);

  int64_t n = ctx.graph->num_nodes();
  Rng data_rng(11);
  Tensor h0v = RandomNormal({n, 8}, 0.5f, data_rng);
  Tensor wv = RandomNormal({model->output_dim(), 5}, 0.5f, data_rng);
  Tensor bv = RandomNormal({5}, 0.5f, data_rng);

  auto interpreted = [&](int threads) {
    SetNumThreads(threads);
    NoGradGuard no_grad;
    Rng rng(13);
    VarPtr h0 = MakeConst(h0v);
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    VarPtr logits = AddBias(MatMul(h, MakeConst(wv)), MakeConst(bv));
    return std::move(logits->value);
  };
  Tensor ref1 = interpreted(1);
  Tensor ref4 = interpreted(4);

  ir::Graph g;
  {
    IrCapture capture;
    VarPtr h0 = MakeConst(h0v);
    capture.MarkInput(h0, "h0");
    Rng rng(13);
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    VarPtr logits = AddBias(MatMul(h, MakeConst(wv)), MakeConst(bv));
    g = capture.Finish(logits);
  }
  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(g));
  ASSERT_TRUE(compiled.ok()) << GetParam() << ": "
                             << compiled.status().message();
  compiler::CompiledGraph cg = compiled.TakeValue();

  Tensor out;
  SetNumThreads(1);
  cg.Run({&h0v}, &out);
  ExpectTensorsBitwiseEqual(out, ref1);
  SetNumThreads(4);
  cg.Run({&h0v}, &out);
  ExpectTensorsBitwiseEqual(out, ref4);
  SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CompiledZooTest,
    ::testing::Values("GCN", "GAT", "SimpleHGN", "HAN", "MAGNN", "HGT",
                      "HetSANN", "GTN", "HetGNN", "GATNE"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Acceptance gate: once warm, the compiled executor never touches the heap
// for tensors — every intermediate lives in the preplanned arena.
TEST(CompiledGraphTest, SteadyStateRunAllocatesZeroTensorBuffers) {
  const ModelContext& ctx = CompilerEnvironment::Get().ctx();
  Rng init_rng(7);
  ModelPtr model = MakeModel("SimpleHGN", SmallModelConfig(), ctx, init_rng);
  int64_t n = ctx.graph->num_nodes();
  Rng data_rng(11);
  Tensor h0v = RandomNormal({n, 8}, 0.5f, data_rng);

  ir::Graph g;
  {
    IrCapture capture;
    VarPtr h0 = MakeConst(h0v);
    capture.MarkInput(h0, "h0");
    Rng rng(13);
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    g = capture.Finish(h);
  }
  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(g));
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  compiler::CompiledGraph cg = compiled.TakeValue();

  Tensor out;
  cg.Run({&h0v}, &out);  // first call sizes the output buffer
  int64_t before = TensorBuffersAllocated();
  for (int run = 0; run < 3; ++run) cg.Run({&h0v}, &out);
  EXPECT_EQ(TensorBuffersAllocated(), before);
}

TEST(CompiledGraphTest, RejectsIncompleteAndMultiOutputGraphs) {
  Rng rng(14);
  Tensor xv = RandomNormal({3, 3}, 1.0f, rng);

  // An opaque op on the live path cannot be compiled away.
  {
    ir::Graph g;
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    Rng dropout_rng(15);
    VarPtr y = Relu(Dropout(x, 0.5f, /*training=*/true, dropout_rng));
    g = capture.Finish(y);
    EXPECT_FALSE(compiler::CompiledGraph::Compile(std::move(g)).ok());
  }

  // A forward that is an identity over a leaf records no node.
  {
    ir::Graph g;
    IrCapture capture;
    VarPtr x = MakeConst(xv);
    capture.MarkInput(x, "x");
    g = capture.Finish(x);
    EXPECT_FALSE(compiler::CompiledGraph::Compile(std::move(g)).ok());
  }
}

}  // namespace
}  // namespace autoac

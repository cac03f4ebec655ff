// Mutation-equivalence suite for the streaming graph mutation subsystem
// (DESIGN.md §12): the MutableGraph overlay's canonical-compaction
// invariant, and the headline gate — the K-hop dirty-frontier incremental
// recompute is *bitwise* identical to a from-scratch re-export of the
// mutated graph, for every architecture, at one thread and at four.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autoac/checkpoint.h"
#include "completion/completion_module.h"
#include "graph/mutable_graph.h"
#include "models/factory.h"
#include "serving/frozen_model.h"
#include "serving/inference_session.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace autoac {
namespace {

void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  if (a.numel() == 0) return;  // empty tensors have no buffer to compare
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

/// A small heterogeneous ring: attributed "item" nodes interleaved with
/// attribute-less "tag" nodes (item_i - tag_i - item_{i+1}), plus a sparse
/// same-type "rel" chord set. Ring topology keeps K-hop balls genuinely
/// local, so the partial recompute path actually executes (a dense graph
/// would always trip the size fallback).
HeteroGraphPtr RingGraph(int64_t pairs = 40, int64_t num_classes = 3) {
  auto graph = std::make_shared<HeteroGraph>();
  int64_t item = graph->AddNodeType("item", pairs);
  int64_t tag = graph->AddNodeType("tag", pairs);
  Rng rng(17);
  graph->SetAttributes(item, RandomNormal({pairs, 4}, 0.5f, rng));
  int64_t it = graph->AddEdgeType("it", item, tag);
  int64_t rel = graph->AddEdgeType("rel", item, item);
  for (int64_t i = 0; i < pairs; ++i) {
    graph->AddEdge(it, i, i);                  // item_i - tag_i
    graph->AddEdge(it, (i + 1) % pairs, i);    // tag_i - item_{i+1}
  }
  for (int64_t i = 0; i < pairs; i += 8) {
    graph->AddEdge(rel, i, (i + 3) % pairs);
  }
  graph->SetTargetNodeType(item);
  std::vector<int64_t> labels(pairs);
  for (int64_t i = 0; i < pairs; ++i) labels[i] = i % num_classes;
  graph->SetLabels(std::move(labels), num_classes);
  graph->Finalize();
  return graph;
}

/// The GNN configuration MakeFrozen exports.
ModelConfig ModelConfigOf(const FrozenModel& fz) {
  ModelConfig config;
  config.in_dim = fz.hidden_dim;
  config.hidden_dim = fz.hidden_dim;
  config.out_dim = fz.hidden_dim;
  config.num_layers = fz.num_layers;
  config.num_heads = fz.num_heads;
  config.dropout = fz.dropout;
  config.negative_slope = fz.negative_slope;
  return config;
}

/// A self-consistent artifact with untrained weights: H0 really is
/// CompleteDiscrete(op_of) under the stored completion parameters, so a
/// refreeze of the *unmutated* graph reproduces it bitwise. Equivalence
/// does not depend on the weight values, only on this consistency.
FrozenModel MakeFrozen(const std::string& model_name,
                       const HeteroGraphPtr& graph,
                       CompletionOpType (*op_fn)(int64_t)) {
  FrozenModel fz;
  fz.model_name = model_name;
  fz.hidden_dim = 8;
  fz.num_layers = 2;
  fz.num_heads = 2;
  fz.dropout = 0.0f;
  fz.negative_slope = 0.05f;
  fz.seed = 5;
  fz.num_classes = graph->num_classes();
  fz.graph = graph;
  Rng rng(fz.seed);
  CompletionConfig completion_config;
  completion_config.hidden_dim = fz.hidden_dim;
  completion_config.ppnp_steps = 3;
  CompletionModule completion(graph, completion_config, rng);
  ModelContext ctx = BuildModelContext(graph);
  ModelPtr model = MakeModel(model_name, ModelConfigOf(fz), ctx, rng,
                             /*l2_normalize_output=*/false);
  for (int64_t i = 0; i < completion.num_missing(); ++i) {
    fz.op_of.push_back(op_fn(i));
  }
  {
    NoGradGuard no_grad;
    fz.h0 = completion.CompleteDiscrete(fz.op_of)->value;
  }
  for (const VarPtr& p : model->Parameters()) {
    fz.model_params.push_back(p->value);
  }
  fz.classifier_weight =
      RandomNormal({model->output_dim(), fz.num_classes}, 0.1f, rng);
  fz.classifier_bias = RandomNormal({fz.num_classes}, 0.1f, rng);
  for (const VarPtr& p : completion.Parameters()) {
    fz.completion_params.push_back(p->value);
  }
  fz.ppnp_restart = completion_config.ppnp_restart;
  fz.ppnp_steps = completion_config.ppnp_steps;
  fz.fingerprint = ComputeFrozenFingerprint(fz);
  return fz;
}

CompletionOpType MixedOps(int64_t i) {
  switch (i % 3) {
    case 0: return CompletionOpType::kMean;
    case 1: return CompletionOpType::kGcn;
    default: return CompletionOpType::kOneHot;
  }
}

CompletionOpType AllPpnp(int64_t) { return CompletionOpType::kPpnp; }

/// The from-scratch reference: re-export the mutated graph and read the
/// full logits of a fresh serving session on it. This is what the
/// incremental path must match bitwise.
Tensor ReferenceLogits(const FrozenModel& fz, MutableGraph& replica) {
  const HeteroGraphPtr& compact = replica.Compact();
  StatusOr<FrozenModel> refrozen =
      RefreezeWithGraph(fz, compact, ExtendOpAssignment(fz, *compact));
  AUTOAC_CHECK(refrozen.ok()) << refrozen.status().message();
  InferenceSession session(refrozen.TakeValue());
  return session.logits();
}

/// The taped evaluation forward (GNN + linear head) of a model rebuilt with
/// MakeModel from `fz`'s weights: what a freshly built session's table must
/// equal bit for bit before any delta.
Tensor TapedLogits(const FrozenModel& fz) {
  ModelContext ctx = BuildModelContext(fz.graph);
  Rng init_rng(fz.seed);
  ModelPtr model = MakeModel(fz.model_name, ModelConfigOf(fz), ctx, init_rng,
                             /*l2_normalize_output=*/false);
  std::vector<VarPtr> params = model->Parameters();
  AUTOAC_CHECK_EQ(params.size(), fz.model_params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = fz.model_params[i];
  }
  AUTOAC_CHECK(GradModeEnabled());
  Rng fwd_rng(fz.seed);
  VarPtr h = model->Forward(ctx, MakeConst(fz.h0), /*training=*/false,
                            fwd_rng);
  VarPtr logits = AddBias(MatMul(h, MakeConst(fz.classifier_weight)),
                          MakeConst(fz.classifier_bias));
  AUTOAC_CHECK(!logits->parents.empty());  // the oracle really is taped
  return std::move(logits->value);
}

/// Replays one already-validated mutation onto the reference replica.
void ApplyToReplica(MutableGraph& replica, const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::kAddNode: {
      StatusOr<int64_t> type = replica.NodeTypeIdOf(m.node_type);
      ASSERT_TRUE(type.ok());
      ASSERT_TRUE(replica.AddNode(type.value(), m.attributes).ok());
      break;
    }
    case Mutation::Kind::kAddEdge:
    case Mutation::Kind::kRemoveEdge: {
      StatusOr<int64_t> type = replica.EdgeTypeIdOf(m.edge_type);
      ASSERT_TRUE(type.ok());
      Status applied = m.kind == Mutation::Kind::kAddEdge
                           ? replica.AddEdge(type.value(), m.src, m.dst)
                           : replica.RemoveEdge(type.value(), m.src, m.dst);
      ASSERT_TRUE(applied.ok()) << applied.message();
      break;
    }
  }
}

Mutation AddNodeMutation(const std::string& type,
                         std::vector<float> attrs = {}) {
  Mutation m;
  m.kind = Mutation::Kind::kAddNode;
  m.node_type = type;
  m.attributes = std::move(attrs);
  return m;
}

Mutation EdgeMutation(Mutation::Kind kind, const std::string& edge,
                      int64_t src, int64_t dst) {
  Mutation m;
  m.kind = kind;
  m.edge_type = edge;
  m.src = src;
  m.dst = dst;
  return m;
}

// --- MutableGraph: canonical compaction -------------------------------------

TEST(MutableGraphTest, CompactEqualsFromScratchBuild) {
  HeteroGraphPtr base = RingGraph(10);
  MutableGraph overlay(base);
  // Same graph before any mutation: Compact() is the base itself.
  EXPECT_EQ(overlay.Compact().get(), base.get());

  StatusOr<int64_t> new_tag = overlay.AddNode(1, {});
  ASSERT_TRUE(new_tag.ok());
  EXPECT_EQ(new_tag.value(), 10);  // appended at the end of the type range
  StatusOr<int64_t> new_item = overlay.AddNode(0, {1.f, 2.f, 3.f, 4.f});
  ASSERT_TRUE(new_item.ok());
  EXPECT_EQ(new_item.value(), 10);
  ASSERT_TRUE(overlay.AddEdge(0, new_item.value(), new_tag.value()).ok());
  ASSERT_TRUE(overlay.RemoveEdge(0, 3, 3).ok());

  const HeteroGraphPtr& compact = overlay.Compact();

  // From-scratch build with the same final content.
  auto scratch = std::make_shared<HeteroGraph>();
  int64_t item = scratch->AddNodeType("item", 11);
  int64_t tag = scratch->AddNodeType("tag", 11);
  {
    Rng rng(17);
    Tensor attrs = RandomNormal({10, 4}, 0.5f, rng);
    Tensor grown = Tensor::Zeros({11, 4});
    std::memcpy(grown.data(), attrs.data(), 10 * 4 * sizeof(float));
    float extra[] = {1.f, 2.f, 3.f, 4.f};
    std::memcpy(grown.data() + 10 * 4, extra, sizeof(extra));
    scratch->SetAttributes(item, std::move(grown));
  }
  int64_t it = scratch->AddEdgeType("it", item, tag);
  int64_t rel = scratch->AddEdgeType("rel", item, item);
  for (int64_t i = 0; i < 10; ++i) {
    if (i != 3) scratch->AddEdge(it, i, i);  // the removed edge is elided
    scratch->AddEdge(it, (i + 1) % 10, i);
  }
  for (int64_t i = 0; i < 10; i += 8) scratch->AddEdge(rel, i, (i + 3) % 10);
  scratch->AddEdge(it, 10, 10);  // the appended edge comes last
  scratch->SetTargetNodeType(item);
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < 10; ++i) labels.push_back(i % 3);
  labels.push_back(-1);  // post-export target node: unlabeled
  scratch->SetLabels(std::move(labels), 3);
  scratch->Finalize();

  ASSERT_EQ(compact->num_nodes(), scratch->num_nodes());
  EXPECT_EQ(compact->edge_src(), scratch->edge_src());
  EXPECT_EQ(compact->edge_dst(), scratch->edge_dst());
  EXPECT_EQ(compact->edge_type_ids(), scratch->edge_type_ids());
  EXPECT_EQ(compact->degrees(), scratch->degrees());
  EXPECT_EQ(compact->global_labels(), scratch->global_labels());
  for (int64_t t = 0; t < compact->num_node_types(); ++t) {
    EXPECT_EQ(compact->node_type(t).offset, scratch->node_type(t).offset);
    EXPECT_EQ(compact->node_type(t).count, scratch->node_type(t).count);
    ExpectTensorsBitwiseEqual(compact->node_type(t).attributes,
                              scratch->node_type(t).attributes);
  }
}

TEST(MutableGraphTest, BallCoversExactlyTheKHopNeighbourhood) {
  HeteroGraphPtr base = RingGraph(10);
  MutableGraph overlay(base);
  // item_0 is global 0; tag_i is global 10 + i. item_0 - tag_0 and
  // item_0 - tag_9 (ring wrap), plus rel chord item_0 - item_3.
  std::vector<int64_t> ball0 = overlay.Ball({0}, 0);
  EXPECT_EQ(ball0, std::vector<int64_t>({0}));
  std::vector<int64_t> ball1 = overlay.Ball({0}, 1);
  EXPECT_EQ(ball1, std::vector<int64_t>({0, 3, 10, 19}));
  std::vector<int64_t> ball2 = overlay.Ball({0}, 2);
  EXPECT_EQ(ball2, std::vector<int64_t>({0, 1, 3, 9, 10, 12, 13, 19}));
}

TEST(MutableGraphTest, UnknownTypeNamesAreErrors) {
  MutableGraph overlay(RingGraph(6));
  EXPECT_FALSE(overlay.NodeTypeIdOf("nonesuch").ok());
  EXPECT_FALSE(overlay.EdgeTypeIdOf("nonesuch").ok());
  EXPECT_NE(overlay.NodeTypeIdOf("nonesuch").status().message().find(
                "unknown node type"),
            std::string::npos);
}

TEST(MutableGraphTest, RemoveMissingEdgeIsAnError) {
  MutableGraph overlay(RingGraph(6));
  EXPECT_FALSE(overlay.RemoveEdge(1, 0, 5).ok());  // no such rel edge
  // Reversed orientation matches for same-type edge types.
  EXPECT_TRUE(overlay.RemoveEdge(1, 3, 0).ok());   // rel 0-3, reversed
}

// --- incremental vs full recompute: the headline invariant ------------------

struct Harness {
  FrozenModel fz;
  std::unique_ptr<InferenceSession> session;
  std::unique_ptr<MutableGraph> replica;

  Harness(const std::string& model_name, const HeteroGraphPtr& graph,
          CompletionOpType (*op_fn)(int64_t)) {
    fz = MakeFrozen(model_name, graph, op_fn);
    session = std::make_unique<InferenceSession>(fz);
    replica = std::make_unique<MutableGraph>(graph);
  }

  void ApplyAndCheck(const Mutation& m) {
    StatusOr<MutationResult> result = session->Apply(m);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ApplyToReplica(*replica, m);
    ExpectTensorsBitwiseEqual(session->logits(),
                              ReferenceLogits(fz, *replica));
  }
};

/// The scripted delta sequence every architecture is pushed through:
/// cross edge, new attribute-less node (wired in), new attributed node
/// (wired in), removal of the cross edge, a duplicate (parallel) edge, and
/// a reversed-orientation removal of one of the parallel pair.
void RunScriptedSequence(Harness& h) {
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kAddEdge, "it", 3, 10));
  Mutation new_tag = AddNodeMutation("tag");
  {
    StatusOr<MutationResult> r = h.session->Apply(new_tag);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().node, 40);
    ApplyToReplica(*h.replica, new_tag);
    ExpectTensorsBitwiseEqual(h.session->logits(),
                              ReferenceLogits(h.fz, *h.replica));
  }
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kAddEdge, "it", 5, 40));
  h.ApplyAndCheck(AddNodeMutation("item", {0.5f, -0.25f, 0.125f, 2.f}));
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kAddEdge, "it", 40, 12));
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kRemoveEdge, "it", 3, 10));
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kAddEdge, "rel", 0, 3));
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kRemoveEdge, "rel", 3, 0));
}

class MutationZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MutationZooTest, IncrementalMatchesFullRecomputeAt1And4Threads) {
  HeteroGraphPtr graph = RingGraph();
  std::vector<uint64_t> digests;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    Harness h(GetParam(), graph, MixedOps);
    RunScriptedSequence(h);
    if (HasFatalFailure()) break;
    digests.push_back(h.session->LogitsDigest());
    // Row-decomposable architectures must have exercised the partial path
    // on this ring (balls are local); globally-coupled ones must not.
    bool partial = GetParam() != "HAN" && GetParam() != "MAGNN" &&
                   GetParam() != "HetGNN";
    if (partial) {
      EXPECT_GT(h.session->partial_recomputes(), 0) << GetParam();
      EXPECT_GT(h.session->partial_forward_rows(), 0) << GetParam();
    } else {
      EXPECT_EQ(h.session->partial_recomputes(), 0) << GetParam();
      EXPECT_GT(h.session->full_recomputes(), 0) << GetParam();
    }
  }
  SetNumThreads(0);
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0], digests[1]) << "thread-count variance";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, MutationZooTest,
    ::testing::Values("GCN", "GAT", "SimpleHGN", "HAN", "MAGNN", "HGT",
                      "HetSANN", "GTN", "HetGNN", "GATNE"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

class CompiledZooTest : public ::testing::TestWithParam<std::string> {};

// For every architecture the factory can export, a freshly built session's
// logits table (the tape-free serving forward) is bitwise identical to the
// taped evaluation forward, at one thread and at four. The name dates from
// the compiled serving plan this used to hold; the invariant outlived it.
// Nothing else checks the build-time table of the globally coupled models
// (every delta refreezes them in full).
TEST_P(CompiledZooTest, CompiledMatchesInterpretedBitwiseAt1And4Threads) {
  HeteroGraphPtr graph = RingGraph();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    FrozenModel fz = MakeFrozen(GetParam(), graph, MixedOps);
    InferenceSession session(fz);
    ExpectTensorsBitwiseEqual(session.logits(), TapedLogits(fz));
    if (HasFatalFailure()) break;
  }
  SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CompiledZooTest,
    ::testing::Values("GCN", "GAT", "SimpleHGN", "HAN", "MAGNN", "HGT",
                      "HetSANN", "GTN", "HetGNN", "GATNE"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(MutationEquivalenceTest, PpnpCompletionUsesItsPropagationRadius) {
  Harness h("SimpleHGN", RingGraph(), AllPpnp);
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kAddEdge, "it", 7, 20));
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kRemoveEdge, "it", 7, 20));
}

TEST(MutationEquivalenceTest, RemoveEdgeLeavingAnIsolatedNode) {
  // tag_5's only edges are item_5 - tag_5 - item_6; removing both isolates
  // it. Its H0 row must equal the from-scratch value for an isolated
  // attribute-less node (aggregation over an empty neighbourhood).
  Harness h("GCN", RingGraph(), MixedOps);
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kRemoveEdge, "it", 5, 5));
  h.ApplyAndCheck(EdgeMutation(Mutation::Kind::kRemoveEdge, "it", 6, 5));
}

TEST(MutationEquivalenceTest, NewTargetNodeIsScoredInductively) {
  Harness h("SimpleHGN", RingGraph(), MixedOps);
  Mutation add = AddNodeMutation("item", {1.f, 0.f, -1.f, 0.5f});
  StatusOr<MutationResult> r = h.session->Apply(add);
  ASSERT_TRUE(r.ok());
  int64_t new_local = r.value().node;
  EXPECT_EQ(new_local, 40);
  ApplyToReplica(*h.replica, add);
  Mutation wire = EdgeMutation(Mutation::Kind::kAddEdge, "it", new_local, 9);
  ASSERT_TRUE(h.session->Apply(wire).ok());
  ApplyToReplica(*h.replica, wire);

  Tensor reference = ReferenceLogits(h.fz, *h.replica);
  StatusOr<InferenceSession::Prediction> p = h.session->Predict(new_local);
  ASSERT_TRUE(p.ok()) << p.status().message();
  // The prediction must be the argmax of the reference logits row of the
  // new node (global id = end of the item block = local 40).
  const float* row =
      reference.data() + h.replica->GlobalId(0, new_local) * reference.cols();
  int64_t best = 0;
  for (int64_t c = 1; c < reference.cols(); ++c) {
    if (row[c] > row[best]) best = c;
  }
  EXPECT_EQ(p.value().label, best);
  EXPECT_EQ(p.value().score, row[best]);
  // Old handles are stable: item_0 still answers, and out-of-range is a
  // Status error, not a crash.
  EXPECT_TRUE(h.session->Predict(0).ok());
  EXPECT_FALSE(h.session->Predict(41).ok());
}

// --- error taxonomy ----------------------------------------------------------

TEST(MutationErrorTest, FingerprintMismatchIsADistinctError) {
  Harness h("GCN", RingGraph(8), MixedOps);
  Mutation m = EdgeMutation(Mutation::Kind::kAddEdge, "it", 0, 0);
  m.expect_fingerprint = h.fz.fingerprint ^ 0xdeadbeefull;
  StatusOr<MutationResult> r = h.session->Apply(m);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fingerprint mismatch"),
            std::string::npos);
  // The matching fingerprint passes.
  m.expect_fingerprint = h.fz.fingerprint;
  EXPECT_TRUE(h.session->Apply(m).ok());
}

TEST(MutationErrorTest, MalformedTypesAndEndpointsAreDistinctErrors) {
  Harness h("GCN", RingGraph(8), MixedOps);
  const Tensor before = h.session->logits();
  StatusOr<MutationResult> bad_node =
      h.session->Apply(AddNodeMutation("venue"));
  ASSERT_FALSE(bad_node.ok());
  EXPECT_NE(bad_node.status().message().find("unknown node type"),
            std::string::npos);
  StatusOr<MutationResult> bad_edge = h.session->Apply(
      EdgeMutation(Mutation::Kind::kAddEdge, "cites", 0, 1));
  ASSERT_FALSE(bad_edge.ok());
  EXPECT_NE(bad_edge.status().message().find("unknown edge type"),
            std::string::npos);
  StatusOr<MutationResult> bad_endpoint = h.session->Apply(
      EdgeMutation(Mutation::Kind::kAddEdge, "it", 0, 99));
  ASSERT_FALSE(bad_endpoint.ok());
  EXPECT_NE(bad_endpoint.status().message().find("out of range"),
            std::string::npos);
  StatusOr<MutationResult> bad_attrs =
      h.session->Apply(AddNodeMutation("item", {1.f}));  // raw_dim is 4
  EXPECT_FALSE(bad_attrs.ok());
  StatusOr<MutationResult> tag_attrs =
      h.session->Apply(AddNodeMutation("tag", {1.f}));  // attribute-less
  EXPECT_FALSE(tag_attrs.ok());
  // None of the rejected mutations applied or published anything.
  EXPECT_EQ(h.session->mutations_applied(), 0);
  ExpectTensorsBitwiseEqual(h.session->logits(), before);
}

// --- randomized fuzz ----------------------------------------------------------

/// One fuzz episode: a random delta stream applied incrementally, digest
/// compared against the from-scratch reference after every delta, at 1 and
/// 4 threads. The seed is part of every assertion message so a failure is
/// replayable.
void FuzzEpisode(uint64_t seed, const std::string& model_name,
                 int64_t num_deltas) {
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed) + " model=" + model_name);
  HeteroGraphPtr graph = RingGraph();
  std::vector<std::vector<uint64_t>> digests;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    digests.emplace_back();
    Harness h(model_name, graph, MixedOps);
    Rng rng(seed);
    for (int64_t step = 0; step < num_deltas; ++step) {
      Mutation m;
      int64_t kind = rng.UniformInt(0, 5);
      int64_t items = h.replica->node_count(0);
      int64_t tags = h.replica->node_count(1);
      if (kind == 0) {
        m = AddNodeMutation("tag");
      } else if (kind == 1) {
        m = AddNodeMutation("item",
                            {static_cast<float>(rng.Normal()),
                             static_cast<float>(rng.Normal()),
                             static_cast<float>(rng.Normal()),
                             static_cast<float>(rng.Normal())});
      } else if (kind <= 3) {
        m = EdgeMutation(Mutation::Kind::kAddEdge, "it",
                         rng.UniformInt(0, items - 1),
                         rng.UniformInt(0, tags - 1));
      } else if (kind == 4) {
        m = EdgeMutation(Mutation::Kind::kAddEdge, "rel",
                         rng.UniformInt(0, items - 1),
                         rng.UniformInt(0, items - 1));
      } else {
        // Remove a live ring edge; tolerate picking an already-removed one.
        m = EdgeMutation(Mutation::Kind::kRemoveEdge, "it",
                         rng.UniformInt(0, 39), rng.UniformInt(0, 39));
      }
      StatusOr<MutationResult> applied = h.session->Apply(m);
      if (!applied.ok()) continue;  // e.g. removal of a missing edge
      ApplyToReplica(*h.replica, m);
      uint64_t incremental = h.session->LogitsDigest();
      uint64_t reference =
          DigestTensor(kFnvOffsetBasis, ReferenceLogits(h.fz, *h.replica));
      ASSERT_EQ(incremental, reference)
          << "step " << step << " of seed " << seed << " at " << threads
          << " threads";
      digests.back().push_back(incremental);
    }
  }
  SetNumThreads(0);
  ASSERT_EQ(digests[0], digests[1]) << "thread-count variance, seed " << seed;
}

TEST(MutationFuzzTest, RandomDeltaStreamsMatchFullRecompute) {
  // Nightly CI cranks the episode count via the environment; the tier-1
  // default keeps the test fast.
  int64_t episodes = 2;
  if (const char* env = std::getenv("AUTOAC_MUTATION_FUZZ_EPISODES")) {
    episodes = std::max<int64_t>(1, std::atoll(env));
  }
  for (int64_t e = 0; e < episodes; ++e) {
    FuzzEpisode(1000 + e * 7919, e % 2 == 0 ? "SimpleHGN" : "GCN",
                /*num_deltas=*/6);
    if (HasFatalFailure()) return;
  }
}

// --- refreeze self-consistency ------------------------------------------------

TEST(RefreezeTest, UnmutatedGraphRefreezesToTheIdenticalArtifact) {
  HeteroGraphPtr graph = RingGraph(12);
  FrozenModel fz = MakeFrozen("SimpleHGN", graph, MixedOps);
  StatusOr<FrozenModel> again = RefreezeWithGraph(fz, graph, fz.op_of);
  ASSERT_TRUE(again.ok()) << again.status().message();
  ExpectTensorsBitwiseEqual(again.value().h0, fz.h0);
  EXPECT_EQ(again.value().fingerprint, fz.fingerprint);
}

// --- batch prediction over the live overlay (DESIGN.md §10) ------------------

/// Every PredictBatch answer must equal the per-row Predict answer bit for
/// bit, before and after a delta is published.
void ExpectBatchMatchesPredict(InferenceSession& session,
                               const std::vector<int64_t>& nodes) {
  StatusOr<std::vector<InferenceSession::Prediction>> batch =
      session.PredictBatch(nodes);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  ASSERT_EQ(batch.value().size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    StatusOr<InferenceSession::Prediction> single =
        session.Predict(nodes[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch.value()[i].node, nodes[i]);
    EXPECT_EQ(batch.value()[i].label, single.value().label);
    EXPECT_EQ(batch.value()[i].score, single.value().score) << "row " << i;
  }
}

TEST(MutationBatchTest, PredictBatchMatchesPredictAcrossMutations) {
  Harness h("SimpleHGN", RingGraph(), MixedOps);
  std::vector<int64_t> probes = {0, 7, 3, 39, 12};
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    ExpectBatchMatchesPredict(*h.session, probes);
    if (HasFatalFailure()) break;
    // An added node grows the logits table, and the new node's row is
    // immediately addressable.
    ASSERT_TRUE(
        h.session->Apply(EdgeMutation(Mutation::Kind::kAddEdge, "it", 3, 10))
            .ok());
    StatusOr<MutationResult> added =
        h.session->Apply(AddNodeMutation("item", {0.5f, -0.25f, 0.125f, 2.f}));
    ASSERT_TRUE(added.ok());
    probes.push_back(added.value().node);
    ExpectBatchMatchesPredict(*h.session, probes);
    if (HasFatalFailure()) break;
  }
  SetNumThreads(0);
}

TEST(MutationBatchTest, PredictBatchFailsWholeRequestOnBadId) {
  Harness h("GCN", RingGraph(8), MixedOps);
  EXPECT_FALSE(h.session->PredictBatch({0, h.session->num_targets()}).ok());
  EXPECT_FALSE(h.session->PredictBatch({-1}).ok());
  EXPECT_TRUE(h.session->PredictBatch({0, 1}).ok());
}

}  // namespace
}  // namespace autoac

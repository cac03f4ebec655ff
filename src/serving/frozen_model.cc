#include "serving/frozen_model.h"

#include <sstream>
#include <utility>

#include "autoac/checkpoint.h"
#include "completion/completion_module.h"
#include "data/serialization.h"
#include "models/factory.h"
#include "tensor/ops.h"

namespace autoac {
namespace {

constexpr char kFrozenMagic[4] = {'A', 'A', 'C', 'M'};

/// Upper bound on stored model parameter tensors; real models have a few
/// dozen. Keeps corrupted count fields from driving huge allocations.
constexpr int64_t kMaxModelParams = int64_t{1} << 16;

/// Marks a quantized artifact. Written where the legacy layout has the graph
/// payload's node-type count, which is validated strictly positive — so a
/// negative value here can never be mistaken for a legacy artifact (and vice
/// versa).
constexpr int64_t kQuantizedSentinel = -0x51AACF01;

/// Attribute-tensor reader that decodes tagged EncodedTensor payloads,
/// plugged into ReadGraphPayload for quantized artifacts.
bool ReadEncodedAttr(std::istream& in, Tensor* t) {
  EncodedTensor enc;
  if (!io::ReadEncodedTensor(in, &enc)) return false;
  *t = DecodeTensor(enc);
  return true;
}

uint64_t MixI64(uint64_t h, int64_t v) { return Fnv1a(&v, sizeof(v), h); }
uint64_t MixU64(uint64_t h, uint64_t v) { return Fnv1a(&v, sizeof(v), h); }
uint64_t MixF32(uint64_t h, float v) { return Fnv1a(&v, sizeof(v), h); }
uint64_t MixString(uint64_t h, const std::string& s) {
  h = MixI64(h, static_cast<int64_t>(s.size()));
  return Fnv1a(s.data(), s.size(), h);
}
uint64_t MixI64Vector(uint64_t h, const std::vector<int64_t>& v) {
  h = MixI64(h, static_cast<int64_t>(v.size()));
  return Fnv1a(v.data(), v.size() * sizeof(int64_t), h);
}

}  // namespace

uint64_t ComputeFrozenFingerprint(const FrozenModel& model) {
  uint64_t h = kFnvOffsetBasis;
  h = MixString(h, model.model_name);
  h = MixI64(h, model.hidden_dim);
  h = MixI64(h, model.num_layers);
  h = MixI64(h, model.num_heads);
  h = MixF32(h, model.dropout);
  h = MixF32(h, model.negative_slope);
  h = MixU64(h, model.seed);
  h = MixI64(h, model.num_classes);
  // Graph identity: structure, attributes, and task annotations all change
  // the meaning of the weights, so all of them feed the fingerprint.
  const HeteroGraph& g = *model.graph;
  h = MixI64(h, g.num_nodes());
  h = MixI64(h, g.num_node_types());
  h = MixI64(h, g.num_edge_types());
  h = MixI64(h, g.target_node_type());
  h = MixI64(h, g.num_classes());
  for (int64_t t = 0; t < g.num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& info = g.node_type(t);
    h = MixString(h, info.name);
    h = MixI64(h, info.count);
    h = DigestTensor(h, info.attributes);
  }
  h = MixI64Vector(h, g.edge_src());
  h = MixI64Vector(h, g.edge_dst());
  h = MixI64Vector(h, g.edge_type_ids());
  h = MixI64Vector(h, g.global_labels());
  h = MixI64(h, static_cast<int64_t>(model.op_of.size()));
  h = Fnv1a(model.op_of.data(),
            model.op_of.size() * sizeof(CompletionOpType), h);
  h = DigestTensor(h, model.h0);
  h = MixI64(h, static_cast<int64_t>(model.model_params.size()));
  for (const Tensor& p : model.model_params) h = DigestTensor(h, p);
  h = DigestTensor(h, model.classifier_weight);
  h = DigestTensor(h, model.classifier_bias);
  // The v2 completion section feeds the fingerprint only when present, so
  // v1 artifacts keep their original fingerprints bit for bit.
  if (model.has_completion) {
    h = MixF32(h, model.ppnp_restart);
    h = MixI64(h, model.ppnp_steps);
    h = MixI64(h, static_cast<int64_t>(model.completion_params.size()));
    for (const Tensor& p : model.completion_params) h = DigestTensor(h, p);
  }
  return h;
}

StatusOr<FrozenModel> FreezeTrainedRun(const TaskData& data,
                                       const ModelContext& ctx,
                                       const ExperimentConfig& config,
                                       const RunResult& run) {
  if (data.task != TaskKind::kNodeClassification) {
    return Status::Error(
        "frozen model export supports node classification only");
  }
  if (run.final_params.empty()) {
    return Status::Error(
        "run carries no final parameters; rerun with capture_final_params "
        "(the method may not train through TrainFixedCompletion)");
  }
  if (run.searched_ops.empty()) {
    return Status::Error("run carries no completion-op assignment");
  }

  // Mirror TrainFixedCompletion's construction order exactly: the Rng
  // stream determines nothing we keep (every value is overwritten below)
  // but the construction sequence determines the parameter shapes and
  // their order in the flattened list.
  Rng rng(config.seed);
  CompletionConfig completion_config = config.completion;
  completion_config.hidden_dim = config.hidden_dim;
  CompletionModule completion(data.graph, completion_config, rng);
  if (static_cast<int64_t>(run.searched_ops.size()) !=
      completion.num_missing()) {
    return Status::Error("assignment length does not match the graph's "
                         "missing-node count");
  }

  ModelConfig model_config;
  model_config.in_dim = config.hidden_dim;
  model_config.hidden_dim = config.hidden_dim;
  model_config.out_dim = config.hidden_dim;
  model_config.num_layers = config.num_layers;
  model_config.num_heads = config.num_heads;
  model_config.dropout = config.dropout;
  model_config.negative_slope = config.negative_slope;
  ModelPtr model = MakeModel(config.model_name, model_config, ctx, rng,
                             /*l2_normalize_output=*/false);
  TaskHead head(data, model_config.out_dim, config.mrr_negatives, rng);

  std::vector<VarPtr> params = completion.Parameters();
  for (const VarPtr& p : model->Parameters()) params.push_back(p);
  std::vector<VarPtr> head_params = head.Parameters();
  for (const VarPtr& p : head_params) params.push_back(p);
  if (params.size() != run.final_params.size()) {
    return Status::Error(
        "parameter count mismatch between the run and the rebuilt model "
        "(config drift?)");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->value.SameShape(run.final_params[i])) {
      return Status::Error("parameter shape mismatch at index " +
                           std::to_string(i) + " (config drift?)");
    }
    params[i]->value = run.final_params[i];
  }
  if (head_params.size() != 2 || head_params[0]->value.dim() != 2 ||
      head_params[1]->value.dim() != 1) {
    return Status::Error("unexpected task-head parameter layout");
  }

  FrozenModel frozen;
  frozen.model_name = config.model_name;
  frozen.hidden_dim = config.hidden_dim;
  frozen.num_layers = config.num_layers;
  frozen.num_heads = config.num_heads;
  frozen.dropout = config.dropout;
  frozen.negative_slope = config.negative_slope;
  frozen.seed = config.seed;
  frozen.num_classes = data.graph->num_classes();
  frozen.graph = data.graph;
  frozen.op_of = run.searched_ops;
  {
    // Materialize the completed attributes once, tape-free: serving never
    // re-runs the completion aggregations.
    NoGradGuard no_grad;
    frozen.h0 = completion.CompleteDiscrete(run.searched_ops)->value;
  }
  for (const VarPtr& p : model->Parameters()) {
    frozen.model_params.push_back(p->value);
  }
  frozen.classifier_weight = head_params[0]->value;
  frozen.classifier_bias = head_params[1]->value;
  // v2 completion section: the trained completion parameters, so a serving
  // mutation can re-run CompleteDiscrete for dirty rows (DESIGN.md §12).
  frozen.has_completion = true;
  for (const VarPtr& p : completion.Parameters()) {
    frozen.completion_params.push_back(p->value);
  }
  frozen.ppnp_restart = completion_config.ppnp_restart;
  frozen.ppnp_steps = completion_config.ppnp_steps;
  frozen.fingerprint = ComputeFrozenFingerprint(frozen);
  return frozen;
}

Status SaveFrozenModel(const FrozenModel& model, const std::string& path) {
  return SaveFrozenModel(model, path, FrozenSaveOptions{});
}

Status SaveFrozenModel(const FrozenModel& model, const std::string& path,
                       const FrozenSaveOptions& options) {
  if (model.graph == nullptr) {
    return Status::Error("frozen model has no graph");
  }
  const TensorEncoding enc = options.encoding;

  std::ostringstream payload;
  io::WriteString(payload, model.model_name);
  io::WriteI64(payload, model.hidden_dim);
  io::WriteI64(payload, model.num_layers);
  io::WriteI64(payload, model.num_heads);
  io::WriteF64(payload, model.dropout);
  io::WriteF64(payload, model.negative_slope);
  io::WriteU64(payload, model.seed);
  io::WriteI64(payload, model.num_classes);

  std::vector<int64_t> ops;
  ops.reserve(model.op_of.size());
  for (CompletionOpType op : model.op_of) {
    ops.push_back(static_cast<int64_t>(op));
  }

  if (enc == TensorEncoding::kF32) {
    // Legacy layout, byte for byte; the stored fingerprint is taken verbatim
    // so tests can exercise the mismatch-refusal path with a tampered value.
    io::WriteU64(payload, model.fingerprint);
    WriteGraphPayload(payload, *model.graph);
    io::WriteI64Vector(payload, ops);
    io::WriteTensor(payload, model.h0);
    io::WriteI64(payload, static_cast<int64_t>(model.model_params.size()));
    for (const Tensor& p : model.model_params) io::WriteTensor(payload, p);
    io::WriteTensor(payload, model.classifier_weight);
    io::WriteTensor(payload, model.classifier_bias);
    if (model.has_completion) {
      // v2 completion section, appended after the v1 payload; the loader
      // detects it by its presence before EOF.
      io::WriteF64(payload, model.ppnp_restart);
      io::WriteI64(payload, model.ppnp_steps);
      io::WriteI64(payload,
                   static_cast<int64_t>(model.completion_params.size()));
      for (const Tensor& p : model.completion_params) {
        io::WriteTensor(payload, p);
      }
    }
    if (options.stored_fingerprint != nullptr) {
      *options.stored_fingerprint = model.fingerprint;
    }
    return io::WriteFileAtomic(path, kFrozenMagic, payload.str());
  }

  // Quantized layout. Serialize the graph once with encoded attribute
  // payloads, then parse those bytes straight back through the decoding
  // reader: the parsed graph is exactly the graph a loader will reconstruct,
  // which is what the stored fingerprint must cover.
  std::ostringstream graph_bytes;
  WriteGraphPayload(graph_bytes, *model.graph,
                    [enc](std::ostream& out, const Tensor& t) {
                      io::WriteEncodedTensor(out, EncodeTensor(t, enc));
                    });
  std::istringstream graph_in(graph_bytes.str());
  StatusOr<HeteroGraphPtr> decoded_graph =
      ReadGraphPayload(graph_in, ReadEncodedAttr);
  if (!decoded_graph.ok()) return decoded_graph.status();

  EncodedTensor h0 = EncodeTensor(model.h0, enc);
  std::vector<EncodedTensor> params;
  params.reserve(model.model_params.size());
  for (const Tensor& p : model.model_params) {
    params.push_back(EncodeTensor(p, enc));
  }
  EncodedTensor cls_weight = EncodeTensor(model.classifier_weight, enc);
  EncodedTensor cls_bias = EncodeTensor(model.classifier_bias, enc);
  std::vector<EncodedTensor> completion;
  completion.reserve(model.completion_params.size());
  for (const Tensor& p : model.completion_params) {
    completion.push_back(EncodeTensor(p, enc));
  }

  // The stored fingerprint covers the *decoded* content: compute it over a
  // twin holding exactly the tensors a loader will decode, so the loader's
  // recompute-and-refuse path needs no quantization awareness at all.
  FrozenModel decoded;
  decoded.model_name = model.model_name;
  decoded.hidden_dim = model.hidden_dim;
  decoded.num_layers = model.num_layers;
  decoded.num_heads = model.num_heads;
  decoded.dropout = model.dropout;
  decoded.negative_slope = model.negative_slope;
  decoded.seed = model.seed;
  decoded.num_classes = model.num_classes;
  decoded.graph = decoded_graph.TakeValue();
  decoded.op_of = model.op_of;
  decoded.h0 = DecodeTensor(h0);
  for (const EncodedTensor& e : params) {
    decoded.model_params.push_back(DecodeTensor(e));
  }
  decoded.classifier_weight = DecodeTensor(cls_weight);
  decoded.classifier_bias = DecodeTensor(cls_bias);
  decoded.has_completion = model.has_completion;
  decoded.ppnp_restart = model.ppnp_restart;
  decoded.ppnp_steps = model.ppnp_steps;
  for (const EncodedTensor& e : completion) {
    decoded.completion_params.push_back(DecodeTensor(e));
  }
  const uint64_t stored_fingerprint = ComputeFrozenFingerprint(decoded);
  if (options.stored_fingerprint != nullptr) {
    *options.stored_fingerprint = stored_fingerprint;
  }

  io::WriteU64(payload, stored_fingerprint);
  io::WriteI64(payload, kQuantizedSentinel);
  io::WriteI64(payload, static_cast<int64_t>(enc));
  payload << graph_bytes.str();
  io::WriteI64Vector(payload, ops);
  io::WriteEncodedTensor(payload, h0);
  io::WriteI64(payload, static_cast<int64_t>(params.size()));
  for (const EncodedTensor& e : params) io::WriteEncodedTensor(payload, e);
  io::WriteEncodedTensor(payload, cls_weight);
  io::WriteEncodedTensor(payload, cls_bias);
  if (model.has_completion) {
    io::WriteF64(payload, model.ppnp_restart);
    io::WriteI64(payload, model.ppnp_steps);
    io::WriteI64(payload, static_cast<int64_t>(completion.size()));
    for (const EncodedTensor& e : completion) {
      io::WriteEncodedTensor(payload, e);
    }
  }
  return io::WriteFileAtomic(path, kFrozenMagic, payload.str());
}

StatusOr<uint64_t> PeekFrozenFingerprint(const std::string& path) {
  StatusOr<std::string> payload = io::ReadFileChecked(path, kFrozenMagic);
  if (!payload.ok()) return payload.status();
  std::istringstream in(payload.value());
  std::string model_name;
  int64_t i64 = 0;
  double f64 = 0.0;
  uint64_t seed = 0, stored_fingerprint = 0;
  if (!io::ReadString(in, &model_name) || !io::ReadI64(in, &i64) ||
      !io::ReadI64(in, &i64) || !io::ReadI64(in, &i64) ||
      !io::ReadF64(in, &f64) || !io::ReadF64(in, &f64) ||
      !io::ReadU64(in, &seed) || !io::ReadI64(in, &i64) ||
      !io::ReadU64(in, &stored_fingerprint)) {
    return Status::Error("frozen model payload is malformed: " + path);
  }
  return stored_fingerprint;
}

StatusOr<FrozenModel> LoadFrozenModel(const std::string& path) {
  StatusOr<std::string> payload = io::ReadFileChecked(path, kFrozenMagic);
  if (!payload.ok()) return payload.status();
  std::istringstream in(payload.value());
  const Status malformed =
      Status::Error("frozen model payload is malformed: " + path);

  FrozenModel model;
  double dropout = 0.0, negative_slope = 0.0;
  uint64_t stored_fingerprint = 0;
  if (!io::ReadString(in, &model.model_name) ||
      !io::ReadI64(in, &model.hidden_dim) ||
      !io::ReadI64(in, &model.num_layers) ||
      !io::ReadI64(in, &model.num_heads) || !io::ReadF64(in, &dropout) ||
      !io::ReadF64(in, &negative_slope) || !io::ReadU64(in, &model.seed) ||
      !io::ReadI64(in, &model.num_classes) ||
      !io::ReadU64(in, &stored_fingerprint)) {
    return malformed;
  }
  model.dropout = static_cast<float>(dropout);
  model.negative_slope = static_cast<float>(negative_slope);
  if (model.hidden_dim <= 0 || model.num_layers <= 0 ||
      model.num_heads <= 0 || model.num_classes <= 0) {
    return malformed;
  }

  // A quantized artifact announces itself with a negative sentinel where the
  // legacy layout continues with the graph payload's strictly positive
  // node-type count.
  bool quantized = false;
  {
    std::streampos pos = in.tellg();
    int64_t sentinel = 0;
    if (io::ReadI64(in, &sentinel) && sentinel == kQuantizedSentinel) {
      quantized = true;
    } else {
      in.clear();
      in.seekg(pos);
    }
  }
  if (quantized) {
    int64_t tag = 0;
    if (!io::ReadI64(in, &tag) ||
        (tag != static_cast<int64_t>(TensorEncoding::kF16) &&
         tag != static_cast<int64_t>(TensorEncoding::kI8))) {
      return malformed;
    }
    model.encoding = static_cast<TensorEncoding>(tag);
  }
  // Every tensor read below decodes a tagged EncodedTensor payload in a
  // quantized artifact and falls back to the raw layout otherwise.
  auto read_tensor = [&in, quantized](Tensor* t) {
    return quantized ? ReadEncodedAttr(in, t) : io::ReadTensor(in, t);
  };

  StatusOr<HeteroGraphPtr> graph =
      quantized ? ReadGraphPayload(in, ReadEncodedAttr) : ReadGraphPayload(in);
  if (!graph.ok()) return graph.status();
  model.graph = graph.TakeValue();

  std::vector<int64_t> ops;
  if (!io::ReadI64Vector(in, &ops)) return malformed;
  if (static_cast<int64_t>(ops.size()) > model.graph->num_nodes()) {
    return malformed;
  }
  model.op_of.reserve(ops.size());
  for (int64_t raw : ops) {
    if (raw < 0 || raw >= kNumCompletionOps) return malformed;
    model.op_of.push_back(static_cast<CompletionOpType>(raw));
  }

  if (!read_tensor(&model.h0)) return malformed;
  int64_t num_params = 0;
  if (!io::ReadI64(in, &num_params) || num_params < 0 ||
      num_params > kMaxModelParams) {
    return malformed;
  }
  model.model_params.resize(num_params);
  for (int64_t i = 0; i < num_params; ++i) {
    if (!read_tensor(&model.model_params[i])) return malformed;
  }
  if (!read_tensor(&model.classifier_weight) ||
      !read_tensor(&model.classifier_bias)) {
    return malformed;
  }
  if (in.peek() != std::istringstream::traits_type::eof()) {
    // v2 completion section (bytes remain after the v1 payload).
    double restart = 0.0;
    int64_t num_completion = 0;
    if (!io::ReadF64(in, &restart) || !io::ReadI64(in, &model.ppnp_steps) ||
        !io::ReadI64(in, &num_completion) || num_completion < 0 ||
        num_completion > kMaxModelParams || model.ppnp_steps < 0) {
      return malformed;
    }
    model.ppnp_restart = static_cast<float>(restart);
    model.completion_params.resize(num_completion);
    for (int64_t i = 0; i < num_completion; ++i) {
      if (!read_tensor(&model.completion_params[i])) return malformed;
    }
    model.has_completion = true;
  }
  if (in.peek() != std::istringstream::traits_type::eof()) {
    return Status::Error("frozen model has trailing bytes: " + path);
  }

  // Shape validation before any consumer touches the tensors.
  if (model.h0.dim() != 2 || model.h0.rows() != model.graph->num_nodes() ||
      model.h0.cols() != model.hidden_dim) {
    return malformed;
  }
  if (model.classifier_weight.dim() != 2 ||
      model.classifier_weight.cols() != model.num_classes ||
      model.classifier_bias.dim() != 1 ||
      model.classifier_bias.numel() != model.num_classes) {
    return malformed;
  }
  if (model.num_classes != model.graph->num_classes()) return malformed;

  uint64_t recomputed = ComputeFrozenFingerprint(model);
  if (recomputed != stored_fingerprint) {
    return Status::Error(
        "frozen model fingerprint mismatch (stored vs recomputed content): "
        "the artifact was produced by an incompatible exporter or edited "
        "after export: " + path);
  }
  model.fingerprint = stored_fingerprint;
  return model;
}

namespace {

bool TypeAttributed(const HeteroGraph& g, int64_t t) {
  return g.node_type(t).attributes.numel() > 0;
}

// Copies `src` into the parameter value, refusing shape drift.
Status CopySame(const VarPtr& param, const Tensor& src,
                const std::string& what) {
  if (!param->value.SameShape(src)) {
    return Status::Error("frozen " + what +
                         " has the wrong shape (artifact drift?)");
  }
  param->value = src;
  return Status::Ok();
}

// Row-gathers `src` (frozen rows) into the parameter through `row_of`
// (destination row i takes frozen row row_of[i]; -1 keeps the zero row).
Status GatherRowsInto(const VarPtr& param, const Tensor& src,
                      const std::vector<int64_t>& row_of,
                      const std::string& what) {
  Tensor& dst = param->value;
  if (dst.dim() != 2 || src.dim() != 2 || dst.cols() != src.cols() ||
      dst.rows() != static_cast<int64_t>(row_of.size())) {
    return Status::Error("frozen " + what +
                         " has the wrong shape (artifact drift?)");
  }
  dst = Tensor::Zeros({dst.rows(), dst.cols()});
  for (int64_t i = 0; i < dst.rows(); ++i) {
    int64_t r = row_of[i];
    if (r < 0) continue;  // new node: zero row
    if (r >= src.rows()) {
      return Status::Error("frozen " + what + " row index out of range");
    }
    std::copy(src.data() + r * src.cols(), src.data() + (r + 1) * src.cols(),
              dst.data() + i * dst.cols());
  }
  return Status::Ok();
}

}  // namespace

std::vector<CompletionOpType> ExtendOpAssignment(const FrozenModel& frozen,
                                                 const HeteroGraph& graph) {
  const HeteroGraph& old_g = *frozen.graph;
  AUTOAC_CHECK_EQ(graph.num_node_types(), old_g.num_node_types());
  std::vector<CompletionOpType> out;
  size_t old_pos = 0;  // cursor into frozen.op_of (missing-list order)
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    if (TypeAttributed(old_g, t)) continue;
    int64_t old_count = old_g.node_type(t).count;
    for (int64_t l = 0; l < graph.node_type(t).count; ++l) {
      out.push_back(l < old_count
                        ? frozen.op_of[old_pos + static_cast<size_t>(l)]
                        : CompletionOpType::kMean);
    }
    old_pos += static_cast<size_t>(old_count);
  }
  return out;
}

Status BindFrozenParams(
    const FrozenModel& frozen, const HeteroGraph& graph,
    const std::vector<std::vector<int64_t>>& frozen_local_of,
    const std::vector<VarPtr>& completion_params,
    const std::vector<VarPtr>& model_params) {
  if (!frozen.has_completion) {
    return Status::Error(
        "frozen model predates the completion section (v1 artifact); "
        "re-export to enable mutations");
  }
  const HeteroGraph& old_g = *frozen.graph;
  if (graph.num_node_types() != old_g.num_node_types()) {
    return Status::Error("graph node-type count differs from the artifact");
  }
  if (static_cast<int64_t>(frozen_local_of.size()) !=
      graph.num_node_types()) {
    return Status::Error("node map does not cover every node type");
  }

  // Whether (type, local) maps identically onto the frozen graph — true for
  // an unmutated graph, and the licence to copy per-node parameters whole.
  bool identity = true;
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    if (static_cast<int64_t>(frozen_local_of[t].size()) !=
        graph.node_type(t).count) {
      return Status::Error("node map does not cover every node");
    }
    if (graph.node_type(t).count != old_g.node_type(t).count) {
      identity = false;
    }
    for (size_t l = 0; identity && l < frozen_local_of[t].size(); ++l) {
      if (frozen_local_of[t][l] != static_cast<int64_t>(l)) identity = false;
    }
  }

  // --- completion parameters ------------------------------------------------
  // Flat CompletionModule::Parameters() order: projections of attributed
  // types (type order), mean/gcn/ppnp transforms, one-hot tables of missing
  // types (type order). Recover the frozen structure from the frozen graph,
  // the rebuilt structure from `graph`, and bind by role + node type. The
  // two structures can differ: a subgraph that cut every node of an
  // attributed type away classifies that (now empty) type as missing.
  std::vector<int64_t> old_proj(old_g.num_node_types(), -1);
  std::vector<int64_t> old_onehot(old_g.num_node_types(), -1);
  int64_t idx = 0;
  for (int64_t t = 0; t < old_g.num_node_types(); ++t) {
    if (TypeAttributed(old_g, t)) old_proj[t] = idx++;
  }
  int64_t old_mean = idx++, old_gcn = idx++, old_ppnp = idx++;
  for (int64_t t = 0; t < old_g.num_node_types(); ++t) {
    if (!TypeAttributed(old_g, t)) old_onehot[t] = idx++;
  }
  if (idx != static_cast<int64_t>(frozen.completion_params.size())) {
    return Status::Error(
        "completion parameter count does not match the artifact's graph");
  }

  size_t ni = 0;
  auto next = [&]() -> const VarPtr& {
    AUTOAC_CHECK(ni < completion_params.size());
    return completion_params[ni++];
  };
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    if (!TypeAttributed(graph, t)) continue;
    if (old_proj[t] < 0) {
      return Status::Error("node type " + graph.node_type(t).name +
                           " is attributed but was not at export");
    }
    Status s = CopySame(next(), frozen.completion_params[old_proj[t]],
                        "projection for " + graph.node_type(t).name);
    if (!s.ok()) return s;
  }
  for (int64_t which : {old_mean, old_gcn, old_ppnp}) {
    Status s =
        CopySame(next(), frozen.completion_params[which], "op transform");
    if (!s.ok()) return s;
  }
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    if (TypeAttributed(graph, t)) continue;
    const VarPtr& table = next();
    if (old_onehot[t] < 0) {
      // Attributed at export but without members in this (sub)graph: the
      // rebuilt table has zero rows and nothing to bind.
      if (table->value.rows() != 0) {
        return Status::Error("node type " + graph.node_type(t).name +
                             " lost its attributes since export");
      }
      continue;
    }
    Status s = GatherRowsInto(table, frozen.completion_params[old_onehot[t]],
                              frozen_local_of[t],
                              "one-hot table for " + graph.node_type(t).name);
    if (!s.ok()) return s;
  }
  if (ni != completion_params.size()) {
    return Status::Error(
        "completion parameter count mismatch between rebuild and artifact");
  }

  // --- model parameters -----------------------------------------------------
  if (model_params.size() != frozen.model_params.size()) {
    return Status::Error(
        "model parameter count mismatch between rebuild and artifact");
  }
  int64_t n_new = graph.num_nodes();
  int64_t n_old = old_g.num_nodes();
  // Per-node row map in global-id space, built lazily on first use.
  std::vector<int64_t> row_of;
  for (size_t i = 0; i < model_params.size(); ++i) {
    const Tensor& src = frozen.model_params[i];
    const VarPtr& param = model_params[i];
    bool per_node = !identity && param->value.dim() == 2 && src.dim() == 2 &&
                    param->value.rows() == n_new && src.rows() == n_old &&
                    param->value.cols() == src.cols();
    // The per-node test is shape-based (rows track num_nodes, e.g. GATNE's
    // base embedding); a non-per-node parameter can only collide with it
    // when some weight dimension equals the node count of both graphs.
    if (!per_node) {
      Status s = CopySame(param, src,
                          "model parameter " + std::to_string(i));
      if (!s.ok()) return s;
      continue;
    }
    if (row_of.empty()) {
      row_of.resize(n_new);
      for (int64_t t = 0; t < graph.num_node_types(); ++t) {
        const HeteroGraph::NodeTypeInfo& info = graph.node_type(t);
        int64_t old_offset = old_g.node_type(t).offset;
        for (int64_t l = 0; l < info.count; ++l) {
          int64_t fl = frozen_local_of[t][l];
          row_of[info.offset + l] = fl < 0 ? -1 : old_offset + fl;
        }
      }
    }
    Status s = GatherRowsInto(param, src, row_of,
                              "model parameter " + std::to_string(i));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

ModelConfig FrozenModelConfig(const FrozenModel& frozen) {
  ModelConfig config;
  config.in_dim = frozen.hidden_dim;
  config.hidden_dim = frozen.hidden_dim;
  config.out_dim = frozen.hidden_dim;
  config.num_layers = frozen.num_layers;
  config.num_heads = frozen.num_heads;
  config.dropout = frozen.dropout;
  config.negative_slope = frozen.negative_slope;
  return config;
}

StatusOr<FrozenModel> RefreezeWithGraph(
    const FrozenModel& frozen, HeteroGraphPtr graph,
    const std::vector<CompletionOpType>& op_of, Tensor* logits) {
  if (!frozen.has_completion) {
    return Status::Error(
        "frozen model predates the completion section (v1 artifact); "
        "re-export to enable mutations");
  }
  // Mirror FreezeTrainedRun's construction order (completion module, then
  // model) so shapes line up; every value is overwritten by the bind.
  Rng rng(frozen.seed);
  CompletionConfig completion_config;
  completion_config.hidden_dim = frozen.hidden_dim;
  completion_config.ppnp_restart = frozen.ppnp_restart;
  completion_config.ppnp_steps = frozen.ppnp_steps;
  CompletionModule completion(graph, completion_config, rng);
  if (static_cast<int64_t>(op_of.size()) != completion.num_missing()) {
    return Status::Error(
        "op assignment length does not match the graph's missing nodes");
  }

  ModelContext ctx = BuildModelContext(graph);
  ModelPtr model = MakeModel(frozen.model_name, FrozenModelConfig(frozen),
                             ctx, rng, /*l2_normalize_output=*/false);

  // Canonical append layout: locals below the exported count map onto
  // themselves; everything past it is a new node.
  std::vector<std::vector<int64_t>> frozen_local_of(graph->num_node_types());
  for (int64_t t = 0; t < graph->num_node_types(); ++t) {
    int64_t old_count = frozen.graph->node_type(t).count;
    frozen_local_of[t].resize(graph->node_type(t).count);
    for (int64_t l = 0; l < graph->node_type(t).count; ++l) {
      frozen_local_of[t][l] = l < old_count ? l : -1;
    }
  }
  Status bound = BindFrozenParams(frozen, *graph, frozen_local_of,
                                  completion.Parameters(),
                                  model->Parameters());
  if (!bound.ok()) return bound;

  FrozenModel out;
  out.model_name = frozen.model_name;
  out.hidden_dim = frozen.hidden_dim;
  out.num_layers = frozen.num_layers;
  out.num_heads = frozen.num_heads;
  out.dropout = frozen.dropout;
  out.negative_slope = frozen.negative_slope;
  out.seed = frozen.seed;
  out.num_classes = frozen.num_classes;
  out.graph = graph;
  out.op_of = op_of;
  {
    NoGradGuard no_grad;
    out.h0 = completion.CompleteDiscrete(op_of)->value;
  }
  for (const VarPtr& p : model->Parameters()) {
    out.model_params.push_back(p->value);
  }
  out.classifier_weight = frozen.classifier_weight;
  out.classifier_bias = frozen.classifier_bias;
  out.has_completion = true;
  for (const VarPtr& p : completion.Parameters()) {
    out.completion_params.push_back(p->value);
  }
  out.ppnp_restart = frozen.ppnp_restart;
  out.ppnp_steps = frozen.ppnp_steps;
  out.fingerprint = ComputeFrozenFingerprint(out);
  if (logits != nullptr) {
    // The model already holds the frozen weights: no second rebuild.
    NoGradGuard no_grad;
    Rng forward_rng(frozen.seed);  // never drawn from: training=false
    VarPtr h = model->Forward(ctx, MakeConst(out.h0), /*training=*/false,
                              forward_rng);
    *logits = AddBias(MatMul(h, MakeConst(out.classifier_weight)),
                      MakeConst(out.classifier_bias))
                  ->value;
  }
  return out;
}

}  // namespace autoac

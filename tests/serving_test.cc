// Tests for the frozen-model export + inference serving subsystem
// (src/serving/, DESIGN.md §10): artifact round trips, corruption and
// fingerprint refusal, tape-free forward identity, thread-count
// invariance, the batched request/response front-end, multi-model routing
// through ModelRegistry, hot artifact reload, deadline expiry, and the
// connection-lifecycle hardening (fd reaping, bounded read buffers,
// interrupted-write retries).

#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <clocale>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "autoac/checkpoint.h"
#include "autoac/trainer.h"
#include "data/hgb_datasets.h"
#include "data/serialization.h"
#include "graph/mutable_graph.h"
#include "gtest/gtest.h"
#include "models/factory.h"
#include "serving/admission.h"
#include "serving/feed.h"
#include "serving/frozen_model.h"
#include "serving/inference_session.h"
#include "serving/model_registry.h"
#include "serving/server.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/shutdown.h"

namespace autoac {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

int64_t CountMissing(const HeteroGraph& graph) {
  int64_t missing = 0;
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    if (graph.node_type(t).attributes.numel() == 0) {
      missing += graph.node_type(t).count;
    }
  }
  return missing;
}

void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  if (a.numel() == 0) return;  // empty tensors have no buffer to compare
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

/// A frozen model with the same graph/weights but a perturbed classifier
/// bias (and the matching recomputed fingerprint): a valid, loadable
/// artifact whose predictions differ from the base model's.
FrozenModel MakeVariantFrozen(const FrozenModel& base, float bias_delta) {
  FrozenModel variant = base;
  for (int64_t c = 0; c < variant.classifier_bias.numel(); ++c) {
    variant.classifier_bias.data()[c] += (c == 0 ? bias_delta : -bias_delta);
  }
  variant.fingerprint = ComputeFrozenFingerprint(variant);
  return variant;
}

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{20, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads complete newline-terminated lines from fd until `count` arrived.
std::vector<std::string> RecvLines(int fd, size_t count) {
  std::vector<std::string> lines;
  std::string pending;
  char buf[4096];
  while (lines.size() < count) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout or peer gone; caller asserts on size
    pending.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      lines.push_back(pending.substr(start, nl - start));
      start = nl + 1;
    }
    pending.erase(0, start);
  }
  return lines;
}

/// Latency differs per request; strip it so response lines compare equal.
std::string StripLatency(const std::string& line) {
  size_t pos = line.find(",\"latency_us\":");
  if (pos == std::string::npos) return line;
  size_t end = line.find('}', pos);
  return line.substr(0, pos) + line.substr(end);
}

/// Maps response lines by their echoed id (responses may interleave across
/// models within a batch).
std::map<std::string, std::string> ById(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> by_id;
  for (const std::string& line : lines) {
    size_t start = line.find("\"id\":\"") + 6;
    size_t end = line.find('"', start);
    by_id[line.substr(start, end - start)] = StripLatency(line);
  }
  return by_id;
}

/// The exact response line `session` would produce for (id, node), latency
/// stripped — the bitwise-identity reference for routing tests.
std::string ExpectedLine(InferenceSession& session, const std::string& id,
                         int64_t node) {
  StatusOr<InferenceSession::Prediction> p = session.Predict(node);
  AUTOAC_CHECK(p.ok()) << p.status().message();
  std::string line = FormatServeResponse(id, p.value(), 0);
  line.pop_back();  // trailing newline, RecvLines strips it
  return StripLatency(line);
}

/// The request accounting law of ServeStats: every request ends as a
/// response, an error, a shed or an expired deadline. Only a failed success
/// write escapes it (write_errors instead of responses), so with
/// write_errors == 0 this is requests == responses + errors + shed +
/// deadline_expired.
void ExpectRequestsAddUp(const ServeStats& stats) {
  const int64_t ended = stats.responses + stats.errors + stats.shed +
                        stats.deadline_expired;
  EXPECT_GE(stats.requests, ended);
  EXPECT_LE(stats.requests, ended + stats.write_errors);
}

int CountOpenFds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int count = 0;
  while (::readdir(d) != nullptr) ++count;
  ::closedir(d);
  return count;
}

// One small trained run shared by every test: training (and freezing) once
// is the expensive part; the tests only read the result.
class ServingEnvironment {
 public:
  static ServingEnvironment& Get() {
    static ServingEnvironment* env = new ServingEnvironment();
    return *env;
  }

  const TaskData& data() const { return data_; }
  const ModelContext& ctx() const { return ctx_; }
  const ExperimentConfig& config() const { return config_; }
  const RunResult& run() const { return run_; }
  const FrozenModel& frozen() const { return frozen_; }

 private:
  ServingEnvironment() {
    DatasetOptions options;
    options.scale = 0.05;
    dataset_ = MakeDataset("dblp", options);
    data_ = MakeNodeTask(dataset_);
    ctx_ = BuildModelContext(data_.graph);
    config_.model_name = "SimpleHGN";
    config_.hidden_dim = 16;
    config_.train_epochs = 6;
    config_.eval_every = 2;
    config_.patience = 100;
    config_.seed = 3;
    config_.capture_final_params = true;
    run_ = TrainFixedCompletion(
        data_, ctx_, config_,
        UniformAssignment(CountMissing(*data_.graph),
                          CompletionOpType::kOneHot));
    StatusOr<FrozenModel> frozen =
        FreezeTrainedRun(data_, ctx_, config_, run_);
    AUTOAC_CHECK(frozen.ok()) << frozen.status().message();
    frozen_ = frozen.TakeValue();
  }

  Dataset dataset_;
  TaskData data_;
  ModelContext ctx_;
  ExperimentConfig config_;
  RunResult run_;
  FrozenModel frozen_;
};

TEST(FreezeTest, RequiresCapturedParamsAndAssignment) {
  const ServingEnvironment& env = ServingEnvironment::Get();

  RunResult no_params = env.run();
  no_params.final_params.clear();
  StatusOr<FrozenModel> frozen =
      FreezeTrainedRun(env.data(), env.ctx(), env.config(), no_params);
  ASSERT_FALSE(frozen.ok());
  EXPECT_NE(frozen.status().message().find("no final parameters"),
            std::string::npos);

  RunResult no_ops = env.run();
  no_ops.searched_ops.clear();
  EXPECT_FALSE(
      FreezeTrainedRun(env.data(), env.ctx(), env.config(), no_ops).ok());

  RunResult short_ops = env.run();
  short_ops.searched_ops.pop_back();
  EXPECT_FALSE(
      FreezeTrainedRun(env.data(), env.ctx(), env.config(), short_ops).ok());
}

TEST(FreezeTest, HeaderMirrorsConfigAndData) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  const FrozenModel& frozen = env.frozen();
  EXPECT_EQ(frozen.model_name, env.config().model_name);
  EXPECT_EQ(frozen.hidden_dim, env.config().hidden_dim);
  EXPECT_EQ(frozen.seed, env.config().seed);
  EXPECT_EQ(frozen.num_classes, env.data().graph->num_classes());
  EXPECT_EQ(frozen.h0.rows(), env.data().graph->num_nodes());
  EXPECT_EQ(frozen.h0.cols(), env.config().hidden_dim);
  EXPECT_EQ(frozen.op_of, env.run().searched_ops);
  EXPECT_EQ(frozen.fingerprint, ComputeFrozenFingerprint(frozen));
}

/// The evaluation forward (GNN + linear head) on a model rebuilt from the
/// frozen weights — the oracle the serving session is held to. Taped
/// unless the caller holds a NoGradGuard.
VarPtr EagerLogits(const ServingEnvironment& env) {
  const FrozenModel& frozen = env.frozen();
  ModelConfig model_config;
  model_config.in_dim = frozen.hidden_dim;
  model_config.hidden_dim = frozen.hidden_dim;
  model_config.out_dim = frozen.hidden_dim;
  model_config.num_layers = frozen.num_layers;
  model_config.num_heads = frozen.num_heads;
  model_config.dropout = frozen.dropout;
  model_config.negative_slope = frozen.negative_slope;
  Rng init_rng(frozen.seed);
  ModelPtr model = MakeModel(frozen.model_name, model_config, env.ctx(),
                             init_rng, /*l2_normalize_output=*/false);
  std::vector<VarPtr> params = model->Parameters();
  AUTOAC_CHECK_EQ(params.size(), frozen.model_params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = frozen.model_params[i];
  }
  Rng fwd_rng(frozen.seed);
  VarPtr h0 = MakeConst(frozen.h0);
  VarPtr h = model->Forward(env.ctx(), h0, /*training=*/false, fwd_rng);
  return AddBias(MatMul(h, MakeConst(frozen.classifier_weight)),
                 MakeConst(frozen.classifier_bias));
}

// The serving forward must be bitwise identical to the taped in-process
// evaluation forward: same ops in the same order, only the autograd
// bookkeeping removed.
TEST(InferenceSessionTest, MatchesTapedForwardBitwise) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  InferenceSession session(env.frozen());

  ASSERT_TRUE(GradModeEnabled());
  VarPtr taped = EagerLogits(env);
  EXPECT_FALSE(taped->parents.empty());  // the reference really is taped

  ExpectTensorsBitwiseEqual(session.logits(), taped->value);
}

// Acceptance gate: the serving forward allocates zero backward closures.
TEST(InferenceSessionTest, ForwardAllocatesZeroBackwardClosures) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  InferenceSession session(env.frozen());
  int64_t before = BackwardClosuresAllocated();
  session.RecomputeLogits();
  EXPECT_EQ(BackwardClosuresAllocated(), before);
}

TEST(InferenceSessionTest, PredictionsThreadCountInvariant) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  SetNumThreads(1);
  InferenceSession session(env.frozen());
  Tensor single = session.logits();
  StatusOr<InferenceSession::Prediction> p1 = session.Predict(0);
  SetNumThreads(4);
  session.RecomputeLogits();
  StatusOr<InferenceSession::Prediction> p4 = session.Predict(0);
  SetNumThreads(0);
  ExpectTensorsBitwiseEqual(single, session.logits());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p4.ok());
  EXPECT_EQ(p1.value().label, p4.value().label);
  EXPECT_EQ(p1.value().score, p4.value().score);
}

TEST(InferenceSessionTest, PredictRejectsOutOfRangeNodes) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  InferenceSession session(env.frozen());
  EXPECT_FALSE(session.Predict(-1).ok());
  EXPECT_FALSE(session.Predict(session.num_targets()).ok());
  ASSERT_TRUE(session.Predict(session.num_targets() - 1).ok());
}

// Acceptance gate (DESIGN.md §10): PredictBatch answers exactly what
// per-row Predict answers — bit for bit, at one thread and at four, for
// batch sizes from one row to well past the server's max_batch.
TEST(InferenceSessionTest, PredictBatchBitwiseMatchesPredict) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  InferenceSession session(env.frozen());
  const int64_t targets = session.num_targets();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (int64_t size : {1, 5, 64, 131}) {
      std::vector<int64_t> nodes(size);
      for (int64_t i = 0; i < size; ++i) nodes[i] = (i * 7 + 1) % targets;
      StatusOr<std::vector<InferenceSession::Prediction>> batch =
          session.PredictBatch(nodes);
      ASSERT_TRUE(batch.ok()) << batch.status().message();
      ASSERT_EQ(static_cast<int64_t>(batch.value().size()), size);
      for (int64_t i = 0; i < size; ++i) {
        StatusOr<InferenceSession::Prediction> single =
            session.Predict(nodes[i]);
        ASSERT_TRUE(single.ok());
        EXPECT_EQ(batch.value()[i].node, nodes[i]);
        EXPECT_EQ(batch.value()[i].label, single.value().label);
        EXPECT_EQ(batch.value()[i].score, single.value().score)
            << "row " << i << " at " << threads << " threads";
      }
    }
  }
  SetNumThreads(0);
}

TEST(InferenceSessionTest, PredictBatchFailsWholeRequestOnBadId) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  InferenceSession session(env.frozen());
  EXPECT_FALSE(session.PredictBatch({0, session.num_targets()}).ok());
  EXPECT_FALSE(session.PredictBatch({0, -1}).ok());
  EXPECT_TRUE(session.PredictBatch({0, session.num_targets() - 1}).ok());
}

// Steady-state PredictBatch allocates zero tensor buffers: every answer is
// a read of the logits table.
TEST(InferenceSessionTest, PredictBatchSteadyStateAllocatesZeroTensorBuffers) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  InferenceSession session(env.frozen());
  std::vector<int64_t> nodes(64);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<int64_t>(i) % session.num_targets();
  }
  ASSERT_TRUE(session.PredictBatch(nodes).ok());  // warm once
  int64_t before = TensorBuffersAllocated();
  for (int run = 0; run < 3; ++run) {
    ASSERT_TRUE(session.PredictBatch(nodes).ok());
  }
  EXPECT_EQ(TensorBuffersAllocated(), before);
}

TEST(FrozenModelIoTest, PeekFingerprintMatchesWithoutFullParse) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("peek.aacm");
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), path).ok());

  StatusOr<uint64_t> peeked = PeekFrozenFingerprint(path);
  ASSERT_TRUE(peeked.ok()) << peeked.status().message();
  EXPECT_EQ(peeked.value(), env.frozen().fingerprint);
  EXPECT_FALSE(PeekFrozenFingerprint(TempPath("absent.aacm")).ok());
  std::remove(path.c_str());
}

// Export → load → predict must be bitwise identical to the in-process
// session, at one thread and at four.
TEST(FrozenModelIoTest, RoundTripPredictionsBitwiseIdentical) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("roundtrip.aacm");
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), path).ok());
  StatusOr<FrozenModel> loaded = LoadFrozenModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  const FrozenModel& a = env.frozen();
  const FrozenModel& b = loaded.value();
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.op_of, b.op_of);
  ExpectTensorsBitwiseEqual(a.h0, b.h0);
  ASSERT_EQ(a.model_params.size(), b.model_params.size());
  for (size_t i = 0; i < a.model_params.size(); ++i) {
    ExpectTensorsBitwiseEqual(a.model_params[i], b.model_params[i]);
  }
  ExpectTensorsBitwiseEqual(a.classifier_weight, b.classifier_weight);
  ExpectTensorsBitwiseEqual(a.classifier_bias, b.classifier_bias);

  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    InferenceSession original(a);
    InferenceSession reloaded(loaded.value());
    ExpectTensorsBitwiseEqual(original.logits(), reloaded.logits());
    for (int64_t node = 0; node < original.num_targets();
         node += original.num_targets() / 7 + 1) {
      StatusOr<InferenceSession::Prediction> pa = original.Predict(node);
      StatusOr<InferenceSession::Prediction> pb = reloaded.Predict(node);
      ASSERT_TRUE(pa.ok());
      ASSERT_TRUE(pb.ok());
      EXPECT_EQ(pa.value().label, pb.value().label);
      EXPECT_EQ(pa.value().score, pb.value().score);
    }
  }
  SetNumThreads(0);
  std::remove(path.c_str());
}

// A coherent edit — payload rewritten with a fresh CRC but without
// re-freezing — must be caught by the content fingerprint.
TEST(FrozenModelIoTest, FingerprintMismatchIsRefused) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("tampered.aacm");

  // Stored fingerprint patched: the content no longer matches it.
  FrozenModel stale = env.frozen();
  stale.fingerprint ^= 0x1;
  ASSERT_TRUE(SaveFrozenModel(stale, path).ok());
  StatusOr<FrozenModel> loaded = LoadFrozenModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("fingerprint"),
            std::string::npos);

  // Content edited under an unchanged stored fingerprint: the CRC is
  // recomputed by the (honest) writer, so only the fingerprint check can
  // notice the drift.
  FrozenModel edited = env.frozen();
  edited.classifier_bias.data()[0] += 1.0f;
  ASSERT_TRUE(SaveFrozenModel(edited, path).ok());
  loaded = LoadFrozenModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("fingerprint"),
            std::string::npos);
  std::remove(path.c_str());
}

// Same discipline as SerializationTest.ByteFlipFuzzAlwaysFailsCleanly, on
// the serving artifact: every single-byte flip, truncation, and trailing
// byte must yield a Status error, never a parse or a crash.
TEST(FrozenModelIoTest, ByteFlipFuzzAlwaysFailsCleanly) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string clean = TempPath("fuzz_clean.aacm");
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), clean).ok());
  std::string bytes;
  {
    std::ifstream in(clean, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 20u);

  std::string mutant_path = TempPath("fuzz_mutant.aacm");
  size_t stride = bytes.size() / 97 + 1;
  size_t header_end = 20;  // 4 magic + 4 version + 8 size + 4 crc
  for (size_t pos = 0; pos < bytes.size();
       pos += (pos < header_end ? 1 : stride)) {
    std::string mutant = bytes;
    mutant[pos] ^= 0x40;
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    StatusOr<FrozenModel> loaded = LoadFrozenModel(mutant_path);
    EXPECT_FALSE(loaded.ok())
        << "byte flip at offset " << pos << " was not detected";
    if (pos >= header_end) {
      EXPECT_NE(loaded.status().message().find("checksum mismatch"),
                std::string::npos)
          << "offset " << pos << ": " << loaded.status().message();
    }
  }

  for (size_t len : {size_t{0}, size_t{3}, size_t{11}, size_t{19},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(LoadFrozenModel(mutant_path).ok())
        << "truncation to " << len << " bytes was not detected";
  }

  {
    std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "extra";
  }
  EXPECT_FALSE(LoadFrozenModel(mutant_path).ok());

  std::remove(clean.c_str());
  std::remove(mutant_path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- drifted artifacts -------------------------------------------------------
// A drifted artifact has its content edited and its stored fingerprint
// recomputed to match, as an exporter from another build writes it. The
// CRC and the fingerprint both pass, so only the structural checks can
// refuse it, and each refusal must be a Status naming the field.

void SaveDrifted(FrozenModel edited, const std::string& path) {
  edited.fingerprint = ComputeFrozenFingerprint(edited);
  Status saved = SaveFrozenModel(edited, path);
  AUTOAC_CHECK(saved.ok()) << saved.message();
}

void ExpectLoadRefused(const std::string& path, const std::string& field) {
  StatusOr<FrozenModel> loaded = LoadFrozenModel(path);
  ASSERT_FALSE(loaded.ok()) << field;
  EXPECT_NE(loaded.status().message().find(field), std::string::npos)
      << loaded.status().message();
}

/// `base` with its first matrix weight grown by one row: a shape only the
/// rebuilt GNN can refuse.
FrozenModel WithGrownWeight(const FrozenModel& base) {
  FrozenModel edited = base;
  for (Tensor& w : edited.model_params) {
    if (w.dim() != 2) continue;
    w = Tensor::Zeros({w.rows() + 1, w.cols()});
    return edited;
  }
  AUTOAC_CHECK(false) << "no matrix weight to grow";
  return edited;
}

TEST(FrozenModelIoTest, DriftedModelNameIsRefused) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("drift_name.aacm");
  FrozenModel edited = env.frozen();
  edited.model_name = "Bogus";
  SaveDrifted(edited, path);
  ExpectLoadRefused(path, "model_name");

  // Start-up and a reload onto the file report it instead of aborting.
  ModelRegistry fresh;
  EXPECT_FALSE(fresh.LoadFromSpec("m=" + path, "").ok());
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), path).ok());
  ModelRegistry live;
  ASSERT_TRUE(live.LoadFromSpec("m=" + path, "").ok());
  SaveDrifted(edited, path);
  EXPECT_FALSE(live.Reload().ok());
  ASSERT_EQ(live.Models().size(), 1u);
  EXPECT_EQ(live.Models()[0].fingerprint, env.frozen().fingerprint);
  std::remove(path.c_str());
}

TEST(FrozenModelIoTest, DriftedClassifierShapeIsRefused) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("drift_classifier.aacm");
  FrozenModel edited = env.frozen();
  edited.classifier_weight =
      Tensor::Zeros({edited.hidden_dim + 1, edited.num_classes});
  SaveDrifted(edited, path);
  ExpectLoadRefused(path, "classifier_weight");
  std::remove(path.c_str());
}

// The GNN weights' shapes are known only to the rebuilt model, so the
// session build (and the refreeze --reference runs) refuses them.
TEST(FrozenModelIoTest, DriftedModelWeightIsRefusedWhereTheModelIsRebuilt) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("drift_weight.aacm");
  FrozenModel extra_tensor = env.frozen();
  extra_tensor.model_params.push_back(Tensor::Zeros({2, 2}));
  for (const FrozenModel& edited :
       {WithGrownWeight(env.frozen()), extra_tensor}) {
    SaveDrifted(edited, path);
    StatusOr<FrozenModel> loaded = LoadFrozenModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_FALSE(RefreezeWithGraph(loaded.value(), loaded.value().graph,
                                   loaded.value().op_of)
                     .ok());
    StatusOr<std::shared_ptr<InferenceSession>> session =
        InferenceSession::Create(loaded.TakeValue());
    ASSERT_FALSE(session.ok());
    EXPECT_NE(session.status().message().find("model_params"),
              std::string::npos)
        << session.status().message();
    ModelRegistry registry;
    EXPECT_FALSE(registry.LoadFromSpec("m=" + path, "").ok());
  }
  std::remove(path.c_str());
}

TEST(FrozenModelIoTest, DriftedCompletionSectionIsRefused) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("drift_completion.aacm");
  FrozenModel short_section = env.frozen();
  short_section.completion_params.pop_back();
  SaveDrifted(short_section, path);
  ExpectLoadRefused(path, "completion_params");

  FrozenModel wrong_shape = env.frozen();
  wrong_shape.completion_params[0] = Tensor::Zeros({1, wrong_shape.hidden_dim});
  SaveDrifted(wrong_shape, path);
  ExpectLoadRefused(path, "completion_params[0]");
  std::remove(path.c_str());
}

TEST(FrozenModelIoTest, DriftedOpAssignmentLengthIsRefused) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("drift_ops.aacm");
  FrozenModel edited = env.frozen();
  edited.op_of.resize(edited.op_of.size() / 2);
  SaveDrifted(edited, path);
  ExpectLoadRefused(path, "op_of");
  std::remove(path.c_str());
}

// A payload that ends where the completion section should start, re-framed
// with a valid CRC, is refused with a hint to re-export it.
TEST(FrozenModelIoTest, PayloadWithoutCompletionSectionIsRefused) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  const FrozenModel& fz = env.frozen();
  std::string path = TempPath("no_completion.aacm");
  ASSERT_TRUE(SaveFrozenModel(fz, path).ok());
  StatusOr<std::string> payload = io::ReadFileChecked(path, "AACM");
  ASSERT_TRUE(payload.ok()) << payload.status().message();
  // The section is the payload's tail: restart, steps and count, then each
  // tensor as its shape vector and its f32 values.
  size_t section = 3 * sizeof(int64_t);
  for (const Tensor& p : fz.completion_params) {
    section += sizeof(int64_t) * (1 + p.dim()) + sizeof(float) * p.numel();
  }
  const std::string& bytes = payload.value();
  ASSERT_LT(section, bytes.size());
  ASSERT_TRUE(io::WriteFileAtomic(path, "AACM",
                                  bytes.substr(0, bytes.size() - section))
                  .ok());
  ExpectLoadRefused(path, "re-export");
  std::remove(path.c_str());
}

// Quantized artifacts put a negative sentinel (-0x51AACF01) and an encoding
// tag where the graph payload's node-type count belongs; such a file is
// refused as malformed.
TEST(FrozenModelIoTest, QuantizedPayloadIsRefusedAsMalformed) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  const FrozenModel& fz = env.frozen();
  std::string path = TempPath("quantized.aacm");
  ASSERT_TRUE(SaveFrozenModel(fz, path).ok());
  StatusOr<std::string> payload = io::ReadFileChecked(path, "AACM");
  ASSERT_TRUE(payload.ok()) << payload.status().message();
  // Name (u32 length + bytes), seven 8-byte header fields, the fingerprint.
  const size_t graph_start = 4 + fz.model_name.size() + 8 * 8;
  std::ostringstream marker;
  io::WriteI64(marker, -0x51AACF01);
  io::WriteI64(marker, 2);  // int8
  std::string bytes = payload.value();
  bytes.insert(graph_start, marker.str());
  ASSERT_TRUE(io::WriteFileAtomic(path, "AACM", bytes).ok());
  ExpectLoadRefused(path, "malformed");
  std::remove(path.c_str());
}

/// Small dyadic values, exact in f32 on every platform; `salt` tells the
/// tensors apart.
Tensor PatternTensor(std::vector<int64_t> shape, int64_t salt) {
  int64_t numel = 1;
  for (int64_t extent : shape) numel *= extent;
  std::vector<float> values(numel);
  for (int64_t i = 0; i < numel; ++i) {
    values[i] = static_cast<float>((i * 5 + salt) % 11 - 5) / 8.0f;
  }
  return Tensor::FromVector(std::move(shape), std::move(values));
}

/// FrozenModel once carried a has_completion flag that had to be set for
/// the completion section to be written. Setting it wherever the member
/// exists lets F32LayoutIsPinned build the same artifact with or without
/// it.
template <typename Model>
void MarkCompletionSection(Model& model) {
  if constexpr (requires { model.has_completion; }) {
    model.has_completion = true;
  }
}

// The f32 layout, byte for byte. Every tensor is a literal pattern (no
// training, no RNG draw, no arithmetic), so the file depends on nothing but
// the layout. The two constants were recorded from the artifact format as
// it stood before the fp16/int8 encodings and the reads of artifacts
// without a completion section were removed; a change to the bytes
// SaveFrozenModel writes or to the fingerprint fails here.
TEST(FrozenModelIoTest, F32LayoutIsPinned) {
  auto graph = std::make_shared<HeteroGraph>();
  int64_t item = graph->AddNodeType("item", 3);
  int64_t tag = graph->AddNodeType("tag", 2);
  graph->SetAttributes(item, PatternTensor({3, 2}, 1));
  int64_t item_tag = graph->AddEdgeType("item-tag", item, tag);
  int64_t item_item = graph->AddEdgeType("item-item", item, item);
  graph->AddEdge(item_tag, 0, 0);
  graph->AddEdge(item_tag, 1, 0);
  graph->AddEdge(item_tag, 2, 1);
  graph->AddEdge(item_item, 0, 2);
  graph->SetTargetNodeType(item);
  graph->SetLabels({0, 1, 0}, 2);
  graph->Finalize();

  FrozenModel fz;
  fz.model_name = "GCN";
  fz.hidden_dim = 4;
  fz.num_layers = 2;
  fz.num_heads = 1;
  fz.dropout = 0.25f;
  fz.negative_slope = 0.125f;
  fz.seed = 11;
  fz.num_classes = 2;
  fz.graph = graph;
  fz.op_of = {CompletionOpType::kGcn, CompletionOpType::kPpnp};
  fz.h0 = PatternTensor({5, 4}, 2);
  fz.model_params = {PatternTensor({4, 4}, 3), PatternTensor({4}, 4)};
  fz.classifier_weight = PatternTensor({4, 2}, 5);
  fz.classifier_bias = PatternTensor({2}, 6);
  MarkCompletionSection(fz);
  fz.completion_params = {PatternTensor({2, 4}, 7), PatternTensor({4, 4}, 8),
                          PatternTensor({4, 4}, 9), PatternTensor({4, 4}, 10),
                          PatternTensor({2, 4}, 11)};
  fz.ppnp_restart = 0.25f;
  fz.ppnp_steps = 3;
  fz.fingerprint = ComputeFrozenFingerprint(fz);

  std::string path = TempPath("pinned.aacm");
  ASSERT_TRUE(SaveFrozenModel(fz, path).ok());
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(Fnv1a(bytes.data(), bytes.size()), 0xef80a23a8b599b38ull);
  EXPECT_EQ(fz.fingerprint, 0x15cc7145998564feull);
  StatusOr<FrozenModel> loaded = LoadFrozenModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().fingerprint, fz.fingerprint);
  std::remove(path.c_str());
}

TEST(ServeProtocolTest, ParsesWellFormedRequests) {
  ServeRequest request;
  std::string error;

  ASSERT_TRUE(
      ParseServeRequestLine(R"({"id": "r1", "node": 42})", &request, &error))
      << error;
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.node, 42);

  // Key order and whitespace are free; a numeric id is echoed as a string.
  ASSERT_TRUE(ParseServeRequestLine("  { \"node\" : 7 , \"id\" : 3 }  ",
                                    &request, &error))
      << error;
  EXPECT_EQ(request.id, "3");
  EXPECT_EQ(request.node, 7);

  // id is optional.
  ASSERT_TRUE(ParseServeRequestLine(R"({"node": 0})", &request, &error))
      << error;
  EXPECT_EQ(request.id, "");
  EXPECT_EQ(request.node, 0);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  ServeRequest request;
  std::string error;
  const char* bad[] = {
      "",                              // not an object
      "hello",                         // not JSON
      "{}",                            // missing node
      R"({"id": "x"})",                // missing node
      R"({"node": "five"})",           // node must be an integer
      R"({"node": 1, "extra": 2})",    // unknown keys fail loudly
      R"({"node": 1} trailing)",       // trailing characters
      R"({"id": "unterminated)",       // unterminated string
      R"({"node": 1,})",               // dangling comma
      R"({"node": +5})",               // JSON integers carry no '+'
      R"({"node": 007})",              // ... and no leading zeros
      R"({"node": -01})",
      R"({"node": 00})",
      R"({"id": +3, "node": 1})",      // numeric ids follow the same grammar
      R"({"id": 03, "node": 1})",
      R"({"node": 1, "deadline_ms": +10})",
      R"({"node": 1, "deadline_ms": 010})",
      R"({"op": "add_edge", "edge": "e", "src": +1, "dst": 2})",
      R"({"op": "add_edge", "edge": "e", "src": 1, "dst": 02})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseServeRequestLine(line, &request, &error))
        << "accepted: " << line;
    EXPECT_FALSE(error.empty());
  }
  // A lone zero (signed or not) is the one integer that starts with '0'.
  ASSERT_TRUE(ParseServeRequestLine(R"({"id": 0, "node": -0})", &request,
                                    &error))
      << error;
  EXPECT_EQ(request.id, "0");
  EXPECT_EQ(request.node, 0);
}

TEST(ServeProtocolTest, ParsesModelAndDeadlineKeys) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequestLine(
      R"({"id": "r1", "node": 3, "model": "acm", "deadline_ms": 250})",
      &request, &error))
      << error;
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.node, 3);
  EXPECT_EQ(request.model, "acm");
  EXPECT_EQ(request.deadline_ms, 250);

  // Both keys are optional; absent means default model / no deadline.
  ASSERT_TRUE(ParseServeRequestLine(R"({"node": 3})", &request, &error))
      << error;
  EXPECT_EQ(request.model, "");
  EXPECT_EQ(request.deadline_ms, -1);

  // deadline_ms 0 is legal (already expired on arrival).
  ASSERT_TRUE(ParseServeRequestLine(R"({"node": 3, "deadline_ms": 0})",
                                    &request, &error))
      << error;
  EXPECT_EQ(request.deadline_ms, 0);
}

// Integer overflow must be malformed, not silently saturated to INT64_MAX
// (which would turn an absurd node id into a plausible out-of-range error
// and an absurd deadline into "no deadline pressure at all").
TEST(ServeProtocolTest, RejectsOverflowAndBadDeadlines) {
  ServeRequest request;
  std::string error;
  const char* bad[] = {
      R"({"node": 99999999999999999999})",                   // > INT64_MAX
      R"({"node": -99999999999999999999})",                  // < INT64_MIN
      R"({"id": 99999999999999999999, "node": 1})",          // numeric id too
      R"({"node": 1, "deadline_ms": 99999999999999999999})",
      R"({"node": 1, "deadline_ms": -5})",    // negative deadline
      R"({"node": 1, "deadline_ms": "soon"})",
      R"({"node": 1, "model": 7})",           // model must be a string
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseServeRequestLine(line, &request, &error))
        << "accepted: " << line;
    EXPECT_FALSE(error.empty());
  }
  // INT64_MAX itself is in range and still parses.
  ASSERT_TRUE(ParseServeRequestLine(R"({"node": 9223372036854775807})",
                                    &request, &error))
      << error;
  EXPECT_EQ(request.node, 9223372036854775807LL);
}

// High bytes (any UTF-8 id) must pass through the JSON escaper verbatim; a
// signed char fed to "%04x" sign-extends into garbage like ￿ffc3.
// Control bytes must become exactly one four-hex-digit escape.
TEST(ServeProtocolTest, HighByteIdsEscapeCleanly) {
  const std::string utf8_id = "caf\xc3\xa9";
  std::string line = FormatServeError(utf8_id, "x");
  EXPECT_NE(line.find(utf8_id), std::string::npos) << line;
  EXPECT_EQ(line.find("ffff"), std::string::npos) << line;

  const size_t empty_len = FormatServeError("", "").size();
  for (int byte = 1; byte < 256; ++byte) {
    char c = static_cast<char>(byte);
    std::string out = FormatServeError(std::string(1, c), "");
    EXPECT_EQ(out.find("ffffff"), std::string::npos)
        << "byte " << byte << " sign-extended: " << out;
    if (byte == '"' || byte == '\\' || byte == '\n' || byte == '\t') {
      EXPECT_EQ(out.size(), empty_len + 2) << "byte " << byte;
    } else if (byte < 0x20) {
      char want[8];
      std::snprintf(want, sizeof(want), "\\u%04x", byte);
      EXPECT_NE(out.find(want), std::string::npos) << "byte " << byte;
      EXPECT_EQ(out.size(), empty_len + 6) << "byte " << byte;
    } else {
      EXPECT_EQ(out.size(), empty_len + 1) << "byte " << byte;
    }
  }
}

// WriteLine must not drop (or truncate) a response because send() was
// interrupted by a signal or timed out on a momentarily full socket
// buffer: EINTR retries immediately, EAGAIN waits for writability.
TEST(SendAllTest, RetriesInterruptedAndWouldBlockSends) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int sndbuf = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  // A send timeout makes a blocked send() return EAGAIN — the same errno a
  // nonblocking socket would produce — without needing O_NONBLOCK.
  timeval send_timeout{0, 10000};  // 10ms
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  // SIGUSR1 with an empty handler and no SA_RESTART: pthread_kill makes a
  // blocked send() fail with EINTR.
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  const std::string payload(1 << 20, 'x');
  std::atomic<bool> sent_ok{false};
  std::atomic<bool> done{false};
  std::thread sender([&] {
    sent_ok = SendAll(fds[0], payload.data(), payload.size());
    done = true;
  });
  pthread_t handle = sender.native_handle();
  for (int i = 0; i < 20 && !done.load(); ++i) {
    ::pthread_kill(handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  size_t received = 0;
  char buf[65536];
  while (received < payload.size()) {
    ssize_t n = ::recv(fds[1], buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    received += static_cast<size_t>(n);
  }
  sender.join();
  EXPECT_TRUE(sent_ok.load());
  EXPECT_EQ(received, payload.size());
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocolTest, ResponseFormatting) {
  InferenceSession::Prediction p;
  p.node = 4;
  p.label = 2;
  p.score = 1.5f;
  EXPECT_EQ(FormatServeResponse("r9", p, 120),
            "{\"id\":\"r9\",\"node\":4,\"label\":2,\"score\":1.5,"
            "\"latency_us\":120}\n");
  EXPECT_EQ(FormatServeError("x\"y", "bad \"input\""),
            "{\"id\":\"x\\\"y\",\"error\":\"bad \\\"input\\\"\"}\n");
}

// End-to-end over a real TCP loopback socket: valid, malformed, and
// out-of-range requests each get the right response line, the stats
// counters add up, and Stop() quiesces the server.
TEST(InferenceServerTest, EndToEndOverLoopbackTcp) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.max_batch = 4;
  InferenceServer server(&registry, options);
  Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.message();
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { server.Serve(); });

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::string out =
      "{\"id\": \"a\", \"node\": 0}\n"
      "this is not json\n"
      "{\"id\": \"b\", \"node\": 1}\n"
      "{\"id\": \"big\", \"node\": 999999999}\n";
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));

  // Four response lines come back; the reader answers malformed lines
  // directly while the batcher answers the rest, so order is not fixed.
  std::string received;
  size_t newlines = 0;
  char buf[4096];
  while (newlines < 4) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "timed out waiting for responses";
    received.append(buf, static_cast<size_t>(n));
    newlines = static_cast<size_t>(
        std::count(received.begin(), received.end(), '\n'));
  }
  ::close(fd);
  EXPECT_NE(received.find("\"id\":\"a\",\"node\":0,\"label\":"),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("\"id\":\"b\",\"node\":1,\"label\":"),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("\"id\":\"big\",\"error\":\"node id"),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("expected a JSON object"), std::string::npos)
      << received;

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.connections, 1);
  EXPECT_EQ(stats.requests, 3);   // parsed OK (incl. the out-of-range node)
  EXPECT_EQ(stats.responses, 2);  // successful predictions only
  EXPECT_EQ(stats.errors, 1);     // the out-of-range node
  EXPECT_EQ(stats.malformed, 1);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.batched_requests, 3);
}

// Serve() also honors the process-wide cooperative shutdown flag.
TEST(InferenceServerTest, HonorsProcessShutdownFlag) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  RequestShutdown();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  ClearShutdownRequestForTest();
}

// --- multi-model hosting (ModelRegistry) ------------------------------------

TEST(ModelRegistryTest, LookupResolvesDefaultAndUnknown) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  auto session = std::make_shared<InferenceSession>(env.frozen());
  registry.Register("alpha", session);
  registry.Register("beta", std::make_shared<InferenceSession>(env.frozen()));

  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.default_model(), "alpha");  // first registered
  std::string resolved;
  EXPECT_EQ(registry.Lookup("", &resolved), session);
  EXPECT_EQ(resolved, "alpha");
  EXPECT_EQ(registry.Lookup("alpha"), session);
  EXPECT_EQ(registry.Lookup("nope"), nullptr);
  // A Register()-only registry has no artifact spec to re-read.
  EXPECT_FALSE(registry.Reload().ok());
}

TEST(ModelRegistryTest, ReloadSwapsChangedArtifactsOnly) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string dir = TempPath("registry_dir");
  ::mkdir(dir.c_str(), 0755);
  FrozenModel a = env.frozen();
  FrozenModel b = MakeVariantFrozen(a, 3.0f);
  ASSERT_TRUE(SaveFrozenModel(a, dir + "/a.aacm").ok());
  ASSERT_TRUE(SaveFrozenModel(b, dir + "/b.aacm").ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadFromSpec("", dir).ok());
  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.default_model(), "a");  // lexicographically first
  std::shared_ptr<InferenceSession> a_before = registry.Lookup("a");
  std::shared_ptr<InferenceSession> b_before = registry.Lookup("b");
  ASSERT_NE(a_before, nullptr);
  ASSERT_NE(b_before, nullptr);

  // Nothing changed on disk: both sessions survive untouched (no forward
  // recomputation).
  StatusOr<ModelRegistry::ReloadReport> noop = registry.Reload();
  ASSERT_TRUE(noop.ok()) << noop.status().message();
  EXPECT_EQ(noop.value().unchanged.size(), 2u);
  EXPECT_TRUE(noop.value().reloaded.empty());
  EXPECT_EQ(registry.Lookup("a"), a_before);
  EXPECT_EQ(registry.Lookup("b"), b_before);

  // b rewritten with different content: only b gets a new session.
  FrozenModel b2 = MakeVariantFrozen(a, -5.0f);
  ASSERT_TRUE(SaveFrozenModel(b2, dir + "/b.aacm").ok());
  StatusOr<ModelRegistry::ReloadReport> partial = registry.Reload();
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  ASSERT_EQ(partial.value().reloaded, std::vector<std::string>{"b"});
  ASSERT_EQ(partial.value().unchanged, std::vector<std::string>{"a"});
  EXPECT_EQ(registry.Lookup("a"), a_before);
  EXPECT_NE(registry.Lookup("b"), b_before);
  // The old session object stays alive for holders of the old shared_ptr
  // (that is what lets in-flight requests finish against it).
  EXPECT_EQ(b_before->frozen().fingerprint, b.fingerprint);

  // a removed from the directory: it leaves the set, default moves on.
  ASSERT_EQ(std::remove((dir + "/a.aacm").c_str()), 0);
  StatusOr<ModelRegistry::ReloadReport> removed = registry.Reload();
  ASSERT_TRUE(removed.ok()) << removed.status().message();
  ASSERT_EQ(removed.value().removed, std::vector<std::string>{"a"});
  EXPECT_EQ(registry.Lookup("a"), nullptr);
  EXPECT_EQ(registry.default_model(), "b");
  ASSERT_NE(registry.Lookup(""), nullptr);

  // A reload that cannot resolve the spec leaves the serving set intact.
  ASSERT_EQ(std::remove((dir + "/b.aacm").c_str()), 0);
  EXPECT_FALSE(registry.Reload().ok());
  EXPECT_NE(registry.Lookup("b"), nullptr);
  ::rmdir(dir.c_str());
}

// One server hosting two artifacts must answer exactly what two
// single-model servers answer, request for request, bitwise (same
// formatted label/score; latency stripped).
TEST(ModelRegistryTest, TwoModelRoutingMatchesSingleModelServers) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  FrozenModel frozen_a = env.frozen();
  FrozenModel frozen_b = MakeVariantFrozen(frozen_a, 6.0f);

  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;

  ModelRegistry single_a, single_b, multi;
  single_a.Register("a", std::make_shared<InferenceSession>(frozen_a));
  single_b.Register("b", std::make_shared<InferenceSession>(frozen_b));
  multi.Register("a", std::make_shared<InferenceSession>(frozen_a));
  multi.Register("b", std::make_shared<InferenceSession>(frozen_b));
  InferenceServer server_a(&single_a, options);
  InferenceServer server_b(&single_b, options);
  InferenceServer server_multi(&multi, options);
  ASSERT_TRUE(server_a.Start().ok());
  ASSERT_TRUE(server_b.Start().ok());
  ASSERT_TRUE(server_multi.Start().ok());
  std::thread serve_a([&] { server_a.Serve(); });
  std::thread serve_b([&] { server_b.Serve(); });
  std::thread serve_multi([&] { server_multi.Serve(); });

  InferenceSession reference_a(frozen_a);
  const int64_t step = reference_a.num_targets() / 7 + 1;
  auto query = [&](int port, const std::string& model_key) {
    std::string out;
    size_t count = 0;
    for (int64_t node = 0; node < reference_a.num_targets(); node += step) {
      out += "{\"id\": \"r" + std::to_string(count++) + "\"" + model_key +
             ", \"node\": " + std::to_string(node) + "}\n";
    }
    int fd = ConnectLoopback(port);
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(SendAll(fd, out.data(), out.size()));
    std::vector<std::string> lines = RecvLines(fd, count);
    ::close(fd);
    EXPECT_EQ(lines.size(), count);
    return ById(lines);
  };

  auto from_single_a = query(server_a.port(), "");
  auto from_single_b = query(server_b.port(), "");
  auto routed_a = query(server_multi.port(), ", \"model\": \"a\"");
  auto routed_b = query(server_multi.port(), ", \"model\": \"b\"");
  // No "model" key routes to the default (first) model for backward
  // compatibility with single-model clients.
  auto routed_default = query(server_multi.port(), "");

  EXPECT_EQ(routed_a, from_single_a);
  EXPECT_EQ(routed_b, from_single_b);
  EXPECT_EQ(routed_default, from_single_a);
  EXPECT_NE(from_single_a, from_single_b);  // the variant really differs

  // Naming a model nobody hosts is a distinct error, not a crash or a
  // silent default.
  int fd = ConnectLoopback(server_multi.port());
  ASSERT_GE(fd, 0);
  std::string unknown = "{\"id\": \"u\", \"model\": \"nope\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(fd, unknown.data(), unknown.size()));
  std::vector<std::string> lines = RecvLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("unknown model \\\"nope\\\""), std::string::npos)
      << lines[0];

  server_a.Stop();
  server_b.Stop();
  server_multi.Stop();
  serve_a.join();
  serve_b.join();
  serve_multi.join();
  ExpectRequestsAddUp(server_a.stats());
  ExpectRequestsAddUp(server_b.stats());
  ExpectRequestsAddUp(server_multi.stats());
  EXPECT_EQ(server_multi.stats().unknown_model, 1);
}

// Hot reload: overwriting an artifact and calling Reload() (what SIGHUP
// triggers in the CLI) swaps what new requests see, while every request
// in flight across the swap still gets answered — zero drops — from
// either the old or the new session, never garbage.
TEST(InferenceServerTest, ReloadSwapsPredictionsWithoutDroppingInFlight) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("reload_model.aacm");
  FrozenModel frozen_a = env.frozen();
  FrozenModel frozen_b = MakeVariantFrozen(frozen_a, 8.0f);
  ASSERT_TRUE(SaveFrozenModel(frozen_a, path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadFromSpec("m=" + path, "").ok());
  InferenceSession reference_a(frozen_a);
  InferenceSession reference_b(frozen_b);

  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  // Phase 1: everything is answered from artifact A.
  const int kBefore = 20;
  std::string out;
  for (int i = 0; i < kBefore; ++i) {
    out += "{\"id\": \"a" + std::to_string(i) +
           "\", \"node\": " + std::to_string(i % 3) + "}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  auto before = ById(RecvLines(fd, kBefore));
  ASSERT_EQ(before.size(), static_cast<size_t>(kBefore));
  for (int i = 0; i < kBefore; ++i) {
    std::string id = "a" + std::to_string(i);
    EXPECT_EQ(before[id], ExpectedLine(reference_a, id, i % 3)) << id;
  }

  // Phase 2: overwrite the artifact, then reload while a burst is being
  // pumped in from another thread.
  ASSERT_TRUE(SaveFrozenModel(frozen_b, path).ok());
  const int kBurst = 100;
  std::thread pump([&] {
    for (int i = 0; i < kBurst; ++i) {
      std::string line = "{\"id\": \"p" + std::to_string(i) +
                         "\", \"node\": " + std::to_string(i % 3) + "}\n";
      ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
      if (i % 10 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  StatusOr<ModelRegistry::ReloadReport> report = registry.Reload();
  pump.join();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report.value().reloaded, std::vector<std::string>{"m"});

  auto during = ById(RecvLines(fd, kBurst));
  ASSERT_EQ(during.size(), static_cast<size_t>(kBurst))
      << "requests were dropped across the reload";
  for (int i = 0; i < kBurst; ++i) {
    std::string id = "p";
    id += std::to_string(i);
    std::string from_a = ExpectedLine(reference_a, id, i % 3);
    std::string from_b = ExpectedLine(reference_b, id, i % 3);
    EXPECT_TRUE(during[id] == from_a || during[id] == from_b)
        << id << ": " << during[id];
  }

  // Phase 3: new requests are answered from artifact B.
  std::string after_line = "{\"id\": \"z\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(fd, after_line.data(), after_line.size()));
  auto after = ById(RecvLines(fd, 1));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after["z"], ExpectedLine(reference_b, "z", 0));

  // A second reload with the file untouched keeps the session: the
  // fingerprint matched, nothing was rebuilt.
  std::shared_ptr<InferenceSession> pinned = registry.Lookup("m");
  StatusOr<ModelRegistry::ReloadReport> noop = registry.Reload();
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop.value().unchanged, std::vector<std::string>{"m"});
  EXPECT_EQ(registry.Lookup("m"), pinned);

  ::close(fd);
  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.requests, kBefore + kBurst + 1);
  EXPECT_EQ(stats.responses, kBefore + kBurst + 1);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.deadline_expired, 0);
  std::remove(path.c_str());
}

// --- deadline- and fairness-aware batching ----------------------------------

/// Blocks the batcher deterministically: arms serve_mid_batch_reload:0 and
/// installs a chaos hook that signals entry then parks until released. A
/// priming request makes the batcher assemble one batch and stall inside
/// the hook (outside the queue lock), so the test can stage queue contents
/// without racing the drain. Always disarm with SetFaultSpecForTest("").
struct BatcherGate {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future{release.get_future().share()};
  std::atomic<bool> signaled{false};

  std::function<void()> Hook() {
    return [this] {
      if (!signaled.exchange(true)) entered.set_value();
      release_future.wait();
    };
  }
};

// The batcher is work-conserving: a request is answered as soon as it is
// queued, not once max_batch requests have piled up or a fill timer fired.
// A closed loop never queues a second request, so any fill wait would show
// in every answer's latency.
TEST(InferenceServerTest, LoneRequestsDoNotWaitForABatch) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.max_batch = 64;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  const int kRequests = 40;
  const std::string line = "{\"node\": 0}\n";
  const std::string key = "\"latency_us\":";
  std::vector<int64_t> latencies;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
    std::vector<std::string> answer = RecvLines(fd, 1);
    ASSERT_EQ(answer.size(), 1u);
    size_t pos = answer[0].find(key);
    ASSERT_NE(pos, std::string::npos) << answer[0];
    latencies.push_back(std::stoll(answer[0].substr(pos + key.size())));
  }
  ::close(fd);
  server.Stop();
  serving.join();
  std::nth_element(latencies.begin(), latencies.begin() + kRequests / 2,
                   latencies.end());
  EXPECT_LT(latencies[kRequests / 2], 2000)
      << "median server-reported latency in us";
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.responses, kRequests);
}

// A request whose deadline expires while queued gets the distinct
// "deadline exceeded" error and never reaches Predict.
TEST(InferenceServerTest, ExpiredDeadlinesGetDistinctErrorBeforePredict) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 64;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  // The priming request parks the batcher, so the next two requests
  // reliably sit in the queue.
  int prime_fd = ConnectLoopback(server.port());
  ASSERT_GE(prime_fd, 0);
  std::string prime = "{\"id\": \"prime\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(prime_fd, prime.data(), prime.size()));
  gate.entered.get_future().wait();

  // deadline_ms 0 expires the moment any queue wait happens; a generous
  // deadline on the same connection must be unaffected.
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out =
      "{\"id\": \"late\", \"node\": 0, \"deadline_ms\": 0}\n"
      "{\"id\": \"fine\", \"node\": 1, \"deadline_ms\": 60000}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  for (int waited = 0; waited < 200 && server.stats().requests < 3; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().requests, 3);  // prime + 2 staged
  gate.release.set_value();

  auto by_id = ById(RecvLines(fd, 2));
  ASSERT_EQ(RecvLines(prime_fd, 1).size(), 1u);
  ::close(fd);
  ::close(prime_fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_NE(by_id["late"].find("\"error\":\"deadline exceeded\""),
            std::string::npos)
      << by_id["late"];
  EXPECT_NE(by_id["fine"].find("\"label\":"), std::string::npos)
      << by_id["fine"];

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.deadline_expired, 1);
  // The expired request was never part of an inference batch.
  EXPECT_EQ(stats.batched_requests, 2);
  EXPECT_EQ(stats.responses, 2);
}

// Overload eviction: when the queue is full, the newest request of the
// connection with the most queued requests is evicted — not the incoming
// arrival regardless of source (pre-PR tail-drop would punish the
// well-behaved second connection for the first one's flood).
TEST(InferenceServerTest, OverloadEvictsFromMostLoadedConnection) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 64;
  options.max_queue = 4;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  // The priming request parks the batcher, so everything below stays
  // queued until the gate opens.
  int prime_fd = ConnectLoopback(server.port());
  ASSERT_GE(prime_fd, 0);
  std::string prime = "{\"id\": \"prime\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(prime_fd, prime.data(), prime.size()));
  gate.entered.get_future().wait();
  int flood_fd = ConnectLoopback(server.port());
  int victim_fd = ConnectLoopback(server.port());
  ASSERT_GE(flood_fd, 0);
  ASSERT_GE(victim_fd, 0);

  // The flooding connection fills the whole queue...
  std::string flood;
  for (int i = 0; i < 4; ++i) {
    flood += "{\"id\": \"f" + std::to_string(i) + "\", \"node\": 0}\n";
  }
  ASSERT_TRUE(SendAll(flood_fd, flood.data(), flood.size()));
  auto await_requests = [&](int64_t want) {
    for (int waited = 0; waited < 200 && server.stats().requests < want;
         ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return server.stats().requests;
  };
  ASSERT_EQ(await_requests(5), 5);  // prime + f0..f3

  // ...and the late arrival from a quiet connection still gets served,
  // displacing the flooder's newest request.
  std::string polite = "{\"id\": \"v\", \"node\": 1}\n";
  ASSERT_TRUE(SendAll(victim_fd, polite.data(), polite.size()));
  // v is counted in the same critical section that evicts f3.
  ASSERT_EQ(await_requests(6), 6);
  gate.release.set_value();

  auto flood_responses = ById(RecvLines(flood_fd, 4));
  auto polite_responses = ById(RecvLines(victim_fd, 1));
  ASSERT_EQ(RecvLines(prime_fd, 1).size(), 1u);
  ASSERT_EQ(flood_responses.size(), 4u);
  ASSERT_EQ(polite_responses.size(), 1u);
  EXPECT_NE(polite_responses["v"].find("\"label\":"), std::string::npos)
      << polite_responses["v"];
  EXPECT_NE(flood_responses["f3"].find("\"error\":\"overloaded\""),
            std::string::npos)
      << flood_responses["f3"];
  for (int i = 0; i < 3; ++i) {
    std::string id = "f" + std::to_string(i);
    EXPECT_NE(flood_responses[id].find("\"label\":"), std::string::npos)
        << flood_responses[id];
  }

  ::close(flood_fd);
  ::close(victim_fd);
  ::close(prime_fd);
  SetFaultSpecForTest("");
  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.responses, 5);  // prime + f0..f2 + v
}

// --- connection lifecycle hardening -----------------------------------------

// A long-running server must not accumulate one fd (and one zombie reader
// thread) per past connection: disconnected connections are pruned, their
// fds closed, their reader threads reaped.
TEST(InferenceServerTest, FdCountStableAcrossConnectionChurn) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  auto cycle = [&] {
    int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string line = "{\"node\": 0}\n";
    ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
    ASSERT_EQ(RecvLines(fd, 1).size(), 1u);
    ::close(fd);
  };
  cycle();  // settle one-time allocations before taking the baseline
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);

  for (int i = 0; i < 100; ++i) cycle();

  // Reaping runs on the accept loop (<=100ms cadence); give it a moment.
  int settled = -1;
  for (int waited = 0; waited < 100; ++waited) {
    settled = CountOpenFds();
    if (settled <= baseline + 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_LE(settled, baseline + 2)
      << "fds leaked across connect/disconnect cycles (baseline "
      << baseline << ")";

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().connections, 101);
}

// A client streaming bytes with no newline must not grow the read buffer
// without limit: at max_line_bytes it gets a malformed-request error and
// the connection is dropped.
TEST(InferenceServerTest, OverlongLineGetsErrorAndDropsConnection) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_line_bytes = 512;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  std::string endless(4096, 'a');  // no newline anywhere
  ASSERT_TRUE(SendAll(fd, endless.data(), endless.size()));
  std::vector<std::string> lines = RecvLines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"error\":"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("exceeds 512 bytes"), std::string::npos)
      << lines[0];
  // The server hung up: recv drains to EOF instead of blocking forever.
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0) << "connection was not dropped";
  ::close(fd);

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.overlong_lines, 1);
  EXPECT_EQ(stats.requests, 0);
}

// --- streaming graph mutations (DESIGN.md §12) -------------------------------

TEST(ServeProtocolTest, ParsesMutationRequests) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequestLine(
      R"({"id": "m1", "op": "add_node", "type": "author", )"
      R"("attrs": [1.5, -2, 3e-1]})",
      &request, &error))
      << error;
  EXPECT_TRUE(request.is_mutation);
  EXPECT_EQ(request.mutation.kind, Mutation::Kind::kAddNode);
  EXPECT_EQ(request.mutation.node_type, "author");
  ASSERT_EQ(request.mutation.attributes.size(), 3u);
  EXPECT_EQ(request.mutation.attributes[0], 1.5f);
  EXPECT_EQ(request.mutation.attributes[1], -2.0f);
  EXPECT_EQ(request.mutation.attributes[2], 0.3f);

  ASSERT_TRUE(ParseServeRequestLine(
      R"({"op": "add_edge", "edge": "paper-author", "src": 3, "dst": 7, )"
      R"("expect_fingerprint": "00ff00ff00ff00ff"})",
      &request, &error))
      << error;
  EXPECT_EQ(request.mutation.kind, Mutation::Kind::kAddEdge);
  EXPECT_EQ(request.mutation.edge_type, "paper-author");
  EXPECT_EQ(request.mutation.src, 3);
  EXPECT_EQ(request.mutation.dst, 7);
  EXPECT_EQ(request.mutation.expect_fingerprint, 0x00ff00ff00ff00ffull);

  ASSERT_TRUE(ParseServeRequestLine(
      R"({"op": "remove_edge", "edge": "e", "src": 0, "dst": 0, )"
      R"("model": "a"})",
      &request, &error))
      << error;
  EXPECT_TRUE(request.is_mutation);
  EXPECT_EQ(request.mutation.kind, Mutation::Kind::kRemoveEdge);
  EXPECT_EQ(request.model, "a");
  EXPECT_EQ(request.mutation.expect_fingerprint, 0u);
}

TEST(ServeProtocolTest, RejectsMalformedMutations) {
  ServeRequest request;
  std::string error;
  const char* bad[] = {
      R"({"op": "add_node", "type": "a", "node": 1})",  // op+node exclusive
      R"({"op": "drop_table", "type": "a"})",           // unknown op
      R"({"op": "add_node"})",                          // missing type
      R"({"op": "add_node", "type": "a", "src": 1})",   // edge key on add_node
      R"({"op": "add_edge", "edge": "e", "src": 1})",   // missing dst
      R"({"op": "add_edge", "edge": "e", "src": 1, "dst": 2, "attrs": []})",
      R"({"node": 1, "src": 2})",                       // "src" without "op"
      R"({"op": "add_node", "type": "a", "attrs": [1, "x"]})",
      R"({"op": "add_node", "type": "a", "attrs": [nan]})",
      // Fingerprints travel as hex strings (uint64-range); integers and
      // non-hex strings are malformed.
      R"({"op": "add_edge", "edge": "e", "src": 1, "dst": 2, )"
      R"("expect_fingerprint": 7})",
      R"({"op": "add_edge", "edge": "e", "src": 1, "dst": 2, )"
      R"("expect_fingerprint": "xyz"})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseServeRequestLine(line, &request, &error))
        << "accepted: " << line;
    EXPECT_FALSE(error.empty());
  }
}

// Satellite: float tokens follow the JSON number grammar exactly. The old
// strtof-based scanner consumed C-grammar extensions ("12.", "+1", ".5",
// hex floats) and saturated out-of-range magnitudes to inf with ERANGE
// ignored; all of those are malformed now, token-level.
TEST(ServeProtocolTest, FloatTokensAreStrictJson) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequestLine(
      R"({"op": "add_node", "type": "a", )"
      R"("attrs": [1.5, -0.25, 3e-1, 1E+2, 0.0, -0.0]})",
      &request, &error))
      << error;
  ASSERT_EQ(request.mutation.attributes.size(), 6u);
  EXPECT_EQ(request.mutation.attributes[0], 1.5f);
  EXPECT_EQ(request.mutation.attributes[3], 100.0f);

  const char* bad[] = {
      R"({"op": "add_node", "type": "a", "attrs": [12.]})",     // bare dot
      R"({"op": "add_node", "type": "a", "attrs": [.5]})",      // no int part
      R"({"op": "add_node", "type": "a", "attrs": [+1]})",      // leading '+'
      R"({"op": "add_node", "type": "a", "attrs": [1.5abc]})",  // trailing junk
      R"({"op": "add_node", "type": "a", "attrs": [0x10]})",    // hex float
      R"({"op": "add_node", "type": "a", "attrs": [1e]})",      // empty exp
      R"({"op": "add_node", "type": "a", "attrs": [1e+]})",     // signed empty
      R"({"op": "add_node", "type": "a", "attrs": [1e999]})",   // overflow
      R"({"op": "add_node", "type": "a", "attrs": [-]})",       // bare sign
      R"({"op": "add_node", "type": "a", "attrs": [inf]})",
      R"({"op": "add_node", "type": "a", "attrs": [01.5]})",    // leading 0
      R"({"op": "add_node", "type": "a", "attrs": [-01]})",     // leading 0
      R"({"op": "add_node", "type": "a", "attrs": [00e1]})",    // leading 0
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseServeRequestLine(line, &request, &error))
        << "accepted: " << line;
    EXPECT_FALSE(error.empty());
  }
}

/// Every field of a parsed request, strings length-prefixed and floats by
/// bit pattern, so two parses compare with one string equality.
std::string DescribeRequest(const ServeRequest& r) {
  std::ostringstream out;
  auto str = [&](const std::string& v) { out << v.size() << ':' << v << '|'; };
  str(r.id);
  out << r.node << '|';
  str(r.model);
  out << r.deadline_ms << '|' << static_cast<int>(r.qos) << '|';
  str(r.client);
  out << r.is_mutation << '|' << static_cast<int>(r.mutation.kind) << '|';
  str(r.mutation.node_type);
  for (float v : r.mutation.attributes) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    out << std::hex << bits << std::dec << ',';
  }
  out << '|';
  str(r.mutation.edge_type);
  out << r.mutation.src << '|' << r.mutation.dst << '|'
      << r.mutation.expect_fingerprint;
  return out.str();
}

// Seeded fuzz of the request scanner, in the spirit of the AACM byte-flip
// fuzz: every line the tests above accept, truncated at every position and
// mutated ~20k times (bit flips, deleted bytes, inserted grammar bytes,
// duplicated spans). The parser must return on every mutant, a rejection
// must say why, and a second parse of the same bytes — into a request that
// still holds the previous mutant's fields — must give the same verdict,
// error and fields.
TEST(ServeProtocolTest, SeededMutantFuzzParsesTotallyAndDeterministically) {
  const std::vector<std::string> seeds = {
      R"({"id": "r1", "node": 42})",
      "  { \"node\" : 7 , \"id\" : 3 }  ",
      R"({"node": 0})",
      R"({"id": 0, "node": -0})",
      R"({"id": "r1", "node": 3, "model": "acm", "deadline_ms": 250})",
      R"({"node": 3})",
      R"({"node": 3, "deadline_ms": 0})",
      R"({"node": 9223372036854775807})",
      R"({"id": "q1", "node": 3, "qos": "batch", "client": "alice"})",
      R"({"id": "q2", "node": 3, "qos": "interactive"})",
      R"({"id": "q3", "node": 3})",
      R"({"id": "m1", "op": "add_node", "type": "author", )"
      R"("attrs": [1.5, -2, 3e-1]})",
      R"({"op": "add_edge", "edge": "paper-author", "src": 3, "dst": 7, )"
      R"("expect_fingerprint": "00ff00ff00ff00ff"})",
      R"({"op": "remove_edge", "edge": "e", "src": 0, "dst": 0, )"
      R"("model": "a"})",
      R"({"op": "add_node", "type": "a", )"
      R"("attrs": [1.5, -0.25, 3e-1, 1E+2, 0.0, -0.0]})",
  };
  ServeRequest reused;
  int64_t checked = 0;
  int64_t failures = 0;
  std::string first_failure;
  auto check = [&](const std::string& line) {
    ++checked;
    ServeRequest fresh;
    std::string error1;
    std::string error2;
    const bool ok1 = ParseServeRequestLine(line, &fresh, &error1);
    const bool ok2 = ParseServeRequestLine(line, &reused, &error2);
    std::string problem;
    if (!ok1 && error1.empty()) problem = "rejected without an error";
    if (ok1 != ok2) problem = "verdict differs between parses";
    if (!ok1 && error1 != error2) problem = "error differs between parses";
    if (ok1 && DescribeRequest(fresh) != DescribeRequest(reused)) {
      problem = "fields differ between parses";
    }
    if (!problem.empty() && failures++ == 0) {
      first_failure = problem + ": " + line;
    }
  };

  for (const std::string& seed : seeds) {
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(ParseServeRequestLine(seed, &request, &error))
        << seed << ": " << error;
    for (size_t len = 0; len <= seed.size(); ++len) check(seed.substr(0, len));
  }

  const std::string inserts = std::string("{}[]\":,-+.eE0123456789 \t\\") +
                              '\0' + '\xff';
  std::mt19937_64 rng(0x5eedf00d);
  auto below = [&](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };
  const int kMutants = 20000;
  for (int m = 0; m < kMutants; ++m) {
    std::string line = seeds[below(seeds.size())];
    const int edits = 1 + static_cast<int>(below(3));
    for (int e = 0; e < edits; ++e) {
      switch (below(4)) {
        case 0:  // flip one bit
          if (!line.empty()) {
            line[below(line.size())] ^= static_cast<char>(1 << below(8));
          }
          break;
        case 1:  // delete one byte
          if (!line.empty()) line.erase(below(line.size()), 1);
          break;
        case 2:  // insert one grammar (or NUL / 0xff) byte
          line.insert(below(line.size() + 1), 1,
                      inserts[below(inserts.size())]);
          break;
        default:  // duplicate a span of up to 16 bytes in place
          if (!line.empty()) {
            size_t start = below(line.size());
            size_t len = 1 + below(std::min<size_t>(16, line.size() - start));
            line.insert(start + len, line.substr(start, len));
          }
          break;
      }
    }
    check(line);
  }
  EXPECT_EQ(failures, 0) << "of " << checked << " lines; first: "
                         << first_failure;
  EXPECT_GT(checked, kMutants);
}

// --- locale independence (satellite bugfix) ---------------------------------

/// Generates a comma-decimal locale into a temp LOCPATH with localedef (the
/// test image ships only C/POSIX). Returns false when the tooling or the
/// de_DE source definition is unavailable — callers skip, not fail.
bool GenerateCommaLocale(std::string* locpath) {
  std::string dir = TempPath("test_locales");
  ::mkdir(dir.c_str(), 0755);
  std::string target = dir + "/de_DE.UTF-8";
  struct stat st;
  if (::stat(target.c_str(), &st) != 0) {
    std::string cmd =
        "localedef -i de_DE -f UTF-8 " + target + " >/dev/null 2>&1";
    // localedef exits nonzero on harmless warnings; trust the output dir.
    int rc = std::system(cmd.c_str());
    (void)rc;
    if (::stat(target.c_str(), &st) != 0) return false;
  }
  *locpath = dir;
  return true;
}

/// Switches the process to de_DE.UTF-8 for the scope; restores "C" after.
class ScopedCommaLocale {
 public:
  explicit ScopedCommaLocale(const std::string& locpath) {
    ::setenv("LOCPATH", locpath.c_str(), 1);
    ok_ = ::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr &&
          ::localeconv()->decimal_point[0] == ',';
  }
  ~ScopedCommaLocale() {
    ::setlocale(LC_ALL, "C");
    ::unsetenv("LOCPATH");
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

// Satellite regression: the request grammar and the flag parser must not
// consult the process locale. Under a comma-decimal locale strtof/strtod
// stop at the '.' in "1.5", so the old code rejected valid requests and
// silently fell back to flag defaults; std::from_chars always parses the C
// grammar. This test fails against the strtof/strtod implementations.
TEST(LocaleTest, FloatParsingIsLocaleIndependent) {
  std::string locpath;
  if (!GenerateCommaLocale(&locpath)) {
    GTEST_SKIP() << "localedef or de_DE locale source unavailable";
  }
  ScopedCommaLocale locale(locpath);
  if (!locale.ok()) {
    GTEST_SKIP() << "comma-decimal locale did not activate";
  }
  // Sanity: libc float parsing really is comma-decimal in this scope —
  // the exact environment the old parser broke in.
  ASSERT_EQ(std::strtof("1.5", nullptr), 1.0f);

  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequestLine(
      R"({"op": "add_node", "type": "author", "attrs": [1.5, -2.25e-1]})",
      &request, &error))
      << error;
  ASSERT_EQ(request.mutation.attributes.size(), 2u);
  EXPECT_EQ(request.mutation.attributes[0], 1.5f);
  EXPECT_EQ(request.mutation.attributes[1], -2.25e-1f);

  const char* argv[] = {"test", "--scale=0.5", "--lr=2.5e-3"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetDouble("scale", -1.0), 0.5);
  EXPECT_EQ(flags.GetDouble("lr", -1.0), 2.5e-3);
  EXPECT_TRUE(flags.Validate({{"scale", Flags::Spec::Type::kDouble},
                              {"lr", Flags::Spec::Type::kDouble}})
                  .empty());
}

TEST(ServeProtocolTest, MutationResponseFormatting) {
  Mutation m;
  m.kind = Mutation::Kind::kAddNode;
  MutationResult result;
  result.node = 12;
  result.dirty_rows = 5;
  EXPECT_EQ(FormatMutationResponse("m1", m, result, 90),
            "{\"id\":\"m1\",\"applied\":\"add_node\",\"node\":12,"
            "\"dirty_rows\":5,\"latency_us\":90}\n");
}

/// The node-type id of `name` in the environment graph, for building deltas.
int64_t NodeTypeIdOrDie(const HeteroGraph& graph, const std::string& name) {
  for (int64_t t = 0; t < graph.num_node_types(); ++t) {
    if (graph.node_type(t).name == name) return t;
  }
  AUTOAC_CHECK(false) << "no node type " << name;
  return -1;
}

// The tentpole invariant at the socket level: every answer after a streamed
// delta is bitwise identical to a from-scratch re-export
// (RefreezeWithGraph) of the mutated graph.
TEST(InferenceServerTest, MutationsOverSocketMatchFromScratchRefreeze) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  const HeteroGraph& graph = *env.frozen().graph;
  const int64_t new_author =
      graph.node_type(NodeTypeIdOrDie(graph, "author")).count;
  std::string out;
  out +=
      "{\"id\": \"m0\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 1}\n";
  out += "{\"id\": \"m1\", \"op\": \"add_node\", \"type\": \"author\"}\n";
  out +=
      "{\"id\": \"m2\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 3, \"dst\": " +
      std::to_string(new_author) + "}\n";
  out +=
      "{\"id\": \"m3\", \"op\": \"remove_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 1}\n";
  const std::vector<int64_t> probes = {0, 1, 2, new_author};
  for (size_t i = 0; i < probes.size(); ++i) {
    out += "{\"id\": \"r" + std::to_string(i) +
           "\", \"node\": " + std::to_string(probes[i]) + "}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, 8);
  ::close(fd);
  ASSERT_EQ(lines.size(), 8u);
  std::map<std::string, std::string> by_id = ById(lines);

  // Mutation acks echo the op, the assigned local id, and the dirty count.
  EXPECT_NE(by_id["m0"].find("\"applied\":\"add_edge\""), std::string::npos)
      << by_id["m0"];
  EXPECT_NE(by_id["m1"].find("\"applied\":\"add_node\",\"node\":" +
                             std::to_string(new_author)),
            std::string::npos)
      << by_id["m1"];

  // The from-scratch reference: same deltas on a plain graph replica, then
  // a full re-export.
  MutableGraph replica(env.frozen().graph);
  int64_t author = replica.NodeTypeIdOf("author").value();
  int64_t pa = replica.EdgeTypeIdOf("paper-author").value();
  ASSERT_TRUE(replica.AddEdge(pa, 0, 1).ok());
  ASSERT_EQ(replica.AddNode(author, {}).value(), new_author);
  ASSERT_TRUE(replica.AddEdge(pa, 3, new_author).ok());
  ASSERT_TRUE(replica.RemoveEdge(pa, 0, 1).ok());
  StatusOr<FrozenModel> refrozen =
      RefreezeWithGraph(env.frozen(), replica.Compact(),
                        ExtendOpAssignment(env.frozen(), *replica.Compact()));
  ASSERT_TRUE(refrozen.ok()) << refrozen.status().message();
  InferenceSession reference(refrozen.TakeValue());
  for (size_t i = 0; i < probes.size(); ++i) {
    std::string id = "r" + std::to_string(i);
    EXPECT_EQ(by_id[id], ExpectedLine(reference, id, probes[i])) << id;
  }

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.requests, 8);
  EXPECT_EQ(stats.responses, 8);
  EXPECT_EQ(stats.mutations_applied, 4);
  EXPECT_GT(stats.dirty_rows, 0);
}

// Satellite: mutations with malformed node/edge types (and other invalid
// deltas) are answered with distinct errors, never applied, and leave the
// server healthy.
TEST(InferenceServerTest, MalformedMutationsGetDistinctErrors) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  std::string out;
  out += "{\"id\": \"m0\", \"op\": \"add_node\", \"type\": \"gizmo\"}\n";
  out +=
      "{\"id\": \"m1\", \"op\": \"add_edge\", \"edge\": \"nope\", "
      "\"src\": 0, \"dst\": 0}\n";
  out +=
      "{\"id\": \"m2\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 999999999, \"dst\": 0}\n";
  out +=
      "{\"id\": \"m3\", \"op\": \"add_node\", \"type\": \"author\", "
      "\"attrs\": [1.0]}\n";
  out += "{\"id\": \"r0\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, 5);
  ::close(fd);
  ASSERT_EQ(lines.size(), 5u);
  std::map<std::string, std::string> by_id = ById(lines);
  EXPECT_NE(by_id["m0"].find("unknown node type"), std::string::npos)
      << by_id["m0"];
  EXPECT_NE(by_id["m1"].find("unknown edge type"), std::string::npos)
      << by_id["m1"];
  EXPECT_NE(by_id["m2"].find("out of range"), std::string::npos)
      << by_id["m2"];
  EXPECT_NE(by_id["m3"].find("\"error\""), std::string::npos) << by_id["m3"];
  EXPECT_NE(by_id["r0"].find("\"label\":"), std::string::npos) << by_id["r0"];

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.mutations_applied, 0);
  EXPECT_EQ(stats.dirty_rows, 0);
  EXPECT_EQ(stats.requests, 5);   // all parsed fine
  EXPECT_EQ(stats.responses, 1);  // only the prediction succeeded
  EXPECT_EQ(stats.errors, 4);
}

TEST(InferenceServerTest, MutationsDisabledIsADistinctError) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;  // no set_mutations_enabled
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out =
      "{\"id\": \"m0\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 0}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("mutations disabled"), std::string::npos)
      << lines[0];
  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().mutations_applied, 0);
}

// Predictions that share a batch are each answered bitwise as a lone
// Predict on the same model would answer them.
TEST(InferenceServerTest, BatchedPredictionsMatchPerRowPredict) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 16;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  InferenceSession reference(env.frozen());
  const int kRequests = 32;
  std::string out;
  std::vector<int64_t> nodes(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    nodes[i] = (i * 5 + 2) % reference.num_targets();
    out += "{\"id\": \"r" + std::to_string(i) +
           "\", \"node\": " + std::to_string(nodes[i]) + "}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, kRequests);
  ::close(fd);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests));
  std::map<std::string, std::string> by_id = ById(lines);
  for (int i = 0; i < kRequests; ++i) {
    std::string id = "r";
    id += std::to_string(i);
    EXPECT_EQ(by_id[id], ExpectedLine(reference, id, nodes[i])) << id;
  }

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.responses, kRequests);
}

// Satellite: a delta racing a model swap. An unchanged-fingerprint reload
// keeps the session (accumulated deltas survive SIGHUP); a changed
// fingerprint swaps in a fresh session, and a delta still expecting the old
// fingerprint gets the distinct mismatch error instead of mutating the new
// model.
TEST(ModelRegistryTest, MutationOverlayAcrossReloads) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("mutation_reload.aacm");
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), path).ok());
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  ASSERT_TRUE(registry.LoadFromSpec("m=" + path, "").ok());

  std::shared_ptr<InferenceSession> session = registry.Lookup("m");
  ASSERT_NE(session, nullptr);
  Mutation delta;
  delta.kind = Mutation::Kind::kAddEdge;
  delta.edge_type = "paper-author";
  delta.src = 0;
  delta.dst = 1;
  delta.expect_fingerprint = env.frozen().fingerprint;
  ASSERT_TRUE(session->Apply(delta).ok());

  StatusOr<ModelRegistry::ReloadReport> noop = registry.Reload();
  ASSERT_TRUE(noop.ok()) << noop.status().message();
  ASSERT_EQ(noop.value().unchanged.size(), 1u);
  EXPECT_EQ(registry.Lookup("m"), session);
  EXPECT_EQ(session->mutations_applied(), 1);

  FrozenModel variant = MakeVariantFrozen(env.frozen(), 0.25f);
  ASSERT_TRUE(SaveFrozenModel(variant, path).ok());
  StatusOr<ModelRegistry::ReloadReport> swapped = registry.Reload();
  ASSERT_TRUE(swapped.ok()) << swapped.status().message();
  ASSERT_EQ(swapped.value().reloaded.size(), 1u);
  std::shared_ptr<InferenceSession> fresh = registry.Lookup("m");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, session);
  EXPECT_EQ(fresh->mutations_applied(), 0);  // old deltas went with the swap

  StatusOr<MutationResult> stale = fresh->Apply(delta);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << stale.status().message();
  delta.expect_fingerprint = variant.fingerprint;
  EXPECT_TRUE(fresh->Apply(delta).ok());
}

// ---------------------------------------------------------------------------
// Serving hardening (DESIGN.md §13): request grammar for QoS and client
// identity, structured rejections, token-bucket admission control,
// interactive-over-batch scheduling and eviction, connection hygiene, and
// chaos fault containment.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, ParsesQosAndClientKeys) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequestLine(
      "{\"id\": \"q1\", \"node\": 3, \"qos\": \"batch\", "
      "\"client\": \"alice\"}",
      &request, &error))
      << error;
  EXPECT_EQ(request.qos, QosClass::kBatch);
  EXPECT_EQ(request.client, "alice");

  ASSERT_TRUE(ParseServeRequestLine(
      "{\"id\": \"q2\", \"node\": 3, \"qos\": \"interactive\"}", &request,
      &error))
      << error;
  EXPECT_EQ(request.qos, QosClass::kInteractive);
  EXPECT_TRUE(request.client.empty());

  // Default class is interactive.
  ASSERT_TRUE(
      ParseServeRequestLine("{\"id\": \"q3\", \"node\": 3}", &request, &error))
      << error;
  EXPECT_EQ(request.qos, QosClass::kInteractive);
}

TEST(ServeProtocolTest, RejectsUnknownQosValue) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequestLine(
      "{\"id\": \"q1\", \"node\": 3, \"qos\": \"turbo\"}", &request, &error));
  EXPECT_NE(error.find("unknown \"qos\" value"), std::string::npos) << error;
  EXPECT_FALSE(ParseServeRequestLine(
      "{\"id\": \"q1\", \"node\": 3, \"qos\": 7}", &request, &error));
  EXPECT_FALSE(ParseServeRequestLine(
      "{\"id\": \"q1\", \"node\": 3, \"client\": 7}", &request, &error));
}

TEST(ServeProtocolTest, FormatServeRejectShape) {
  EXPECT_EQ(FormatServeReject("r1", "rate limited", "rate_limited", 12),
            "{\"id\":\"r1\",\"error\":\"rate limited\","
            "\"reason\":\"rate_limited\",\"retry_after_ms\":12}\n");
  // A negative retry hint omits the field entirely (idle_timeout has no
  // meaningful retry horizon).
  EXPECT_EQ(FormatServeReject("", "idle timeout", "idle_timeout", -1),
            "{\"id\":\"\",\"error\":\"idle timeout\","
            "\"reason\":\"idle_timeout\"}\n");
}

// The bucket is a pure function of (rps, burst) and the acquire timestamps:
// the same literal time sequence must always produce the same decisions and
// the same retry hints.
TEST(AdmissionTest, TokenBucketIsDeterministic) {
  TokenBucket bucket(/*rps=*/2.0, /*burst=*/4.0, /*now_us=*/0);
  int64_t retry = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(0, &retry)) << "burst token " << i;
  }
  // Drained: one token refills in 1/rps = 500ms.
  EXPECT_FALSE(bucket.TryAcquire(0, &retry));
  EXPECT_EQ(retry, 500);
  // 250ms later only half a token exists.
  EXPECT_FALSE(bucket.TryAcquire(250000, &retry));
  EXPECT_EQ(retry, 250);
  // 500ms in, exactly one token refilled; it spends, and the next acquire
  // is back to a full-token wait.
  EXPECT_TRUE(bucket.TryAcquire(500000, &retry));
  EXPECT_FALSE(bucket.TryAcquire(500000, &retry));
  EXPECT_EQ(retry, 500);
}

TEST(AdmissionTest, TokenBucketClampsRefillToBurst) {
  TokenBucket bucket(/*rps=*/100.0, /*burst=*/2.0, /*now_us=*/0);
  int64_t retry = -1;
  EXPECT_TRUE(bucket.TryAcquire(0, &retry));
  EXPECT_FALSE(bucket.AtCapacity(0));
  // An hour of idling refills to burst, not rps * 3600.
  EXPECT_DOUBLE_EQ(bucket.tokens_at(3600000000), 2.0);
  EXPECT_TRUE(bucket.AtCapacity(3600000000));
  EXPECT_TRUE(bucket.TryAcquire(3600000000, &retry));
  EXPECT_TRUE(bucket.TryAcquire(3600000000, &retry));
  EXPECT_FALSE(bucket.TryAcquire(3600000000, &retry));
}

TEST(AdmissionTest, ControllerSeparatesClientIdentities) {
  AdmissionController::Options options;
  options.rate_limit_rps = 1.0;
  options.rate_limit_burst = 1.0;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.enabled());
  int64_t retry = -1;
  EXPECT_TRUE(admission.Admit("a", 0, &retry));
  EXPECT_FALSE(admission.Admit("a", 0, &retry));
  EXPECT_EQ(retry, 1000);
  // A different identity has its own untouched bucket.
  EXPECT_TRUE(admission.Admit("b", 0, &retry));
  EXPECT_EQ(admission.num_clients(), 2);
}

TEST(AdmissionTest, DisabledControllerAlwaysAdmits) {
  AdmissionController admission(AdmissionController::Options{});
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.Admit("flood", 0, nullptr));
  }
  EXPECT_EQ(admission.num_clients(), 0);
}

// An adversary cycling client identities must not grow bucket memory
// without bound: the controller holds at most max_clients buckets,
// sweeping refilled (information-free) ones first.
TEST(AdmissionTest, ControllerBoundsDistinctClients) {
  AdmissionController::Options options;
  options.rate_limit_rps = 1.0;
  options.rate_limit_burst = 1.0;
  options.max_clients = 8;
  AdmissionController admission(options);
  for (int i = 0; i < 100; ++i) {
    admission.Admit("client-" + std::to_string(i), 0, nullptr);
  }
  EXPECT_LE(admission.num_clients(), 8);
}

// Socket-level determinism: with an injected constant clock there is no
// refill, so rps=1/burst=2 admits exactly two requests and rejects the
// rest with the exact 1000ms retry hint — regardless of scheduling.
TEST(InferenceServerTest, RateLimitingOverSocketIsDeterministic) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  options.rate_limit_rps = 1.0;
  options.rate_limit_burst = 2.0;
  options.clock = [] { return int64_t{0}; };  // frozen time: zero refill
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  std::string out;
  for (int i = 0; i < 5; ++i) {
    out += "{\"id\": \"r" + std::to_string(i) +
           "\", \"node\": " + std::to_string(i) +
           ", \"client\": \"c\"}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, 5);
  ::close(fd);
  ASSERT_EQ(lines.size(), 5u);
  std::map<std::string, std::string> by_id = ById(lines);
  int ok = 0;
  int limited = 0;
  for (const auto& [id, line] : by_id) {
    if (line.find("\"label\":") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(line.find("\"reason\":\"rate_limited\""), std::string::npos)
          << id << ": " << line;
      EXPECT_NE(line.find("\"retry_after_ms\":1000"), std::string::npos)
          << id << ": " << line;
      ++limited;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(limited, 3);
  // The first two requests hold the burst tokens; parsing is in line order
  // on one connection, so exactly r0 and r1 are the admitted ones.
  EXPECT_NE(by_id["r0"].find("\"label\":"), std::string::npos) << by_id["r0"];
  EXPECT_NE(by_id["r1"].find("\"label\":"), std::string::npos) << by_id["r1"];

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.rate_limited, 3);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.responses, 2);
}

// The "client" key is one quota spanning connections; absent, each
// connection is its own identity.
TEST(InferenceServerTest, ClientKeySharesQuotaAcrossConnections) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  options.rate_limit_rps = 1.0;
  options.rate_limit_burst = 1.0;
  options.clock = [] { return int64_t{0}; };
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int fd1 = ConnectLoopback(server.port());
  ASSERT_GE(fd1, 0);
  std::string a0 = "{\"id\": \"a0\", \"node\": 0, \"client\": \"shared\"}\n";
  ASSERT_TRUE(SendAll(fd1, a0.data(), a0.size()));
  std::vector<std::string> first = RecvLines(fd1, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NE(first[0].find("\"label\":"), std::string::npos) << first[0];

  // Same client identity on a second connection: the shared bucket is
  // drained. A request without the key falls back to the per-connection
  // identity, whose bucket is fresh.
  int fd2 = ConnectLoopback(server.port());
  ASSERT_GE(fd2, 0);
  std::string out =
      "{\"id\": \"a1\", \"node\": 1, \"client\": \"shared\"}\n"
      "{\"id\": \"a2\", \"node\": 2}\n";
  ASSERT_TRUE(SendAll(fd2, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd2, 2);
  ::close(fd1);
  ::close(fd2);
  ASSERT_EQ(lines.size(), 2u);
  std::map<std::string, std::string> by_id = ById(lines);
  EXPECT_NE(by_id["a1"].find("\"reason\":\"rate_limited\""),
            std::string::npos)
      << by_id["a1"];
  EXPECT_NE(by_id["a2"].find("\"label\":"), std::string::npos) << by_id["a2"];

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().rate_limited, 1);
}

// Under saturation, queued interactive requests drain before queued batch
// requests even when the batch requests arrived first.
TEST(InferenceServerTest, InteractiveDrainsBeforeBatchUnderSaturation) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 2;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int prime_fd = ConnectLoopback(server.port());
  ASSERT_GE(prime_fd, 0);
  std::string prime = "{\"id\": \"prime\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(prime_fd, prime.data(), prime.size()));
  gate.entered.get_future().wait();  // batcher parked mid-batch

  // Stage batch-class work ahead of interactive work in arrival order.
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out += "{\"id\": \"b" + std::to_string(i) +
           "\", \"node\": " + std::to_string(i) +
           ", \"qos\": \"batch\"}\n";
  }
  for (int i = 0; i < 2; ++i) {
    out += "{\"id\": \"i" + std::to_string(i) +
           "\", \"node\": " + std::to_string(4 + i) +
           ", \"qos\": \"interactive\"}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  // All six must be queued before the batcher resumes, or the early batch
  // arrivals would drain into the first batch unopposed.
  for (int waited = 0; waited < 200 && server.stats().requests < 7; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.stats().requests, 7);  // prime + 6 staged
  gate.release.set_value();

  std::vector<std::string> lines = RecvLines(fd, 6);
  ASSERT_EQ(RecvLines(prime_fd, 1).size(), 1u);
  ::close(fd);
  ::close(prime_fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(lines.size(), 6u);
  // Response write order follows batch assembly order: the two interactive
  // requests fill the first post-release batch despite arriving last.
  auto position = [&](const std::string& id) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find("\"id\":\"" + id + "\"") != std::string::npos) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  for (const char* interactive : {"i0", "i1"}) {
    for (const char* batch : {"b0", "b1", "b2", "b3"}) {
      EXPECT_LT(position(interactive), position(batch))
          << interactive << " drained after " << batch;
    }
  }
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"label\":"), std::string::npos) << line;
  }

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
}

// Overload policy: batch-class entries absorb eviction first (an
// interactive arrival evicts the newest queued batch request), and an
// incoming batch request sheds itself rather than displacing anything
// more important.
TEST(InferenceServerTest, BatchAbsorbsEvictionBeforeInteractive) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 8;
  options.max_queue = 3;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int prime_fd = ConnectLoopback(server.port());
  ASSERT_GE(prime_fd, 0);
  std::string prime = "{\"id\": \"prime\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(prime_fd, prime.data(), prime.size()));
  gate.entered.get_future().wait();

  // Queue fills to [i0, b0, b1]; then an interactive arrival evicts the
  // newest batch entry (b1), and a batch arrival sheds itself (b2).
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out =
      "{\"id\": \"i0\", \"node\": 0, \"qos\": \"interactive\"}\n"
      "{\"id\": \"b0\", \"node\": 1, \"qos\": \"batch\"}\n"
      "{\"id\": \"b1\", \"node\": 2, \"qos\": \"batch\"}\n"
      "{\"id\": \"i1\", \"node\": 3, \"qos\": \"interactive\"}\n"
      "{\"id\": \"b2\", \"node\": 4, \"qos\": \"batch\"}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  // The two overload rejections are written by the reader while the
  // batcher is still parked — queue state is fully staged, deterministic.
  std::vector<std::string> rejects = RecvLines(fd, 2);
  ASSERT_EQ(rejects.size(), 2u);
  gate.release.set_value();

  std::vector<std::string> answers = RecvLines(fd, 3);
  ASSERT_EQ(RecvLines(prime_fd, 1).size(), 1u);
  ::close(fd);
  ::close(prime_fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(answers.size(), 3u);

  std::map<std::string, std::string> by_id = ById(rejects);
  for (const char* victim : {"b1", "b2"}) {
    ASSERT_NE(by_id.find(victim), by_id.end())
        << victim << " was not the evicted request";
    EXPECT_NE(by_id[victim].find("\"reason\":\"overloaded\""),
              std::string::npos)
        << by_id[victim];
    EXPECT_NE(by_id[victim].find("\"retry_after_ms\":"), std::string::npos)
        << by_id[victim];
  }
  by_id = ById(answers);
  for (const char* survivor : {"i0", "i1", "b0"}) {
    ASSERT_NE(by_id.find(survivor), by_id.end()) << survivor << " was lost";
    EXPECT_NE(by_id[survivor].find("\"label\":"), std::string::npos)
        << by_id[survivor];
  }

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().shed, 2);
  // prime + five arrivals, b2 included although it was shed on arrival.
  EXPECT_EQ(server.stats().requests, 6);
}

// A full queue of interactive work never yields to an incoming batch
// request: the batch request itself is shed.
TEST(InferenceServerTest, IncomingBatchNeverDisplacesQueuedInteractive) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 8;
  options.max_queue = 2;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int prime_fd = ConnectLoopback(server.port());
  ASSERT_GE(prime_fd, 0);
  std::string prime = "{\"id\": \"prime\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(prime_fd, prime.data(), prime.size()));
  gate.entered.get_future().wait();

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out =
      "{\"id\": \"i0\", \"node\": 0}\n"
      "{\"id\": \"i1\", \"node\": 1}\n"
      "{\"id\": \"b0\", \"node\": 2, \"qos\": \"batch\"}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> reject = RecvLines(fd, 1);
  ASSERT_EQ(reject.size(), 1u);
  EXPECT_NE(reject[0].find("\"id\":\"b0\""), std::string::npos) << reject[0];
  EXPECT_NE(reject[0].find("\"reason\":\"overloaded\""), std::string::npos)
      << reject[0];
  gate.release.set_value();

  std::vector<std::string> answers = RecvLines(fd, 2);
  ASSERT_EQ(RecvLines(prime_fd, 1).size(), 1u);
  ::close(fd);
  ::close(prime_fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(answers.size(), 2u);
  std::map<std::string, std::string> by_id = ById(answers);
  EXPECT_NE(by_id["i0"].find("\"label\":"), std::string::npos) << by_id["i0"];
  EXPECT_NE(by_id["i1"].find("\"label\":"), std::string::npos) << by_id["i1"];

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().shed, 1);
  EXPECT_EQ(server.stats().requests, 4);  // prime, i0, i1 and the shed b0
}

// The per-connection in-flight cap rejects the overflow request on the
// flooding connection with a structured inflight_limit rejection; the
// capped requests still complete.
TEST(InferenceServerTest, InflightCapRejectsPerConnection) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 8;
  options.max_inflight_per_conn = 2;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int prime_fd = ConnectLoopback(server.port());
  ASSERT_GE(prime_fd, 0);
  std::string prime = "{\"id\": \"prime\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(prime_fd, prime.data(), prime.size()));
  gate.entered.get_future().wait();

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out =
      "{\"id\": \"r0\", \"node\": 0}\n"
      "{\"id\": \"r1\", \"node\": 1}\n"
      "{\"id\": \"r2\", \"node\": 2}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> reject = RecvLines(fd, 1);
  ASSERT_EQ(reject.size(), 1u);
  EXPECT_NE(reject[0].find("\"id\":\"r2\""), std::string::npos) << reject[0];
  EXPECT_NE(reject[0].find("\"reason\":\"inflight_limit\""),
            std::string::npos)
      << reject[0];
  EXPECT_NE(reject[0].find("\"retry_after_ms\":"), std::string::npos)
      << reject[0];
  gate.release.set_value();

  std::vector<std::string> answers = RecvLines(fd, 2);
  ASSERT_EQ(RecvLines(prime_fd, 1).size(), 1u);
  ::close(fd);
  ::close(prime_fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(answers.size(), 2u);
  std::map<std::string, std::string> by_id = ById(answers);
  EXPECT_NE(by_id["r0"].find("\"label\":"), std::string::npos) << by_id["r0"];
  EXPECT_NE(by_id["r1"].find("\"label\":"), std::string::npos) << by_id["r1"];

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().inflight_rejected, 1);
}

// Slow-loris defense: a connection that never sends anything is answered
// with a structured idle_timeout rejection and closed.
TEST(InferenceServerTest, IdleConnectionsAreReaped) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.idle_timeout_ms = 120;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  // Send nothing. The reaper must answer and hang up on its own.
  std::vector<std::string> lines = RecvLines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"reason\":\"idle_timeout\""), std::string::npos)
      << lines[0];
  // The server closes its side after the rejection.
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().idle_closed, 1);
}

// An active connection survives idle reaping as long as it keeps talking.
TEST(InferenceServerTest, ActiveConnectionOutlivesIdleTimeout) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.idle_timeout_ms = 150;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 4; ++i) {
    std::string line =
        "{\"id\": \"k" + std::to_string(i) + "\", \"node\": 0}\n";
    ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
    ASSERT_EQ(RecvLines(fd, 1).size(), 1u) << "request " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  ::close(fd);
  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().idle_closed, 0);
  EXPECT_EQ(server.stats().responses, 4);
}

// The accept gate refuses connections beyond max_conns with a structured
// refusal instead of letting them queue invisibly; a freed slot admits new
// connections again.
TEST(InferenceServerTest, MaxConnsRefusesThenRecovers) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_conns = 1;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  // Occupy the only slot and prove it serves.
  int fd1 = ConnectLoopback(server.port());
  ASSERT_GE(fd1, 0);
  std::string line = "{\"id\": \"r0\", \"node\": 0}\n";
  ASSERT_TRUE(SendAll(fd1, line.data(), line.size()));
  ASSERT_EQ(RecvLines(fd1, 1).size(), 1u);

  int fd2 = ConnectLoopback(server.port());
  ASSERT_GE(fd2, 0);
  std::vector<std::string> refusal = RecvLines(fd2, 1);
  ::close(fd2);
  ASSERT_EQ(refusal.size(), 1u);
  EXPECT_NE(refusal[0].find("\"reason\":\"max_conns\""), std::string::npos)
      << refusal[0];
  EXPECT_NE(refusal[0].find("\"retry_after_ms\":"), std::string::npos)
      << refusal[0];

  // Free the slot; the reader prunes the dead connection within its poll
  // interval and new connections are admitted again.
  ::close(fd1);
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    int fd3 = ConnectLoopback(server.port());
    ASSERT_GE(fd3, 0);
    ASSERT_TRUE(SendAll(fd3, line.data(), line.size()));
    std::vector<std::string> got = RecvLines(fd3, 1);
    ::close(fd3);
    ASSERT_EQ(got.size(), 1u);
    if (got[0].find("\"label\":") != std::string::npos) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(recovered);

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_GE(server.stats().conns_refused, 1);
}

// ---------------------------------------------------------------------------
// Chaos containment: each soft fault site fires under traffic and the
// failure stays contained — every well-formed request is answered, fds
// settle back to baseline, and the trigger count is visible in stats.
// ---------------------------------------------------------------------------

/// Runs `requests` predictions against a default-model server with `spec`
/// armed and asserts every response arrives well-formed, fds settle, and
/// the fault actually fired.
void RunChaosTraffic(const std::string& spec, int requests,
                     const std::function<void(ServerOptions*)>& tweak =
                         nullptr) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  if (tweak) tweak(&options);
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  // Baseline after a warm-up connection so one-time allocations settle.
  {
    int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string line = "{\"id\": \"warm\", \"node\": 0}\n";
    ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
    ASSERT_EQ(RecvLines(fd, 1).size(), 1u);
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);

  int64_t triggers_before = FaultTriggersObserved();
  SetFaultSpecForTest(spec);
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out;
  for (int i = 0; i < requests; ++i) {
    out += "{\"id\": \"c" + std::to_string(i) +
           "\", \"node\": " + std::to_string(i % 8) + "}\n";
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, static_cast<size_t>(requests));
  ::close(fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(lines.size(), static_cast<size_t>(requests))
      << "dropped responses under " << spec;
  std::map<std::string, std::string> by_id = ById(lines);
  for (int i = 0; i < requests; ++i) {
    const std::string& line = by_id["c" + std::to_string(i)];
    EXPECT_NE(line.find("\"label\":"), std::string::npos)
        << "c" << i << " under " << spec << ": " << line;
  }
  EXPECT_GT(FaultTriggersObserved(), triggers_before)
      << spec << " never fired";
  EXPECT_GT(server.stats().faults_injected, triggers_before);

  // The chaos connection's fds are reaped like any other.
  int settled = -1;
  for (int waited = 0; waited < 100; ++waited) {
    settled = CountOpenFds();
    if (settled <= baseline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_LE(settled, baseline) << "fds leaked under " << spec;

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
}

TEST(ChaosTest, PartialWritesAreRetriedToCompletion) {
  // Every send() truncated to one byte: responses must still arrive whole.
  RunChaosTraffic("serve_partial_write:*", 6);
}

TEST(ChaosTest, TornReadsReassembleAcrossIngestPasses) {
  RunChaosTraffic("serve_torn_read:*", 6);
}

TEST(ChaosTest, DelayedAcceptsStillServe) {
  RunChaosTraffic("serve_delayed_accept:*", 4);
}

TEST(ChaosTest, MidBatchReloadKeepsPinnedSessionsServing) {
  std::atomic<int> reloads{0};
  RunChaosTraffic("serve_mid_batch_reload:*", 6, [&](ServerOptions* options) {
    options->chaos_reload_hook = [&reloads] { ++reloads; };
  });
  EXPECT_GT(reloads.load(), 0);
}

// A validated mutation that fails to apply is a structured fault_injected
// rejection; the server keeps serving and counters stay consistent
// (nothing applied, no dirty rows from the failed delta).
TEST(ChaosTest, MutationApplyFaultIsContained) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  ServerOptions options;
  options.tcp_port = 0;
  options.max_batch = 4;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  SetFaultSpecForTest("serve_mutation_apply:0");

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out =
      "{\"id\": \"m0\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 0}\n"
      "{\"id\": \"m1\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 1}\n";
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::vector<std::string> lines = RecvLines(fd, 2);
  ::close(fd);
  SetFaultSpecForTest("");
  ASSERT_EQ(lines.size(), 2u);
  std::map<std::string, std::string> by_id = ById(lines);
  // Hit 0 is the first mutation dispatched; FIFO on one connection.
  EXPECT_NE(by_id["m0"].find("\"reason\":\"fault_injected\""),
            std::string::npos)
      << by_id["m0"];
  EXPECT_NE(by_id["m1"].find("\"applied\":\"add_edge\""), std::string::npos)
      << by_id["m1"];

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  ExpectRequestsAddUp(stats);
  EXPECT_EQ(stats.mutations_applied, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_GT(stats.faults_injected, 0);
}

// ---------------------------------------------------------------------------
// The writer thread (DESIGN.md §10): the batcher hands every delta, and
// every later request of the delta's connection, to one writer thread that
// applies, publishes, then acks; every other read answers from the last
// published version at once.
// ---------------------------------------------------------------------------

/// "<prefix><i>", a request id.
std::string NumberedId(const char* prefix, size_t i) {
  std::string id = prefix;
  id += std::to_string(i);
  return id;
}

/// Value of the integer field `key` in a response line; -1 when absent.
int64_t IntField(const std::string& line, const std::string& key) {
  const std::string token = "\"" + key + "\":";
  size_t at = line.find(token);
  if (at == std::string::npos) return -1;
  return std::stoll(line.substr(at + token.size()));
}

/// A request line for a paper-author edge or a new author.
std::string DeltaLine(const std::string& id, const Mutation& m) {
  if (m.kind == Mutation::Kind::kAddNode) {
    return "{\"id\": \"" + id + "\", \"op\": \"add_node\", \"type\": \"" +
           m.node_type + "\"}\n";
  }
  return "{\"id\": \"" + id + "\", \"op\": \"add_edge\", \"edge\": \"" +
         m.edge_type + "\", \"src\": " + std::to_string(m.src) +
         ", \"dst\": " + std::to_string(m.dst) + "}\n";
}

std::string ReadLine(const std::string& id, int64_t node) {
  return "{\"id\": \"" + id + "\", \"node\": " + std::to_string(node) + "}\n";
}

Mutation PaperAuthorEdge(int64_t paper, int64_t author) {
  Mutation m;
  m.kind = Mutation::Kind::kAddEdge;
  m.edge_type = "paper-author";
  m.src = paper;
  m.dst = author;
  return m;
}

/// The reference answers for `probes` after every prefix of `deltas`
/// (entry k: after the first k deltas), each from a full re-export of a
/// plain replica of the frozen graph — the incremental machinery plays no
/// part in them.
std::vector<std::vector<InferenceSession::Prediction>> ReferenceVersions(
    const FrozenModel& frozen, const std::vector<Mutation>& deltas,
    const std::vector<int64_t>& probes) {
  MutableGraph replica(frozen.graph);
  std::vector<std::vector<InferenceSession::Prediction>> versions;
  for (size_t k = 0; k <= deltas.size(); ++k) {
    if (k > 0) {
      const Mutation& m = deltas[k - 1];
      if (m.kind == Mutation::Kind::kAddNode) {
        StatusOr<int64_t> type = replica.NodeTypeIdOf(m.node_type);
        AUTOAC_CHECK(type.ok() && replica.AddNode(type.value(), {}).ok());
      } else {
        StatusOr<int64_t> type = replica.EdgeTypeIdOf(m.edge_type);
        AUTOAC_CHECK(type.ok() &&
                     replica.AddEdge(type.value(), m.src, m.dst).ok());
      }
    }
    const HeteroGraphPtr& mutated = replica.Compact();
    Tensor logits;
    StatusOr<FrozenModel> refrozen = RefreezeWithGraph(
        frozen, mutated, ExtendOpAssignment(frozen, *mutated), &logits);
    AUTOAC_CHECK(refrozen.ok()) << refrozen.status().message();
    const int64_t offset =
        mutated->node_type(mutated->target_node_type()).offset;
    std::vector<InferenceSession::Prediction> answers;
    for (int64_t node : probes) {
      answers.push_back(InferenceSession::ArgmaxRow(
          node, logits.data() + (offset + node) * logits.cols(),
          logits.cols()));
    }
    versions.push_back(std::move(answers));
  }
  return versions;
}

/// The response line (latency stripped) answering `id` with `p`.
std::string AnswerLine(const std::string& id,
                       const InferenceSession::Prediction& p) {
  std::string line = FormatServeResponse(id, p, 0);
  line.pop_back();
  return StripLatency(line);
}

/// Polls the server's stats until `done` holds (up to ~10 s).
bool WaitForStats(const InferenceServer& server,
                  const std::function<bool(const ServeStats&)>& done) {
  for (int waited = 0; waited < 2000; ++waited) {
    if (done(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done(server.stats());
}

/// A chaos hook whose n-th call parks on the n-th gate (later calls pass
/// through), so one hook can hold the writer and the batcher still in a
/// scripted order.
struct GateSequence {
  explicit GateSequence(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      gates.push_back(std::make_unique<BatcherGate>());
    }
  }
  std::function<void()> Hook() {
    return [this] {
      size_t i = calls++;
      if (i < gates.size()) gates[i]->Hook()();
    };
  }
  std::vector<std::unique_ptr<BatcherGate>> gates;
  std::atomic<size_t> calls{0};
};

// Parked writer: while the writer is held just before it applies a delta
// (chaos site serve_mid_delta_reload), another connection's reads are
// answered from the version before the delta. A read sent after the delta
// on the delta's own connection is not answered before the ack, and then
// answers from the version after it; so does a fresh connection.
TEST(WriterThreadTest, ParkedWriterLeavesReadsOnThePublishedVersion) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_delta_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  const Mutation delta = PaperAuthorEdge(0, 1);
  const std::vector<int64_t> probes = {0, 1, 2, 3};
  const std::vector<std::vector<InferenceSession::Prediction>> versions =
      ReferenceVersions(env.frozen(), {delta}, probes);
  // The delta moves a probed answer, so the two versions are told apart.
  EXPECT_NE(AnswerLine("x", versions[0][1]), AnswerLine("x", versions[1][1]));

  int writes = ConnectLoopback(server.port());
  ASSERT_GE(writes, 0);
  std::string out = DeltaLine("m0", delta) + ReadLine("own", 1);
  ASSERT_TRUE(SendAll(writes, out.data(), out.size()));
  gate.entered.get_future().wait();

  int reads = ConnectLoopback(server.port());
  ASSERT_GE(reads, 0);
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::string id = NumberedId("pre", i);
    std::string line = ReadLine(id, probes[i]);
    ASSERT_TRUE(SendAll(reads, line.data(), line.size()));
    std::vector<std::string> answer = RecvLines(reads, 1);
    ASSERT_EQ(answer.size(), 1u);
    EXPECT_EQ(StripLatency(answer[0]), AnswerLine(id, versions[0][i])) << id;
  }
  // The batcher has taken the own-connection read (m0, own and the four
  // reads above), yet nothing has arrived on that connection: the read
  // waits behind its own delta.
  ASSERT_TRUE(WaitForStats(server, [&](const ServeStats& s) {
    return s.batched_requests == 2 + static_cast<int64_t>(probes.size());
  }));
  pollfd pfd{writes, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, /*timeout_ms=*/100), 0);
  gate.release.set_value();
  std::vector<std::string> acked = RecvLines(writes, 2);
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_NE(acked[0].find("\"id\":\"m0\",\"applied\":\"add_edge\""),
            std::string::npos)
      << acked[0];
  EXPECT_EQ(StripLatency(acked[1]), AnswerLine("own", versions[1][1]));

  int fresh = ConnectLoopback(server.port());
  ASSERT_GE(fresh, 0);
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::string id = NumberedId("post", i);
    std::string line = ReadLine(id, probes[i]);
    ASSERT_TRUE(SendAll(fresh, line.data(), line.size()));
    std::vector<std::string> answer = RecvLines(fresh, 1);
    ASSERT_EQ(answer.size(), 1u);
    EXPECT_EQ(StripLatency(answer[0]), AnswerLine(id, versions[1][i])) << id;
  }
  ::close(writes);
  ::close(reads);
  ::close(fresh);
  SetFaultSpecForTest("");
  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.mutations_applied, 1);
  EXPECT_EQ(stats.responses, 2 + 2 * static_cast<int64_t>(probes.size()));
  ExpectRequestsAddUp(stats);
}

// Version window: deltas streamed one at a time on one connection while
// another reads continuously. Every read equals the from-scratch reference
// of some version k between the acks received before it was sent and the
// deltas sent before its answer arrived — a read never sees a half-applied
// delta, never goes back to an older version than one already acked, and
// never sees a delta that was not yet sent.
TEST(WriterThreadTest, EveryReadAnswersFromAVersionInsideItsWindow) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  auto session = std::make_shared<InferenceSession>(env.frozen());
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default", session);
  ServerOptions options;
  options.tcp_port = 0;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  const HeteroGraph& graph = *env.frozen().graph;
  const int64_t papers = graph.node_type(NodeTypeIdOrDie(graph, "paper")).count;
  const int64_t authors =
      graph.node_type(NodeTypeIdOrDie(graph, "author")).count;
  // Reads probe the authors the edges land on, so most deltas move some
  // probed answer.
  std::vector<Mutation> deltas;
  std::vector<int64_t> probes;
  for (int64_t i = 0; i < 21; ++i) {
    if (i % 3 == 2) {
      Mutation m;
      m.kind = Mutation::Kind::kAddNode;
      m.node_type = "author";
      deltas.push_back(m);
    } else {
      deltas.push_back(PaperAuthorEdge((i * 37) % papers, (i * 11) % authors));
      probes.push_back(deltas.back().dst);
    }
  }

  struct Read {
    size_t probe = 0;
    int64_t min_version = 0;  // acks received before it was sent
    int64_t max_version = 0;  // deltas sent before its answer arrived
    std::string line;
  };
  std::atomic<int64_t> sent{0};
  std::atomic<int64_t> acked{0};
  std::atomic<bool> done{false};
  std::vector<Read> reads;
  std::thread reader([&] {
    int fd = ConnectLoopback(server.port());
    if (fd < 0) return;
    for (size_t i = 0; !done.load(); ++i) {
      Read r;
      r.probe = i % probes.size();
      r.min_version = acked.load();
      std::string line = ReadLine(NumberedId("q", i), probes[r.probe]);
      if (!SendAll(fd, line.data(), line.size())) break;
      std::vector<std::string> answer = RecvLines(fd, 1);
      if (answer.size() != 1) break;
      r.max_version = sent.load();
      r.line = StripLatency(answer[0]);
      reads.push_back(std::move(r));
    }
    ::close(fd);
  });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  for (size_t k = 0; k < deltas.size(); ++k) {
    std::string line = DeltaLine(NumberedId("m", k), deltas[k]);
    sent.fetch_add(1);  // counted before it can possibly be applied
    ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
    std::vector<std::string> ack = RecvLines(fd, 1);
    ASSERT_EQ(ack.size(), 1u);
    ASSERT_NE(ack[0].find("\"applied\":"), std::string::npos) << ack[0];
    acked.fetch_add(1);
  }
  done.store(true);
  reader.join();
  ::close(fd);
  server.Stop();
  serving.join();

  // Both flush paths ran: add_node recomputes its ball, an edge into the
  // DBLP hubs refreezes in full.
  EXPECT_GT(session->partial_recomputes(), 0);
  EXPECT_GT(session->full_recomputes(), 0);
  const std::vector<std::vector<InferenceSession::Prediction>> versions =
      ReferenceVersions(env.frozen(), deltas, probes);
  ASSERT_FALSE(reads.empty());
  for (size_t i = 0; i < reads.size(); ++i) {
    const Read& r = reads[i];
    bool matched = false;
    for (int64_t k = r.min_version; k <= r.max_version && !matched; ++k) {
      matched = r.line == AnswerLine(NumberedId("q", i), versions[k][r.probe]);
    }
    EXPECT_TRUE(matched) << r.line << " matches no version in ["
                         << r.min_version << ", " << r.max_version << "]";
  }
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.mutations_applied, static_cast<int64_t>(deltas.size()));
  EXPECT_EQ(stats.responses,
            static_cast<int64_t>(deltas.size() + reads.size()));
  ExpectRequestsAddUp(stats);
}

// Bound: a delta handed to a full writer FIFO (max_queue entries) is shed
// as overloaded with the writer's last ack latency as its retry hint,
// while a read shed from the batcher's full queue keeps the hint of the
// batcher's last answer.
TEST(WriterThreadTest, FullWriterFifoShedsDeltasWithTheWriterHint) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  GateSequence hook(3);
  ServerOptions options;
  options.tcp_port = 0;
  options.max_queue = 1;
  options.chaos_reload_hook = hook.Hook();
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int writes = ConnectLoopback(server.port());
  int reads = ConnectLoopback(server.port());
  ASSERT_GE(writes, 0);
  ASSERT_GE(reads, 0);
  auto send = [](int fd, const std::string& line) {
    return SendAll(fd, line.data(), line.size());
  };

  // A slow ack (the writer parked for 100 ms) and a fast read set the two
  // hints apart.
  SetFaultSpecForTest("serve_mid_delta_reload:0");
  ASSERT_TRUE(send(writes, DeltaLine("d0", PaperAuthorEdge(0, 1))));
  hook.gates[0]->entered.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  hook.gates[0]->release.set_value();
  std::vector<std::string> ack = RecvLines(writes, 1);
  ASSERT_EQ(ack.size(), 1u);
  const int64_t writer_hint = (IntField(ack[0], "latency_us") + 999) / 1000;
  ASSERT_TRUE(send(reads, ReadLine("r0", 0)));
  std::vector<std::string> answer = RecvLines(reads, 1);
  ASSERT_EQ(answer.size(), 1u);
  const int64_t read_hint = std::max<int64_t>(
      1, (IntField(answer[0], "latency_us") + 999) / 1000);
  ASSERT_GE(writer_hint, 100);
  ASSERT_LT(read_hint, writer_hint);

  // The writer parks on d1; d2 fills the one-entry FIFO; d3 is shed.
  SetFaultSpecForTest("serve_mid_delta_reload:0");
  ASSERT_TRUE(send(writes, DeltaLine("d1", PaperAuthorEdge(2, 3))));
  hook.gates[1]->entered.get_future().wait();
  ASSERT_TRUE(send(writes, DeltaLine("d2", PaperAuthorEdge(4, 5))));
  ASSERT_TRUE(WaitForStats(
      server, [](const ServeStats& s) { return s.batched_requests == 4; }));
  ASSERT_TRUE(send(writes, DeltaLine("d3", PaperAuthorEdge(6, 7))));
  std::vector<std::string> shed = RecvLines(writes, 1);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_NE(shed[0].find("\"id\":\"d3\""), std::string::npos) << shed[0];
  EXPECT_NE(shed[0].find("\"reason\":\"overloaded\""), std::string::npos)
      << shed[0];
  EXPECT_EQ(IntField(shed[0], "retry_after_ms"), writer_hint) << shed[0];

  // The batcher parks on r1; r2 fills its one-entry queue; r3 is shed with
  // the hint of the batcher's last answer (r0's).
  SetFaultSpecForTest("serve_mid_batch_reload:0");
  ASSERT_TRUE(send(reads, ReadLine("r1", 1)));
  hook.gates[2]->entered.get_future().wait();
  ASSERT_TRUE(send(reads, ReadLine("r2", 2) + ReadLine("r3", 3)));
  std::vector<std::string> read_shed = RecvLines(reads, 1);
  ASSERT_EQ(read_shed.size(), 1u);
  EXPECT_NE(read_shed[0].find("\"id\":\"r3\""), std::string::npos)
      << read_shed[0];
  EXPECT_EQ(IntField(read_shed[0], "retry_after_ms"), read_hint)
      << read_shed[0];

  hook.gates[2]->release.set_value();
  EXPECT_EQ(RecvLines(reads, 2).size(), 2u);  // r1, r2
  hook.gates[1]->release.set_value();
  std::map<std::string, std::string> acks = ById(RecvLines(writes, 2));
  EXPECT_NE(acks["d1"].find("\"applied\":"), std::string::npos) << acks["d1"];
  EXPECT_NE(acks["d2"].find("\"applied\":"), std::string::npos) << acks["d2"];
  ::close(writes);
  ::close(reads);
  SetFaultSpecForTest("");
  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.mutations_applied, 3);
  ExpectRequestsAddUp(stats);
}

// Deadline: a delta whose deadline expires while it waits for the writer is
// answered "deadline exceeded" and never applied.
TEST(WriterThreadTest, DeltaExpiredAtTheWriterIsNotApplied) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  auto session = std::make_shared<InferenceSession>(env.frozen());
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default", session);
  BatcherGate gate;
  ServerOptions options;
  options.tcp_port = 0;
  options.chaos_reload_hook = gate.Hook();
  SetFaultSpecForTest("serve_mid_delta_reload:0");
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  std::string first = DeltaLine("d0", PaperAuthorEdge(0, 1));
  ASSERT_TRUE(SendAll(fd, first.data(), first.size()));
  gate.entered.get_future().wait();
  std::string late =
      "{\"id\": \"d1\", \"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 2, \"dst\": 3, \"deadline_ms\": 500}\n";
  ASSERT_TRUE(SendAll(fd, late.data(), late.size()));
  // Taken by the batcher in time (handed to the writer, not expired).
  ASSERT_TRUE(WaitForStats(
      server, [](const ServeStats& s) { return s.batched_requests == 2; }));
  EXPECT_EQ(server.stats().deadline_expired, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  gate.release.set_value();
  std::map<std::string, std::string> by_id = ById(RecvLines(fd, 2));
  ::close(fd);
  SetFaultSpecForTest("");
  EXPECT_NE(by_id["d0"].find("\"applied\":\"add_edge\""), std::string::npos)
      << by_id["d0"];
  EXPECT_NE(by_id["d1"].find("\"error\":\"deadline exceeded\""),
            std::string::npos)
      << by_id["d1"];
  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.mutations_applied, 1);
  EXPECT_EQ(session->mutations_applied(), 1);
  ExpectRequestsAddUp(stats);
}

// A real hot reload racing every delta (serve_mid_delta_reload:*): the
// artifact is unchanged, so the reload keeps the session, and every delta
// still applies to the session it pinned; the answers after them are the
// from-scratch reference's.
TEST(ChaosTest, MidDeltaReloadKeepsDeltasApplying) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("mid_delta_reload.aacm");
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), path).ok());
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  ASSERT_TRUE(registry.LoadFromSpec("default=" + path, "").ok());
  std::atomic<int> reloads{0};
  ServerOptions options;
  options.tcp_port = 0;
  options.chaos_reload_hook = [&] {
    if (registry.Reload().ok()) ++reloads;
  };
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  SetFaultSpecForTest("serve_mid_delta_reload:*");

  const std::vector<Mutation> deltas = {
      PaperAuthorEdge(0, 1), PaperAuthorEdge(2, 1), PaperAuthorEdge(3, 4)};
  const std::vector<int64_t> probes = {1, 4};
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string out;
  for (size_t k = 0; k < deltas.size(); ++k) {
    out += DeltaLine(NumberedId("m", k), deltas[k]);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    out += ReadLine(NumberedId("r", i), probes[i]);
  }
  ASSERT_TRUE(SendAll(fd, out.data(), out.size()));
  std::map<std::string, std::string> by_id =
      ById(RecvLines(fd, deltas.size() + probes.size()));
  ::close(fd);
  SetFaultSpecForTest("");
  const std::vector<std::vector<InferenceSession::Prediction>> versions =
      ReferenceVersions(env.frozen(), deltas, probes);
  for (size_t k = 0; k < deltas.size(); ++k) {
    const std::string id = NumberedId("m", k);
    EXPECT_NE(by_id[id].find("\"applied\":"), std::string::npos) << by_id[id];
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::string id = NumberedId("r", i);
    EXPECT_EQ(by_id[id], AnswerLine(id, versions.back()[i])) << id;
  }
  EXPECT_EQ(reloads.load(), static_cast<int>(deltas.size()));

  server.Stop();
  serving.join();
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.mutations_applied, static_cast<int64_t>(deltas.size()));
  EXPECT_GT(stats.faults_injected, 0);
  ExpectRequestsAddUp(stats);
  std::remove(path.c_str());
}

// A failed hot reload, of a corrupt or of a drifted artifact, must leave
// the old serving set untouched — same predictions before and after — and
// be visible as reload_failures.
TEST(InferenceServerTest, FailedReloadKeepsOldRegistryServing) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  std::string path = TempPath("failed_reload.aacm");
  ASSERT_TRUE(SaveFrozenModel(env.frozen(), path).ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadFromSpec("m=" + path, "").ok());
  ServerOptions options;
  options.tcp_port = 0;
  InferenceServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  std::string line = "{\"id\": \"r0\", \"node\": 0, \"model\": \"m\"}\n";
  ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
  std::vector<std::string> before = RecvLines(fd, 1);
  ASSERT_EQ(before.size(), 1u);
  ASSERT_NE(before[0].find("\"label\":"), std::string::npos) << before[0];

  // Corrupt the artifact on disk; the reload must fail all-or-nothing.
  {
    std::ofstream corrupt(path, std::ios::binary | std::ios::trunc);
    corrupt << "not a frozen model";
  }
  StatusOr<ModelRegistry::ReloadReport> reload = registry.Reload();
  ASSERT_FALSE(reload.ok());
  server.NoteReloadFailure();

  // A drifted artifact passes the CRC and the fingerprint; its weight does
  // not fit the rebuilt model, so the session build refuses it.
  SaveDrifted(WithGrownWeight(env.frozen()), path);
  reload = registry.Reload();
  ASSERT_FALSE(reload.ok());
  EXPECT_NE(reload.status().message().find("model_params"),
            std::string::npos)
      << reload.status().message();
  server.NoteReloadFailure();

  ASSERT_TRUE(SendAll(fd, line.data(), line.size()));
  std::vector<std::string> after = RecvLines(fd, 1);
  ::close(fd);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(StripLatency(after[0]), StripLatency(before[0]));

  server.Stop();
  serving.join();
  ExpectRequestsAddUp(server.stats());
  EXPECT_EQ(server.stats().reload_failures, 2);
}

// Satellite: malformed mutation-feed lines are skipped and counted with
// 1-indexed line numbers — replay never aborts.
TEST(FeedReplayTest, SkipsAndCountsMalformedLines) {
  const ServingEnvironment& env = ServingEnvironment::Get();
  ModelRegistry registry;
  registry.set_mutations_enabled(true);
  registry.Register("default",
                    std::make_shared<InferenceSession>(env.frozen()));
  std::vector<std::string> lines = {
      "{\"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 1}",                                  // applied
      "{nope",                                                    // malformed
      "{\"node\": 0}",                                            // prediction
      "{\"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 0, \"dst\": 1, \"model\": \"ghost\"}",            // no model
      "{\"op\": \"add_node\", \"type\": \"gizmo\"}",              // bad apply
      "{\"op\": \"add_edge\", \"edge\": \"paper-author\", "
      "\"src\": 2, \"dst\": 3}",                                  // applied
  };
  FeedReplayReport report = ReplayMutationFeed(&registry, lines);
  EXPECT_EQ(report.applied, 2);
  EXPECT_EQ(report.skipped, 4);
  EXPECT_GT(report.dirty_rows, 0);
  ASSERT_EQ(report.errors.size(), 4u);
  EXPECT_EQ(report.errors[0].rfind("line 2:", 0), 0u) << report.errors[0];
  EXPECT_EQ(report.errors[1].rfind("line 3:", 0), 0u) << report.errors[1];
  EXPECT_NE(report.errors[1].find("not a mutation"), std::string::npos)
      << report.errors[1];
  EXPECT_EQ(report.errors[2].rfind("line 4:", 0), 0u) << report.errors[2];
  EXPECT_NE(report.errors[2].find("unknown model"), std::string::npos)
      << report.errors[2];
  EXPECT_EQ(report.errors[3].rfind("line 5:", 0), 0u) << report.errors[3];
}

TEST(FeedReplayTest, ErrorListIsBoundedButCountsAreNot) {
  ModelRegistry registry;  // empty: every mutation hits "unknown model"
  std::vector<std::string> lines(
      FeedReplayReport::kMaxErrors + 8,
      "{\"op\": \"add_edge\", \"edge\": \"e\", \"src\": 0, \"dst\": 0}");
  FeedReplayReport report = ReplayMutationFeed(&registry, lines);
  EXPECT_EQ(report.applied, 0);
  EXPECT_EQ(report.skipped,
            static_cast<int64_t>(FeedReplayReport::kMaxErrors) + 8);
  EXPECT_EQ(static_cast<int64_t>(report.errors.size()),
            FeedReplayReport::kMaxErrors);
}

}  // namespace
}  // namespace autoac

// Serving and compiler probes of autoac_bench (traced runs only): the
// library calls behind one served request and one applied delta, timed
// in-process on the workload's exported artifact. This is the only file of
// autoac_bench that includes the serving session headers, so the end-to-end
// measurement itself goes through the deployed binary and the wire
// protocol alone.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "serving/frozen_model.h"
#include "serving/inference_session.h"
#include "serving/mutable_session.h"
#include "serving/server.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace autoac::bench {
namespace {

constexpr int kLoadRepeats = 3;
constexpr int kCodecBatches = 20;
constexpr int kCodecBatchSize = 1000;
constexpr int kPredictRepeats = 2000;
constexpr int64_t kPredictRows = 16;  // the served max_batch
constexpr int kRecomputeRepeats = 5;
constexpr int kEdgeDeltas = 20;  // 2:1 add_edge : add_node, as served
constexpr int kNodeDeltas = 10;

}  // namespace

int RunServingProbesChild(const ChildArgs& args) {
  const Workload& w = *args.workload;
  SetNumThreads(kServeThreads);

  std::vector<double> load_ms, build_ms;
  std::shared_ptr<InferenceSession> session;
  for (int k = 0; k < kLoadRepeats; ++k) {
    WallTimer load;
    StatusOr<FrozenModel> frozen = LoadFrozenModel(args.artifact);
    if (!frozen.ok()) {
      std::fprintf(stderr, "error: %s\n", frozen.status().message().c_str());
      return 1;
    }
    load_ms.push_back(load.Millis());
    WallTimer build;
    session = std::make_shared<InferenceSession>(frozen.TakeValue());
    build_ms.push_back(build.Millis());
  }
  PrintKv("serving.load_artifact_ms", Median(load_ms));
  PrintKv("serving.session_build_ms", Median(build_ms));

  Rng rng(args.seed);
  const int64_t targets = session->num_targets();
  std::vector<double> parse_ns, format_ns;
  std::vector<std::string> lines;
  for (int i = 0; i < kCodecBatchSize; ++i) {
    lines.push_back("{\"id\":\"" + std::to_string(i) + "\",\"node\":" +
                    std::to_string(rng.UniformInt(0, targets - 1)) + "}");
  }
  const InferenceSession::Prediction prediction{7, 2, 3.25f};
  for (int b = 0; b < kCodecBatches; ++b) {
    ServeRequest request;
    std::string error;
    int64_t parsed = 0;
    WallTimer parse;
    for (const std::string& line : lines) {
      parsed += ParseServeRequestLine(line, &request, &error) ? 1 : 0;
    }
    parse_ns.push_back(parse.Seconds() * 1e9 / kCodecBatchSize);
    if (parsed != kCodecBatchSize) {
      std::fprintf(stderr, "error: request parse failed: %s\n", error.c_str());
      return 1;
    }
    size_t bytes = 0;
    WallTimer format;
    for (int i = 0; i < kCodecBatchSize; ++i) {
      bytes += FormatServeResponse(request.id, prediction, 100).size();
    }
    format_ns.push_back(format.Seconds() * 1e9 / kCodecBatchSize);
    if (bytes == 0) return 1;
  }
  PrintKv("serving.parse_ns", Median(parse_ns));
  PrintKv("serving.format_ns", Median(format_ns));

  std::vector<double> predict_us;
  std::vector<int64_t> ids(kPredictRows);
  for (int r = 0; r < kPredictRepeats; ++r) {
    for (int64_t& id : ids) id = rng.UniformInt(0, targets - 1);
    WallTimer t;
    StatusOr<std::vector<InferenceSession::Prediction>> batch =
        session->PredictBatch(ids);
    predict_us.push_back(t.Seconds() * 1e6);
    if (!batch.ok()) {
      std::fprintf(stderr, "error: %s\n", batch.status().message().c_str());
      return 1;
    }
  }
  PrintKv("serving.predict_batch_us", Median(predict_us));

  std::vector<double> recompute_ms;
  for (int r = 0; r < kRecomputeRepeats; ++r) {
    WallTimer t;
    session->RecomputeLogits();
    recompute_ms.push_back(t.Millis());
  }
  PrintKv("compiler.recompute_logits_ms", Median(recompute_ms));

  // Deltas with staleness 0, as the mixed phase serves them: every Apply
  // recomputes (partially when the K-hop ball stays local) before it
  // returns.
  MutableSession overlay(session, MutableSession::Options{});
  DeltaTargets deltas;
  if (!FindDeltaTargets(*session->frozen().graph, w, &deltas)) return 1;
  std::vector<double> edge_ms, node_ms;
  for (int i = 0; i < kEdgeDeltas + kNodeDeltas; ++i) {
    Mutation m;
    const bool add_node = i % 3 == 2;
    if (add_node) {
      m.kind = Mutation::Kind::kAddNode;
      m.node_type = deltas.node_type;
    } else {
      m.kind = Mutation::Kind::kAddEdge;
      m.edge_type = w.write_edge;
      m.src = rng.UniformInt(0, deltas.src_count - 1);
      m.dst = rng.UniformInt(0, deltas.dst_count - 1);
    }
    WallTimer t;
    StatusOr<MutationResult> applied = overlay.Apply(m);
    (add_node ? node_ms : edge_ms).push_back(t.Millis());
    if (!applied.ok()) {
      std::fprintf(stderr, "error: %s\n", applied.status().message().c_str());
      return 1;
    }
  }
  PrintKv("serving.apply_add_edge_ms", Median(edge_ms));
  PrintKv("serving.apply_add_node_ms", Median(node_ms));
  const double flushes = static_cast<double>(overlay.partial_recomputes() +
                                             overlay.full_recomputes());
  PrintKv("serving.partial_flush_share",
          flushes > 0 ? overlay.partial_recomputes() / flushes : 0.0);
  return 0;
}

}  // namespace autoac::bench

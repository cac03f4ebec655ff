#ifndef AUTOAC_SERVING_SERVER_H_
#define AUTOAC_SERVING_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/admission.h"
#include "serving/inference_session.h"
#include "serving/model_registry.h"
#include "util/status.h"

namespace autoac {

/// Scheduling class of one request (DESIGN.md §13). Interactive requests
/// are drained from the queues before batch requests and are never evicted
/// while a batch request is queued; batch requests absorb overload first.
enum class QosClass {
  kInteractive,
  kBatch,
};

/// One newline-delimited JSON request. Predictions:
///   {"id": "...", "node": N, "model": "...", "deadline_ms": M,
///    "qos": "interactive"|"batch", "client": "..."}
/// `id` is an opaque client token echoed back in the response (optional,
/// may be a JSON string or number); `node` is the target-type-local node
/// id to classify; `model` routes to a hosted model by registry name
/// (optional, empty = default model); `deadline_ms` is an optional
/// client-side deadline relative to arrival — a request still queued when
/// it expires is answered with a distinct "deadline exceeded" error and
/// never reaches Predict. `qos` is optional (default "interactive");
/// `client` is an optional stable identity used for per-client admission
/// control — absent, the connection itself is the identity.
///
/// Mutations (DESIGN.md §12) share the grammar, selected by "op" instead
/// of "node" (the two are mutually exclusive):
///   {"id": "...", "op": "add_node", "type": "author", "attrs": [0.1, ...]}
///   {"id": "...", "op": "add_edge", "edge": "writes", "src": 7, "dst": 12}
///   {"id": "...", "op": "remove_edge", "edge": "writes", "src": 7, "dst": 12}
/// plus optional "model", "deadline_ms", and "expect_fingerprint" (the
/// artifact content fingerprint as a hex string; a mismatch — e.g. a SIGHUP
/// swapped the model — is a distinct error and the delta is not applied).
struct ServeRequest {
  std::string id;
  int64_t node = -1;
  std::string model;
  int64_t deadline_ms = -1;  // -1 = no deadline
  QosClass qos = QosClass::kInteractive;
  std::string client;        // admission identity; empty = per-connection
  bool is_mutation = false;  // "op" present; `mutation` is the payload
  Mutation mutation;
};

/// Parses one request line. The accepted grammar is a flat JSON object with
/// the keys above (any order, whitespace-tolerant, unknown keys rejected so
/// typos fail loudly; numbers follow the JSON grammar — no '+', no leading
/// zeros — and integers that overflow int64 are malformed, not saturated).
/// Returns false with a human-readable `error` on malformed input; the
/// server turns that into an error response rather than dropping the
/// connection.
bool ParseServeRequestLine(const std::string& line, ServeRequest* request,
                           std::string* error);

/// Formats a success / error response line (newline-terminated JSON).
std::string FormatServeResponse(const std::string& id,
                                const InferenceSession::Prediction& p,
                                int64_t latency_us);
std::string FormatServeError(const std::string& id, const std::string& error);
/// Structured rejection: an error response carrying a machine-readable
/// "reason" token and (when `retry_after_ms` >= 0) a retry hint, so clients
/// can back off programmatically instead of string-matching error prose:
///   {"id":"r1","error":"rate limited","reason":"rate_limited",
///    "retry_after_ms":12}
/// Reasons in use: rate_limited, overloaded, inflight_limit, max_conns,
/// idle_timeout, fault_injected, artifact_v1_immutable.
std::string FormatServeReject(const std::string& id, const std::string& error,
                              const std::string& reason,
                              int64_t retry_after_ms);
/// Mutation ack:
///   {"id":"m1","applied":"add_edge","node":-1,"dirty_rows":5,"latency_us":..}
/// `node` is the assigned type-local id for add_node, -1 otherwise.
std::string FormatMutationResponse(const std::string& id,
                                   const Mutation& mutation,
                                   const MutationResult& result,
                                   int64_t latency_us);

/// Writes all `size` bytes to `fd`, retrying interrupted and would-block
/// sends (EINTR immediately; EAGAIN/EWOULDBLOCK after polling for
/// writability). Returns false only on a genuine write failure (e.g. the
/// peer is gone). Exposed for the retry regression tests; the server's
/// per-connection writes go through it. Chaos site `serve_partial_write`
/// truncates one send() to a single byte here — the retry loop must finish
/// the line regardless.
bool SendAll(int fd, const char* data, size_t size);

struct ServerOptions {
  /// Unix-domain socket path. Takes precedence over TCP when non-empty.
  std::string unix_path;
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see
  /// InferenceServer::port()). Used only when unix_path is empty.
  int tcp_port = 0;
  /// Requests per inference batch. The batcher fires when this many are
  /// queued or when the oldest queued request has waited batch_timeout_ms.
  int64_t max_batch = 16;
  int64_t batch_timeout_ms = 5;
  /// Bounded total queue depth across all per-model queues. An arrival
  /// beyond this evicts a queued request — batch-class entries first, and
  /// within a class from the connection with the most queued requests (the
  /// incoming request itself when nothing less important is queued) — with
  /// a structured "overloaded" rejection, instead of tail-dropping the
  /// newest arrival regardless of who is flooding.
  int64_t max_queue = 1024;
  /// A connection streaming more than this many bytes without a newline is
  /// answered with a malformed-request error and dropped (bounds the
  /// per-connection read buffer).
  int64_t max_line_bytes = 1 << 16;
  /// Per-client token-bucket admission control (DESIGN.md §13);
  /// rate_limit_rps <= 0 disables it. Identity is the request's "client"
  /// key when present, the connection otherwise.
  double rate_limit_rps = 0.0;
  double rate_limit_burst = 0.0;  // <= 0 defaults to max(rps, 1)
  /// A connection idle (no bytes received) for this long is answered with a
  /// structured idle_timeout rejection and dropped — slow-loris clients
  /// cannot pin fds forever. 0 disables reaping.
  int64_t idle_timeout_ms = 0;
  /// Accept gate: with this many live connections, further accepts are
  /// answered with an immediate structured max_conns refusal and closed.
  /// 0 = unlimited.
  int64_t max_conns = 0;
  /// Per-connection in-flight cap: a connection with this many requests
  /// queued has further requests rejected (inflight_limit) instead of
  /// queued. 0 = unlimited (the global overload policy still applies).
  int64_t max_inflight_per_conn = 0;
  /// Called from the accept loop every poll interval (<= ~100ms) when set.
  /// The CLI uses it to run SIGHUP artifact reloads on the serve thread.
  std::function<void()> poll_hook;
  /// Chaos hook: invoked from the batcher thread mid-batch when the
  /// `serve_mid_batch_reload` fault site fires, simulating a hot reload
  /// racing in-flight work. The CLI points it at its SIGHUP reload path;
  /// tests point it at ModelRegistry::Reload directly.
  std::function<void()> chaos_reload_hook;
  /// Clock used for admission-control decisions, microseconds, monotonic.
  /// Defaults to the steady clock; tests inject literal time sequences to
  /// make token-bucket behavior deterministic.
  std::function<int64_t()> clock;
};

/// Counters published by the server (also emitted as telemetry records when
/// the telemetry sink is on). Every request ends in exactly one of
/// responses, errors, shed or deadline_expired, except that a failed
/// success write moves write_errors instead of responses — so
/// requests == responses + errors + shed + deadline_expired whenever
/// write_errors == 0.
struct ServeStats {
  int64_t connections = 0;
  int64_t requests = 0;          // enqueued, or shed on arrival
  int64_t responses = 0;         // success responses written
  int64_t malformed = 0;         // parse failures (error response written)
  int64_t unknown_model = 0;     // "model" key named no hosted model
  int64_t overlong_lines = 0;    // read-buffer bound hit, connection dropped
  int64_t shed = 0;              // evicted/rejected on overload
  int64_t deadline_expired = 0;  // expired in queue, never reached Predict
  int64_t write_errors = 0;      // response writes that failed after retries
  int64_t batches = 0;           // inference batches executed
  int64_t batched_requests = 0;  // sum of batch sizes (occupancy numerator)
  int64_t mutations_applied = 0;     // graph deltas validated and applied
  int64_t dirty_rows = 0;            // logits rows the deltas marked dirty
  int64_t partial_forward_rows = 0;  // rows recomputed via the partial path
  int64_t rate_limited = 0;      // admission-control rejections
  int64_t idle_closed = 0;       // connections reaped by idle_timeout_ms
  int64_t conns_refused = 0;     // accepts refused by the max_conns gate
  int64_t inflight_rejected = 0;  // per-connection in-flight cap rejections
  int64_t reload_failures = 0;   // failed hot reloads (old set kept serving)
  int64_t faults_injected = 0;   // soft chaos sites that fired (process-wide)
  int64_t errors = 0;            // dequeued, answered with an error
};

/// Batched request/response front-end over a ModelRegistry (DESIGN.md §10).
/// One reader thread per connection parses request lines, resolves the
/// "model" key to a session (pinning it: a hot reload swaps the registry
/// entry, queued requests finish against the session they resolved), and
/// enqueues into that model's queue for the request's QoS class. A single
/// batcher thread assembles batches of up to max_batch by draining the
/// per-model queues round-robin — interactive entries across all models
/// first, batch entries only into the remaining slots, so one hot model
/// cannot starve the others and batch traffic cannot starve interactive
/// traffic. It drops entries whose deadline expired with a distinct error,
/// answers the rest from each session's logits cache, and writes responses
/// back on the owning connection.
///
/// Connection lifecycle: a reader that observes client disconnect (or idle
/// timeout) shuts the socket down, prunes the connection from the server's
/// list, and hands its thread to the accept loop for reaping; the fd itself
/// closes when the last reference (queued request or in-progress write)
/// releases the Connection. Long-running servers hold fds and threads only
/// for live connections.
///
/// Shutdown is cooperative: Serve() returns once ShutdownRequested()
/// (util/shutdown.h) or Stop() is observed; in-flight requests are drained,
/// responses flushed, and every thread joined before Serve() returns.
class InferenceServer {
 public:
  InferenceServer(ModelRegistry* registry, ServerOptions options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds and listens (unix or TCP per the options) and starts the batcher
  /// thread. IO failures (path in use, permission) are Status errors.
  Status Start();

  /// Accepts and serves connections until shutdown is requested. Call after
  /// Start(); blocks the calling thread.
  void Serve();

  /// Requests shutdown of this server only (Serve() also honors the
  /// process-wide shutdown flag). Safe from any thread; idempotent.
  void Stop();

  /// Actual TCP port after Start() (== options.tcp_port unless 0 requested
  /// an ephemeral port); -1 for unix-domain servers.
  int port() const { return port_; }

  /// Counts a failed hot reload (satellite of DESIGN.md §13): the registry
  /// kept the old serving set, the operator sees the count in stats and
  /// telemetry. Called by whoever drives reloads (the CLI's SIGHUP path).
  void NoteReloadFailure();

  ServeStats stats() const;

 private:
  struct Connection {
    ~Connection();
    int fd = -1;
    std::mutex write_mu;
    int64_t queued = 0;  // requests of this connection in queue; under mu_
    std::string identity;  // fallback admission identity ("conn:<id>")
  };
  struct Pending {
    std::shared_ptr<Connection> conn;
    ServeRequest request;
    std::shared_ptr<InferenceSession> session;  // pinned at enqueue
    int64_t enqueued_us = 0;   // monotonic clock, for latency telemetry
    int64_t deadline_us = -1;  // absolute expiry; -1 = none
  };
  /// Per-model queue pair; only models with at least one queued entry stay
  /// in the map, so round-robin iteration touches live models only.
  struct ModelQueues {
    std::deque<Pending> interactive;
    std::deque<Pending> batch;
    bool empty() const { return interactive.empty() && batch.empty(); }
  };

  void ReaderLoop(uint64_t reader_id, std::shared_ptr<Connection> conn);
  /// Parses, admits, and enqueues the complete lines in `*pending` (called
  /// by ReaderLoop as bytes arrive). Returns false when the connection must
  /// be dropped (overlong line).
  bool IngestLines(const std::shared_ptr<Connection>& conn,
                   std::string* pending);
  void BatcherLoop();
  /// Serializes one line onto the connection (per-connection write mutex),
  /// retrying via SendAll. Counts a genuine failure in write_errors.
  bool WriteLine(const std::shared_ptr<Connection>& conn,
                 const std::string& line);
  /// Joins reader threads whose loops have exited (accept thread only).
  void ReapFinishedReaders();
  bool Stopping() const;
  int64_t ClockNow() const;

  ModelRegistry* registry_;
  ServerOptions options_;
  AdmissionController admission_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  /// Per-model QoS queue pairs, keyed by resolved model name.
  std::map<std::string, ModelQueues> queues_;
  int64_t queued_total_ = 0;
  int64_t queued_interactive_ = 0;
  /// Per-class round-robin cursors (last model a batch slot was taken
  /// from) — one per class so heavy batch traffic on one model does not
  /// perturb interactive fairness across models.
  std::string rr_interactive_;
  std::string rr_batch_;
  ServeStats stats_;
  std::vector<uint64_t> finished_readers_;  // ids awaiting join; under mu_
  std::vector<std::shared_ptr<Connection>> connections_;  // live; under mu_

  std::thread batcher_;
  /// Reader threads by id; accessed only from the accept thread and the
  /// destructor (readers announce exit via finished_readers_).
  std::map<uint64_t, std::thread> readers_;
  uint64_t next_reader_id_ = 0;
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_SERVER_H_

#include "serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "util/fault.h"
#include "util/shutdown.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- minimal JSON helpers ---------------------------------------------------
// The request grammar is one flat object per line; a full JSON library is
// not worth a dependency for that. The scanner below is strict about what
// it accepts (unknown keys, malformed values, and out-of-range integers are
// errors, not silently ignored) and never reads past the line.

struct Scanner {
  const std::string& s;
  size_t i = 0;

  void SkipSpace() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipSpace();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return false;
        char esc = s[i++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: return false;  // \uXXXX etc. not needed for ids
        }
      } else {
        out->push_back(c);
      }
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }
  /// The JSON integer part -?(0|[1-9][0-9]*): no '+', no leading zeros.
  bool ScanJsonInt() {
    if (i < s.size() && s[i] == '-') ++i;
    size_t digits = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    return i > digits && (s[digits] != '0' || i == digits + 1);
  }
  bool ParseInt(int64_t* out) {
    SkipSpace();
    size_t start = i;
    if (!ScanJsonInt()) return false;
    int64_t value = 0;
    std::from_chars_result parsed =
        std::from_chars(s.data() + start, s.data() + i, value);
    // Overflow is malformed, not saturated to INT64_MAX.
    if (parsed.ec != std::errc() || parsed.ptr != s.data() + i) return false;
    *out = value;
    return true;
  }
  bool ParseFloat(float* out) {
    SkipSpace();
    // Token scan enforcing the JSON number grammar exactly —
    // int[.digits][(e|E)[sign]digits] with the integer part of ScanJsonInt
    // and required digits in every part — so "+1", "01.5", "12.", ".5",
    // "1.5abc", "nan"/"inf" and hex floats are all rejected at the token
    // level. The conversion then runs over exactly that token via
    // std::from_chars: locale-independent (strtof under a comma-decimal
    // locale stops at the '.' and silently rejects valid requests) and
    // unable to consume past the scanned token.
    size_t start = i;
    if (!ScanJsonInt()) return false;
    if (i < s.size() && s[i] == '.') {
      ++i;
      size_t frac_digits = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      if (i == frac_digits) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
      size_t exp_digits = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      if (i == exp_digits) return false;
    }
    float value = 0.0f;
    std::from_chars_result parsed =
        std::from_chars(s.data() + start, s.data() + i, value);
    // Out-of-range magnitudes are malformed, not saturated to inf/0 — the
    // old strtof path ignored ERANGE and fed inf into attribute rows.
    if (parsed.ec != std::errc() || parsed.ptr != s.data() + i) return false;
    *out = value;
    return true;
  }
  /// "[f, f, ...]" (possibly empty) into `out`.
  bool ParseFloatArray(std::vector<float>* out) {
    if (!Eat('[')) return false;
    out->clear();
    if (Eat(']')) return true;
    while (true) {
      float v = 0.0f;
      if (!ParseFloat(&v)) return false;
      out->push_back(v);
      if (Eat(',')) continue;
      return Eat(']');
    }
  }
};

const char* MutationOpName(Mutation::Kind kind) {
  switch (kind) {
    case Mutation::Kind::kAddNode: return "add_node";
    case Mutation::Kind::kAddEdge: return "add_edge";
    case Mutation::Kind::kRemoveEdge: return "remove_edge";
  }
  return "?";
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Escape via the byte value: a negative signed char fed to %04x
        // would sign-extend into garbage like ￿ffc3. Bytes >= 0x20
        // (including UTF-8 continuation bytes) pass through verbatim.
        unsigned char byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        } else {
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

}  // namespace

bool ParseServeRequestLine(const std::string& line, ServeRequest* request,
                           std::string* error) {
  *request = ServeRequest();
  Scanner sc{line};
  if (!sc.Eat('{')) {
    *error = "expected a JSON object";
    return false;
  }
  bool have_node = false;
  bool have_op = false;
  bool have_type = false, have_attrs = false;
  bool have_edge = false, have_src = false, have_dst = false;
  std::string mutation_key;  // first mutation-only key seen, for errors
  if (!sc.Eat('}')) {  // non-empty object
    while (true) {
      std::string key;
      if (!sc.ParseString(&key)) {
        *error = "expected a string key";
        return false;
      }
      if (!sc.Eat(':')) {
        *error = "expected ':' after key \"" + key + "\"";
        return false;
      }
      if (key == "id") {
        // Accept a string or a bare integer token; either way the id is
        // echoed back verbatim as a string.
        sc.SkipSpace();
        if (sc.i < line.size() && line[sc.i] == '"') {
          if (!sc.ParseString(&request->id)) {
            *error = "malformed \"id\" string";
            return false;
          }
        } else {
          int64_t v = 0;
          if (!sc.ParseInt(&v)) {
            *error = "malformed \"id\" value";
            return false;
          }
          request->id = std::to_string(v);
        }
      } else if (key == "node") {
        if (!sc.ParseInt(&request->node)) {
          *error = "malformed \"node\" value (integer expected)";
          return false;
        }
        have_node = true;
      } else if (key == "model") {
        if (!sc.ParseString(&request->model)) {
          *error = "malformed \"model\" value (string expected)";
          return false;
        }
      } else if (key == "deadline_ms") {
        int64_t v = 0;
        if (!sc.ParseInt(&v) || v < 0) {
          *error =
              "malformed \"deadline_ms\" value (non-negative integer "
              "expected)";
          return false;
        }
        request->deadline_ms = v;
      } else if (key == "qos") {
        std::string qos;
        if (!sc.ParseString(&qos)) {
          *error = "malformed \"qos\" value (string expected)";
          return false;
        }
        if (qos == "interactive") {
          request->qos = QosClass::kInteractive;
        } else if (qos == "batch") {
          request->qos = QosClass::kBatch;
        } else {
          *error = "unknown \"qos\" value \"" + qos +
                   "\" (want interactive or batch)";
          return false;
        }
      } else if (key == "client") {
        if (!sc.ParseString(&request->client)) {
          *error = "malformed \"client\" value (string expected)";
          return false;
        }
      } else if (key == "op") {
        std::string op;
        if (!sc.ParseString(&op)) {
          *error = "malformed \"op\" value (string expected)";
          return false;
        }
        if (op == "add_node") {
          request->mutation.kind = Mutation::Kind::kAddNode;
        } else if (op == "add_edge") {
          request->mutation.kind = Mutation::Kind::kAddEdge;
        } else if (op == "remove_edge") {
          request->mutation.kind = Mutation::Kind::kRemoveEdge;
        } else {
          *error = "unknown \"op\" value \"" + op +
                   "\" (want add_node, add_edge or remove_edge)";
          return false;
        }
        have_op = true;
      } else if (key == "type") {
        if (!sc.ParseString(&request->mutation.node_type)) {
          *error = "malformed \"type\" value (string expected)";
          return false;
        }
        have_type = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "attrs") {
        if (!sc.ParseFloatArray(&request->mutation.attributes)) {
          *error = "malformed \"attrs\" value (array of numbers expected)";
          return false;
        }
        have_attrs = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "edge") {
        if (!sc.ParseString(&request->mutation.edge_type)) {
          *error = "malformed \"edge\" value (string expected)";
          return false;
        }
        have_edge = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "src" || key == "dst") {
        int64_t* slot =
            key == "src" ? &request->mutation.src : &request->mutation.dst;
        if (!sc.ParseInt(slot)) {
          *error = "malformed \"" + key + "\" value (integer expected)";
          return false;
        }
        (key == "src" ? have_src : have_dst) = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "expect_fingerprint") {
        // Hex string, not a JSON number: fingerprints are full-range
        // uint64 and the integer grammar is (deliberately) int64-only.
        std::string hex;
        if (!sc.ParseString(&hex) || hex.empty() ||
            hex.size() > 16 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos) {
          *error =
              "malformed \"expect_fingerprint\" value (hex string expected)";
          return false;
        }
        request->mutation.expect_fingerprint =
            std::strtoull(hex.c_str(), nullptr, 16);
        if (mutation_key.empty()) mutation_key = key;
      } else {
        *error = "unknown key \"" + key + "\"";
        return false;
      }
      if (sc.Eat(',')) continue;
      if (sc.Eat('}')) break;
      *error = "expected ',' or '}'";
      return false;
    }
  }
  sc.SkipSpace();
  if (sc.i != line.size()) {
    *error = "trailing characters after the object";
    return false;
  }
  if (!have_op) {
    if (!mutation_key.empty()) {
      *error = "key \"" + mutation_key + "\" is only valid with \"op\"";
      return false;
    }
    if (!have_node) {
      *error = "missing required key \"node\"";
      return false;
    }
    return true;
  }
  // Mutation: per-kind required/forbidden keys, so a typo'd delta fails
  // loudly instead of mutating something else.
  if (have_node) {
    *error = "\"node\" and \"op\" are mutually exclusive";
    return false;
  }
  request->is_mutation = true;
  if (request->mutation.kind == Mutation::Kind::kAddNode) {
    if (!have_type) {
      *error = "\"op\":\"add_node\" requires \"type\"";
      return false;
    }
    if (have_edge || have_src || have_dst) {
      *error = "\"op\":\"add_node\" takes \"type\"/\"attrs\", not edge keys";
      return false;
    }
  } else {
    if (!have_edge || !have_src || !have_dst) {
      *error = std::string("\"op\":\"") +
               MutationOpName(request->mutation.kind) +
               "\" requires \"edge\", \"src\" and \"dst\"";
      return false;
    }
    if (have_type || have_attrs) {
      *error = std::string("\"op\":\"") +
               MutationOpName(request->mutation.kind) +
               "\" takes edge keys, not \"type\"/\"attrs\"";
      return false;
    }
  }
  return true;
}

std::string FormatServeResponse(const std::string& id,
                                const InferenceSession::Prediction& p,
                                int64_t latency_us) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"node\":%lld,\"label\":%lld,\"score\":%.6g,"
                "\"latency_us\":%lld}\n",
                static_cast<long long>(p.node),
                static_cast<long long>(p.label), p.score,
                static_cast<long long>(latency_us));
  return "{\"id\":\"" + EscapeJson(id) + "\"" + buf;
}

std::string FormatServeError(const std::string& id, const std::string& error) {
  return "{\"id\":\"" + EscapeJson(id) + "\",\"error\":\"" +
         EscapeJson(error) + "\"}\n";
}

std::string FormatServeReject(const std::string& id, const std::string& error,
                              const std::string& reason,
                              int64_t retry_after_ms) {
  std::string out = "{\"id\":\"" + EscapeJson(id) + "\",\"error\":\"" +
                    EscapeJson(error) + "\",\"reason\":\"" +
                    EscapeJson(reason) + "\"";
  if (retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  out += "}\n";
  return out;
}

std::string FormatMutationResponse(const std::string& id,
                                   const Mutation& mutation,
                                   const MutationResult& result,
                                   int64_t latency_us) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"applied\":\"%s\",\"node\":%lld,\"dirty_rows\":%lld,"
                "\"latency_us\":%lld}\n",
                MutationOpName(mutation.kind),
                static_cast<long long>(result.node),
                static_cast<long long>(result.dirty_rows),
                static_cast<long long>(latency_us));
  return "{\"id\":\"" + EscapeJson(id) + "\"" + buf;
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    size_t want = size - off;
    // Chaos: truncate one send to a single byte; the loop below must carry
    // the rest of the line across the "short write" unharmed.
    if (want > 1 && FaultTriggered("serve_partial_write")) want = 1;
    ssize_t n = ::send(fd, data + off, want, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Send buffer full (or SO_SNDTIMEO fired): wait until writable, then
      // retry. A dead peer turns this into POLLERR/POLLHUP and the next
      // send fails for real instead of looping.
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, /*timeout_ms=*/100);
      continue;
    }
    return false;  // genuine failure (EPIPE, ECONNRESET, EBADF, ...)
  }
  return true;
}

InferenceServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

InferenceServer::InferenceServer(ModelRegistry* registry,
                                 ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      admission_(AdmissionController::Options{options_.rate_limit_rps,
                                              options_.rate_limit_burst,
                                              /*max_clients=*/4096}) {
  AUTOAC_CHECK(registry_ != nullptr);
  AUTOAC_CHECK(options_.max_batch > 0) << "max_batch must be positive";
  AUTOAC_CHECK(options_.max_queue > 0) << "max_queue must be positive";
  AUTOAC_CHECK(options_.max_line_bytes > 0)
      << "max_line_bytes must be positive";
}

int64_t InferenceServer::ClockNow() const {
  return options_.clock ? options_.clock() : NowMicros();
}

void InferenceServer::NoteReloadFailure() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reload_failures;
  }
  if (Telemetry::Enabled()) {
    Telemetry::Get().Emit(MetricRecord("serve_reload").Add("ok", 0));
  }
}

InferenceServer::~InferenceServer() {
  Stop();
  if (batcher_.joinable()) batcher_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& [id, thread] : readers_) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
  // Connection fds close in ~Connection when the last reference drops.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

Status InferenceServer::Start() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::Error("unix socket path too long: " +
                           options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Error("socket() failed");
    ::unlink(options_.unix_path.c_str());  // the server owns this path
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Error("bind failed on " + options_.unix_path + ": " +
                           std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Error("socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Error("bind failed on 127.0.0.1:" +
                           std::to_string(options_.tcp_port) + ": " +
                           std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::Error(std::string("listen failed: ") +
                         std::strerror(errno));
  }
  batcher_ = std::thread(&InferenceServer::BatcherLoop, this);
  return Status::Ok();
}

bool InferenceServer::Stopping() const {
  return stop_.load(std::memory_order_relaxed) || ShutdownRequested();
}

void InferenceServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

void InferenceServer::ReapFinishedReaders() {
  std::vector<uint64_t> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_readers_);
  }
  for (uint64_t id : finished) {
    auto it = readers_.find(id);
    if (it == readers_.end()) continue;
    if (it->second.joinable()) it->second.join();
    readers_.erase(it);
  }
}

void InferenceServer::Serve() {
  AUTOAC_CHECK(listen_fd_ >= 0) << "call Start() before Serve()";
  while (!Stopping()) {
    ReapFinishedReaders();
    if (options_.poll_hook) options_.poll_hook();
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    // Chaos: stall before handling the client — a slow accept loop must
    // delay, never drop, the pending connection.
    if (FaultTriggered("serve_delayed_accept")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (options_.max_conns > 0) {
      bool refuse;
      {
        std::lock_guard<std::mutex> lock(mu_);
        refuse = static_cast<int64_t>(connections_.size()) >=
                 options_.max_conns;
        if (refuse) ++stats_.conns_refused;
      }
      if (refuse) {
        // Immediate structured refusal: the client learns why and when to
        // retry instead of seeing a silent RST or hanging in the backlog.
        std::string line = FormatServeReject(
            "", "server at connection capacity", "max_conns",
            /*retry_after_ms=*/1000);
        SendAll(fd, line.data(), line.size());
        ::close(fd);
        continue;
      }
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    uint64_t id = next_reader_id_++;
    conn->identity = "conn:" + std::to_string(id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.connections;
      connections_.push_back(conn);
    }
    readers_.emplace(id, std::thread(&InferenceServer::ReaderLoop, this, id,
                                     std::move(conn)));
  }
  // Cooperative wind-down: stop accepting, unblock the readers, drain the
  // queue through the batcher, then join everything so callers observe a
  // fully quiesced server when Serve() returns.
  Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& [id, thread] : readers_) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
  readers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_readers_.clear();
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

bool InferenceServer::WriteLine(const std::shared_ptr<Connection>& conn,
                                const std::string& line) {
  bool sent;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    sent = SendAll(conn->fd, line.data(), line.size());
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.write_errors;
  }
  return sent;
}

bool InferenceServer::IngestLines(const std::shared_ptr<Connection>& conn,
                                  std::string* pending) {
  size_t start = 0;
  for (size_t nl = pending->find('\n', start); nl != std::string::npos;
       nl = pending->find('\n', start)) {
    std::string line = pending->substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    ServeRequest request;
    std::string error;
    if (!ParseServeRequestLine(line, &request, &error)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.malformed;
      }
      WriteLine(conn, FormatServeError(request.id, error));
      continue;
    }
    // Admission control runs before any heavier work (model resolution,
    // queue locks): a rejected request costs one bucket lookup. Identity is
    // the request's "client" key when present — one quota spanning that
    // client's connections — and the connection itself otherwise.
    if (admission_.enabled()) {
      const std::string& identity =
          request.client.empty() ? conn->identity : request.client;
      int64_t retry_after_ms = 0;
      if (!admission_.Admit(identity, ClockNow(), &retry_after_ms)) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.rate_limited;
        }
        WriteLine(conn, FormatServeReject(request.id, "rate limited",
                                          "rate_limited", retry_after_ms));
        continue;
      }
    }
    if (options_.max_inflight_per_conn > 0) {
      bool over;
      {
        std::lock_guard<std::mutex> lock(mu_);
        over = conn->queued >= options_.max_inflight_per_conn;
        if (over) ++stats_.inflight_rejected;
      }
      if (over) {
        WriteLine(conn,
                  FormatServeReject(
                      request.id,
                      "too many requests in flight on this connection",
                      "inflight_limit", options_.batch_timeout_ms));
        continue;
      }
    }
    // Resolve the model now: the session is pinned for the lifetime of
    // the queued request, so a hot reload never changes what an already
    // accepted request is answered from.
    std::string resolved_model;
    std::shared_ptr<InferenceSession> session =
        registry_->Lookup(request.model, &resolved_model);
    if (session == nullptr) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.unknown_model;
      }
      WriteLine(conn,
                FormatServeError(request.id,
                                 "unknown model \"" + request.model + "\""));
      continue;
    }
    if (request.is_mutation && !registry_->mutations_enabled()) {
      WriteLine(conn,
                FormatServeError(request.id,
                                 "mutations disabled (start the server "
                                 "with --enable_mutations)"));
      continue;
    }
    int64_t now = NowMicros();
    Pending entry{conn, std::move(request), std::move(session), now,
                  /*deadline_us=*/-1};
    if (entry.request.deadline_ms >= 0) {
      entry.deadline_us = now + entry.request.deadline_ms * 1000;
    }
    // Overload policy (DESIGN.md §13): batch-class entries absorb eviction
    // first — an interactive arrival preempts queued batch work, and an
    // incoming batch request never displaces queued interactive work.
    // Within the eligible class, evict from the connection with the most
    // queued requests (the incoming request itself when its connection is
    // the most loaded), so a single flooding client loses its own newest
    // request and everyone else's traffic keeps flowing.
    std::shared_ptr<Connection> victim_conn;
    std::string victim_id;
    bool shed_incoming = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
      if (queued_total_ >= options_.max_queue) {
        bool victim_from_batch = queued_total_ > queued_interactive_;
        if (!victim_from_batch &&
            entry.request.qos == QosClass::kBatch) {
          // Only interactive work is queued; the incoming batch request
          // yields.
          ++stats_.shed;
          shed_incoming = true;
        } else {
          int64_t max_queued = 0;
          for (const auto& [name, mq] : queues_) {
            (void)name;
            const std::deque<Pending>& q =
                victim_from_batch ? mq.batch : mq.interactive;
            for (const Pending& p : q) {
              max_queued = std::max(max_queued, p.conn->queued);
            }
          }
          // An interactive arrival competing against batch victims always
          // wins the slot; same-class arrivals from the most-loaded
          // connection shed themselves.
          bool incoming_eligible =
              !victim_from_batch ||
              entry.request.qos == QosClass::kBatch;
          if (incoming_eligible && conn->queued >= max_queued) {
            ++stats_.shed;
            shed_incoming = true;
          } else {
            // Newest entry of the most-loaded connection in the eligible
            // class.
            std::deque<Pending>* victim_queue = nullptr;
            std::deque<Pending>::iterator victim_it;
            int64_t victim_enqueued = -1;
            for (auto& [name, mq] : queues_) {
              (void)name;
              std::deque<Pending>& q =
                  victim_from_batch ? mq.batch : mq.interactive;
              for (auto it = q.begin(); it != q.end(); ++it) {
                // >=: queues are FIFO, so on a timestamp tie (microsecond
                // granularity) the later position is the newer request.
                if (it->conn->queued == max_queued &&
                    it->enqueued_us >= victim_enqueued) {
                  victim_enqueued = it->enqueued_us;
                  victim_queue = &q;
                  victim_it = it;
                }
              }
            }
            AUTOAC_CHECK(victim_queue != nullptr);
            victim_conn = victim_it->conn;
            victim_id = victim_it->request.id;
            --victim_it->conn->queued;
            victim_queue->erase(victim_it);
            --queued_total_;
            if (!victim_from_batch) --queued_interactive_;
            ++stats_.shed;
            for (auto it = queues_.begin(); it != queues_.end();) {
              it = it->second.empty() ? queues_.erase(it) : std::next(it);
            }
          }
        }
      }
      if (!shed_incoming) {
        ++conn->queued;
        ++queued_total_;
        ModelQueues& mq = queues_[resolved_model];
        if (entry.request.qos == QosClass::kInteractive) {
          ++queued_interactive_;
          mq.interactive.push_back(std::move(entry));
        } else {
          mq.batch.push_back(std::move(entry));
        }
      }
    }
    if (victim_conn != nullptr) {
      WriteLine(victim_conn,
                FormatServeReject(victim_id, "overloaded", "overloaded",
                                  options_.batch_timeout_ms));
    }
    if (shed_incoming) {
      WriteLine(conn,
                FormatServeReject(entry.request.id, "overloaded",
                                  "overloaded", options_.batch_timeout_ms));
    } else {
      queue_cv_.notify_one();
    }
  }
  pending->erase(0, start);
  if (static_cast<int64_t>(pending->size()) > options_.max_line_bytes) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.overlong_lines;
    }
    WriteLine(conn,
              FormatServeError(
                  "", "request line exceeds " +
                          std::to_string(options_.max_line_bytes) +
                          " bytes"));
    return false;  // unbounded buffer growth: drop the connection
  }
  return true;
}

void InferenceServer::ReaderLoop(uint64_t reader_id,
                                 std::shared_ptr<Connection> conn) {
  std::string pending;
  char buf[4096];
  int64_t last_activity_us = NowMicros();
  bool idle_kill = false;
  while (!Stopping()) {
    // Poll with a bounded interval so idle connections are reaped and a
    // stopping server does not wait on a silent client.
    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0 &&
          NowMicros() - last_activity_us >=
              options_.idle_timeout_ms * 1000) {
        idle_kill = true;  // slow-loris reap: notify, then drop
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    last_activity_us = NowMicros();
    size_t take = static_cast<size_t>(n);
    size_t first = take;
    // Chaos: withhold the tail of one recv, delivering it on a second
    // ingest pass — the line parser must treat a torn read exactly like
    // two short network reads.
    if (take > 1 && FaultTriggered("serve_torn_read")) first = take / 2;
    pending.append(buf, first);
    bool ok = IngestLines(conn, &pending);
    if (ok && first < take) {
      pending.append(buf + first, take - first);
      ok = IngestLines(conn, &pending);
    }
    if (!ok) break;
  }
  if (idle_kill) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.idle_closed;
    }
    WriteLine(conn, FormatServeReject("", "idle timeout", "idle_timeout",
                                      /*retry_after_ms=*/-1));
  }
  // Client gone (or this server is being dropped): stop both directions so
  // a batcher mid-write fails fast, prune the connection from the live
  // list, and hand the thread to the accept loop for joining. The fd
  // itself closes in ~Connection once the last queued request or write
  // releases it — never while another thread could still be using it.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), conn),
        connections_.end());
    finished_readers_.push_back(reader_id);
  }
}

void InferenceServer::BatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    int64_t queue_depth = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.batch_timeout_ms), [&] {
            return Stopping() || queued_total_ >= options_.max_batch;
          });
      if (queued_total_ == 0) {
        if (Stopping()) return;
        continue;
      }
      int64_t now = NowMicros();
      // Round-robin across the per-model queues: each slot of the batch is
      // taken from the next model after the previous slot's, so a model
      // with a deep queue gets at most its fair share per batch. QoS:
      // interactive entries across all models fill slots first; batch
      // entries only take what remains, so saturating batch traffic delays
      // but never starves interactive work.
      while (static_cast<int64_t>(batch.size()) < options_.max_batch &&
             queued_total_ > 0) {
        bool take_interactive = queued_interactive_ > 0;
        std::string& cursor =
            take_interactive ? rr_interactive_ : rr_batch_;
        auto next_with = [&](std::map<std::string, ModelQueues>::iterator
                                 from) {
          for (auto it = from; it != queues_.end(); ++it) {
            const std::deque<Pending>& q = take_interactive
                                               ? it->second.interactive
                                               : it->second.batch;
            if (!q.empty()) return it;
          }
          return queues_.end();
        };
        auto it = next_with(queues_.upper_bound(cursor));
        if (it == queues_.end()) it = next_with(queues_.begin());
        AUTOAC_CHECK(it != queues_.end());
        cursor = it->first;
        std::deque<Pending>& q =
            take_interactive ? it->second.interactive : it->second.batch;
        Pending entry = std::move(q.front());
        q.pop_front();
        if (it->second.empty()) queues_.erase(it);
        --queued_total_;
        if (take_interactive) --queued_interactive_;
        --entry.conn->queued;
        if (entry.deadline_us >= 0 && now > entry.deadline_us) {
          ++stats_.deadline_expired;
          expired.push_back(std::move(entry));
          continue;  // never reaches Predict
        }
        batch.push_back(std::move(entry));
      }
      if (!batch.empty()) {
        ++stats_.batches;
        stats_.batched_requests += static_cast<int64_t>(batch.size());
      }
      queue_depth = queued_total_;
    }
    for (const Pending& entry : expired) {
      WriteLine(entry.conn,
                FormatServeError(entry.request.id, "deadline exceeded"));
    }
    // Chaos: run a hot reload between batch assembly and execution. The
    // batch below must still be answered from its pinned sessions — the
    // reload swaps the registry, never in-flight work.
    if (!batch.empty() && options_.chaos_reload_hook &&
        FaultTriggered("serve_mid_batch_reload")) {
      options_.chaos_reload_hook();
    }
    for (const Pending& entry : batch) {
      if (entry.request.is_mutation) {
        // Chaos: a validated mutation fails to apply — the client gets a
        // structured error, counters stay consistent (nothing applied, no
        // dirty rows), and the server keeps serving.
        if (FaultTriggered("serve_mutation_apply")) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.errors;
          }
          WriteLine(entry.conn,
                    FormatServeReject(entry.request.id,
                                      "injected mutation-apply fault",
                                      "fault_injected",
                                      options_.batch_timeout_ms));
          continue;
        }
        StatusOr<MutationResult> applied =
            entry.session->Apply(entry.request.mutation);
        int64_t latency_us = NowMicros() - entry.enqueued_us;
        int64_t partial_rows = entry.session->TakeUnreportedPartialRows();
        if (!applied.ok()) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.errors;
            stats_.partial_forward_rows += partial_rows;
          }
          const std::string& message = applied.status().message();
          // v1 artifacts (no completion section) refuse every mutation;
          // give clients a machine-readable reason so feeders can stop
          // retrying and surface the re-export hint, instead of
          // string-matching error prose.
          if (message.find("(v1 artifact)") != std::string::npos) {
            WriteLine(entry.conn,
                      FormatServeReject(entry.request.id, message,
                                        "artifact_v1_immutable",
                                        /*retry_after_ms=*/-1));
          } else {
            WriteLine(entry.conn,
                      FormatServeError(entry.request.id, message));
          }
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.mutations_applied;
          stats_.dirty_rows += applied.value().dirty_rows;
          stats_.partial_forward_rows += partial_rows;
        }
        if (WriteLine(entry.conn,
                      FormatMutationResponse(entry.request.id,
                                             entry.request.mutation,
                                             applied.value(), latency_us))) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.responses;
        }
        if (Telemetry::Enabled()) {
          Telemetry::Get().Emit(
              MetricRecord("serve_mutation")
                  .Add("op", MutationOpName(entry.request.mutation.kind))
                  .Add("dirty_rows", applied.value().dirty_rows)
                  .Add("latency_us", latency_us));
        }
        continue;
      }
      // A dirty row follows the staleness policy, so Predict may flush
      // first; that flush's partial rows are drained here.
      StatusOr<InferenceSession::Prediction> prediction =
          entry.session->Predict(entry.request.node);
      int64_t latency_us = NowMicros() - entry.enqueued_us;
      int64_t partial_rows = entry.session->TakeUnreportedPartialRows();
      if (partial_rows > 0 || !prediction.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.partial_forward_rows += partial_rows;
        if (!prediction.ok()) ++stats_.errors;
      }
      if (!prediction.ok()) {
        WriteLine(entry.conn, FormatServeError(entry.request.id,
                                               prediction.status().message()));
        continue;
      }
      if (WriteLine(entry.conn,
                    FormatServeResponse(entry.request.id, prediction.value(),
                                        latency_us))) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.responses;
      }
      if (Telemetry::Enabled()) {
        Telemetry::Get().Emit(MetricRecord("serve_request")
                                  .Add("node", prediction.value().node)
                                  .Add("label", prediction.value().label)
                                  .Add("latency_us", latency_us));
      }
    }
    if (!batch.empty() && Telemetry::Enabled()) {
      Telemetry::Get().Emit(
          MetricRecord("serve_batch")
              .Add("size", static_cast<int64_t>(batch.size()))
              .Add("capacity", options_.max_batch)
              .Add("occupancy", static_cast<double>(batch.size()) /
                                    static_cast<double>(options_.max_batch))
              .Add("queue_depth", queue_depth)
              // Flat across batches in steady state: compiled sessions run
              // out of the preplanned arena (DESIGN.md §11), and Predict is
              // an allocation-free row scan.
              .Add("tensor_buffers_allocated", TensorBuffersAllocated()));
    }
  }
}

ServeStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats out = stats_;
  // Soft chaos triggers are counted process-wide by the fault layer (the
  // SendAll site has no server to report to); surface them here so the
  // shutdown audit can assert every armed site fired and was contained.
  out.faults_injected = FaultTriggersObserved();
  return out;
}

}  // namespace autoac

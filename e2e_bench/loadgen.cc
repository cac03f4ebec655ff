#include "loadgen.h"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <string_view>

#include "bench.h"
#include "util/rng.h"

namespace autoac::bench {
namespace {

bool SendLine(int fd, const std::string& line) {
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

// Request ids are the decimal sequence number within the stream.
int64_t IdOf(std::string_view line) {
  static constexpr std::string_view kPrefix = "{\"id\":\"";
  if (!line.starts_with(kPrefix)) return -1;
  int64_t id = -1;
  std::from_chars(line.data() + kPrefix.size(), line.data() + line.size(), id);
  return id;
}

int64_t IntField(std::string_view line, std::string_view key) {
  const size_t at = line.find(key);
  if (at == std::string_view::npos) return -1;
  int64_t value = -1;
  std::from_chars(line.data() + at + key.size(), line.data() + line.size(),
                  value);
  return value;
}

// Reads what has arrived, one buffer at most so that a burst of answers
// cannot hold up sends that fall due meanwhile, and hands each complete line
// to `on_line`. Returns false when the peer closed the connection; sets
// `*got_data` when anything was read.
template <typename F>
bool DrainOnce(int fd, std::string* pending, bool* got_data, F&& on_line) {
  char buf[8192];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  *got_data = n > 0;
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  if (n == 0) return false;
  const int64_t now = NowMicros();
  pending->append(buf, static_cast<size_t>(n));
  const std::string_view text(*pending);
  size_t at = 0;
  for (size_t nl = text.find('\n'); nl != std::string_view::npos;
       nl = text.find('\n', at)) {
    on_line(text.substr(at, nl - at), now);
    at = nl + 1;
  }
  pending->erase(0, at);
  return true;
}

}  // namespace

int ConnectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string_view AnswerOf(std::string_view line) {
  const size_t begin = line.find("\"label\":");
  const size_t end = line.find(",\"latency_us\":");
  if (begin == std::string_view::npos || end == std::string_view::npos ||
      end < begin) {
    return {};
  }
  return line.substr(begin, end - begin);
}

void RunStream(const StreamConfig& cfg, StreamResult* out) {
  if (cfg.cpu >= 0) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cfg.cpu, &mask);
    ::sched_setaffinity(0, sizeof(mask), &mask);
  }
  const int fd = ConnectUnix(cfg.socket_path);
  if (fd < 0) {
    out->first_error = "connect failed: " + std::string(std::strerror(errno));
    return;
  }
  out->connected = true;
  Rng rng(cfg.seed);
  const bool reads = cfg.kind == StreamConfig::Kind::kRead;
  auto next_gap = [&] {
    // Reads: exponential inter-arrival times, -ln(U) / rate with U in
    // (0, 1]. Writes: a fixed interval.
    if (!reads) return static_cast<int64_t>(1e6 / cfg.rate_rps);
    return static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) /
                                cfg.rate_rps * 1e6);
  };
  std::vector<int64_t> scheduled;  // per request id
  std::vector<int64_t> node_of;    // reads: the requested node
  std::vector<std::string> lines;  // writes: the request line
  std::vector<uint8_t> answered;
  int64_t outstanding = 0;
  std::string pending;

  auto on_line = [&](std::string_view line, int64_t now) {
    const int64_t id = IdOf(line);
    if (id < 0 || id >= static_cast<int64_t>(scheduled.size()) ||
        answered[id]) {
      return;
    }
    answered[id] = 1;
    --outstanding;
    if (line.find("\"error\":") != std::string_view::npos) {
      ++out->errors;
      if (out->first_error.empty()) out->first_error = line;
      return;
    }
    if (reads) {
      const int64_t node = node_of[id];
      const bool matches =
          IntField(line, "\"node\":") == node &&
          (cfg.expected == nullptr ? !AnswerOf(line).empty()
                                   : AnswerOf(line) == (*cfg.expected)[node]);
      if (!matches) {
        ++out->mismatches;
        if (out->first_error.empty()) {
          out->first_error = "mismatch: " + std::string(line);
        }
        return;
      }
    } else {
      if (line.find("\"applied\":") == std::string_view::npos) {
        ++out->errors;
        return;
      }
      out->applied.push_back(lines[id]);
      if (line.find("\"applied\":\"add_node\"") != std::string_view::npos) {
        ++out->added_nodes;
      }
    }
    ++out->ok;
    if (scheduled[id] >= cfg.measure_us) {
      out->samples.push_back({scheduled[id] - cfg.measure_us,
                              now - scheduled[id],
                              IntField(line, "\"latency_us\":")});
    }
  };

  int64_t next_us = cfg.start_us + next_gap();
  bool peer_gone = false;
  while (!peer_gone) {
    int64_t now = NowMicros();
    while (next_us < cfg.end_us && next_us <= now) {
      const int64_t id = static_cast<int64_t>(scheduled.size());
      std::string line = "{\"id\":\"" + std::to_string(id) + "\"";
      if (reads) {
        const int64_t node = rng.UniformInt(0, cfg.num_targets - 1);
        line += ",\"node\":" + std::to_string(node) + "}";
        node_of.push_back(node);
      } else if (id % 3 != 2) {
        line += ",\"op\":\"add_edge\",\"edge\":\"" + cfg.edge_type +
                "\",\"src\":" +
                std::to_string(rng.UniformInt(0, cfg.src_count - 1)) +
                ",\"dst\":" +
                std::to_string(rng.UniformInt(0, cfg.dst_count - 1)) + "}";
      } else {
        line += ",\"op\":\"add_node\",\"type\":\"" + cfg.node_type + "\"}";
      }
      scheduled.push_back(next_us);
      answered.push_back(0);
      if (!SendLine(fd, line + "\n")) {
        peer_gone = true;
        break;
      }
      if (!reads) lines.push_back(std::move(line));
      ++out->sent;
      ++outstanding;
      now = NowMicros();
      out->lag_us.push_back(static_cast<double>(now - next_us));
      next_us += next_gap();
    }
    bool got_data = false;
    if (peer_gone || !DrainOnce(fd, &pending, &got_data, on_line)) break;
    now = NowMicros();
    const bool sending = next_us < cfg.end_us;
    const int64_t deadline = cfg.end_us + cfg.grace_us;
    if (!sending && (outstanding == 0 || now >= deadline)) break;
    if (got_data) continue;  // more may be waiting; due sends go first
    const int64_t wake = sending ? next_us : deadline;
    const int64_t wait_us = std::max<int64_t>(0, wake - now);
    timespec timeout{wait_us / 1'000'000, (wait_us % 1'000'000) * 1000};
    pollfd pfd{fd, POLLIN, 0};
    ::ppoll(&pfd, 1, &timeout, nullptr);
  }
  out->lost = outstanding;
  ::close(fd);
}

bool ApplyInOrder(const std::string& socket_path,
                  const std::vector<std::string>& lines,
                  std::vector<std::string>* applied, std::string* error) {
  const int fd = ConnectUnix(socket_path);
  if (fd < 0) {
    *error = "connect failed";
    return false;
  }
  std::string pending;
  bool ok = true;
  for (const std::string& line : lines) {
    bool answered = false;
    auto on_line = [&](std::string_view answer, int64_t) {
      answered = true;
      if (answer.find("\"applied\":") == std::string_view::npos) {
        *error = answer;
        return;
      }
      applied->push_back(line);
    };
    ok = SendLine(fd, line + "\n");
    const int64_t deadline = NowMicros() + 30'000'000;
    bool got_data = false;
    while (ok && !answered && NowMicros() < deadline) {
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, 100);
      ok = DrainOnce(fd, &pending, &got_data, on_line);
    }
    if (!ok || !answered || !error->empty()) break;
  }
  ::close(fd);
  if (applied->empty() || applied->back() != lines.back()) {
    if (error->empty()) *error = "delta not acknowledged";
    return false;
  }
  return true;
}

bool ReadAll(const std::string& socket_path, int64_t count,
             std::vector<std::string>* answers, std::string* error) {
  const int fd = ConnectUnix(socket_path);
  if (fd < 0) {
    *error = "connect failed";
    return false;
  }
  answers->assign(count, "");
  int64_t received = 0;
  std::string pending;
  auto on_line = [&](std::string_view line, int64_t) {
    const int64_t id = IdOf(line);
    if (id < 0 || id >= count) return;
    (*answers)[id] = AnswerOf(line);
    if ((*answers)[id].empty() && error->empty()) *error = line;
    ++received;
  };
  bool ok = true;
  bool got_data = false;
  for (int64_t id = 0; id < count && ok; ++id) {
    ok = SendLine(fd, "{\"id\":\"" + std::to_string(id) +
                          "\",\"node\":" + std::to_string(id) + "}\n");
    if (ok && id % 64 == 63) ok = DrainOnce(fd, &pending, &got_data, on_line);
  }
  const int64_t deadline = NowMicros() + 30'000'000;
  while (ok && received < count && NowMicros() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, 100);
    ok = DrainOnce(fd, &pending, &got_data, on_line);
  }
  ::close(fd);
  if (received < count && error->empty()) {
    *error = "got " + std::to_string(received) + " of " +
             std::to_string(count) + " answers";
  }
  return received == count && error->empty();
}

}  // namespace autoac::bench

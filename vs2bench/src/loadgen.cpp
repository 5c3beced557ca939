#include "loadgen.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "clock.hpp"

namespace vs2bench {

struct LoadGen::Conn {
  int fd = -1;
  bool alive = true;
  std::string out;       ///< bytes not yet written
  size_t out_offset = 0;
  std::string in;        ///< bytes read, not yet split into lines
  std::deque<size_t> pending;  ///< outcome indexes awaiting a response

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

size_t PhaseResult::completed() const {
  size_t n = 0;
  for (const Outcome& o : outcomes) n += o.done >= 0.0 ? 1 : 0;
  return n;
}

std::vector<double> PhaseResult::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    out.push_back(o.done >= 0.0 ? (o.done - o.due) * 1e3
                                : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> PhaseResult::LatenessMs() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) out.push_back((o.sent - o.due) * 1e3);
  return out;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

namespace {

/// Connects to a Unix socket; -1 on failure.
int DialUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::string AdminCall(const std::string& socket_path, const std::string& cmd,
                      double timeout_seconds) {
  int fd = DialUnix(socket_path);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  std::string request = "{\"cmd\":\"" + cmd + "\"}\n";
  std::string response;
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char chunk[65536];
    while (response.find('\n') == std::string::npos) {
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  size_t nl = response.find('\n');
  return nl == std::string::npos ? "" : response.substr(0, nl);
}

bool WaitHealthy(const std::string& socket_path, double timeout_seconds) {
  double deadline = Now() + timeout_seconds;
  while (Now() < deadline) {
    std::string health = AdminCall(socket_path, "health", 1.0);
    if (health.find("\"status\":\"ok\"") != std::string::npos) return true;
    ::usleep(2000);
  }
  return false;
}

double JsonNumber(const std::string& json, const std::string& key,
                  double fallback, size_t from) {
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  if (at == std::string::npos) return fallback;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  return end == begin ? fallback : value;
}

LoadGen::LoadGen(std::string socket_path, const WireCorpus* corpus)
    : socket_path_(std::move(socket_path)), corpus_(corpus) {}

LoadGen::~LoadGen() = default;

std::unique_ptr<LoadGen> LoadGen::Connect(const std::string& socket_path,
                                          size_t connections,
                                          const WireCorpus* corpus,
                                          std::string* error) {
  if (connections == 0 || connections > Nproc()) {
    *error = "load generator refuses " + std::to_string(connections) +
             " connections: at most nproc = " + std::to_string(Nproc());
    return nullptr;
  }
  std::unique_ptr<LoadGen> gen(new LoadGen(socket_path, corpus));
  gen->connection_count_ = connections;
  if (!gen->Reconnect(error)) return nullptr;
  return gen;
}

bool LoadGen::Reconnect(std::string* error) {
  conns_.clear();
  for (size_t i = 0; i < connection_count_; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = DialUnix(socket_path_);
    if (conn->fd < 0) {
      *error = "cannot connect to " + socket_path_ + ": " +
               std::strerror(errno);
      return false;
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return true;
}

PhaseResult LoadGen::Run(const PhasePlan& plan) {
  PhaseResult result;
  const bool open_loop = plan.rate > 0.0;
  const size_t planned =
      open_loop ? std::min(plan.max_requests, static_cast<size_t>(std::ceil(
                                                  plan.rate * plan.seconds)))
                : std::numeric_limits<size_t>::max();
  if (open_loop) result.outcomes.reserve(planned);
  const double start = Now() + 0.002;
  const double send_until = start + plan.seconds;
  result.first_due = start;
  size_t outstanding = 0;
  size_t over_limit = 0;  // answered requests slower than abort_over_ms
  size_t next_conn = 0;
  bool sending = true;
  double drain_deadline = 0.0;

  auto fail = [&](size_t index, const std::string& why) {
    Outcome& o = result.outcomes[index];
    o.ok = false;
    ++result.failed;
    if (result.first_error.empty()) result.first_error = why;
  };
  auto send_one = [&](double due, double now) -> bool {
    Conn* best = nullptr;
    for (size_t k = 0; k < conns_.size(); ++k) {
      Conn* c = conns_[(next_conn + k) % conns_.size()].get();
      if (c->alive &&
          (best == nullptr || c->pending.size() < best->pending.size())) {
        best = c;
      }
    }
    if (best == nullptr) return false;
    next_conn = (next_conn + 1) % conns_.size();
    uint64_t seq = plan.first + result.outcomes.size();
    uint32_t doc = plan.doc_at(seq);
    result.outcomes.push_back({due, now, -1.0, doc, false});
    best->pending.push_back(result.outcomes.size() - 1);
    best->out += corpus_->lines[doc];
    ++outstanding;
    return true;
  };
  auto stop_sending = [&](double now) {
    sending = false;
    result.send_end = now;
    result.backlog_end = outstanding;
    drain_deadline = now + plan.drain_seconds;
  };

  std::vector<pollfd> fds(conns_.size());
  char chunk[65536];
  while (true) {
    double now = Now();
    if (sending) {
      if (open_loop) {
        size_t i = result.outcomes.size();
        auto due = [&](size_t k) {
          return start + static_cast<double>(k) / plan.rate;
        };
        while (i < planned && due(i) <= now) {
          if (!send_one(due(i), now)) break;
          ++i;
          if (i == planned / 2) result.backlog_mid = outstanding;
        }
        if (i >= planned) stop_sending(now);
      } else if (now >= send_until ||
                 result.outcomes.size() >= plan.max_requests) {
        stop_sending(now);
      } else {
        while (outstanding < plan.depth * conns_.size() &&
               result.outcomes.size() < plan.max_requests) {
          if (!send_one(now, now)) break;
        }
      }
      if (sending && open_loop && plan.abort_over_ms > 0.0) {
        // Requests still waiting longer than the limit will miss it too.
        size_t waiting_over = 0;
        double cutoff = now - plan.abort_over_ms * 1e-3;
        for (auto& c : conns_) {
          for (size_t index : c->pending) {
            if (result.outcomes[index].due >= cutoff) break;
            ++waiting_over;
          }
        }
        if (static_cast<double>(over_limit + waiting_over) >
            0.01 * static_cast<double>(planned)) {
          result.aborted = true;
          stop_sending(now);
        }
      }
      bool any_alive = false;
      for (auto& c : conns_) any_alive = any_alive || c->alive;
      if (!any_alive && sending) stop_sending(now);
    }
    if (!sending && (outstanding == 0 || now > drain_deadline)) break;

    // Write what is buffered, then wait for input or the next due time.
    for (size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = *conns_[k];
      while (c.alive && c.out_offset < c.out.size()) {
        ssize_t n = ::send(c.fd, c.out.data() + c.out_offset,
                           c.out.size() - c.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_offset += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) c.alive = false;
          break;
        }
      }
      if (c.out_offset == c.out.size()) {
        c.out.clear();
        c.out_offset = 0;
      }
      fds[k].fd = c.alive ? c.fd : -1;
      fds[k].events = static_cast<short>(
          POLLIN | (c.out.empty() ? 0 : POLLOUT));
      fds[k].revents = 0;
    }
    double wake = sending ? (open_loop ? start + static_cast<double>(
                                                  result.outcomes.size()) /
                                                  plan.rate
                                       : send_until)
                          : drain_deadline;
    double wait = std::min(std::max(wake - Now(), 0.0), 0.05);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec =
        static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = *conns_[k];
      if (!c.alive || (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      while (true) {
        ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
          c.in.append(chunk, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          c.alive = false;
        }
        break;
      }
      double done = Now();
      size_t begin = 0;
      for (size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', begin)) {
        if (c.pending.empty()) {
          if (result.first_error.empty()) {
            result.first_error = "response without a request";
          }
          ++result.failed;
          begin = nl + 1;
          continue;
        }
        size_t index = c.pending.front();
        c.pending.pop_front();
        --outstanding;
        Outcome& o = result.outcomes[index];
        o.done = done;
        const std::string& ref = corpus_->refs[o.doc];
        o.ok = nl - begin == ref.size() &&
               c.in.compare(begin, ref.size(), ref) == 0;
        if (!o.ok) {
          fail(index,
               "response to document " + std::to_string(o.doc) +
                   " differs from its reference: " +
                   c.in.substr(begin, std::min<size_t>(nl - begin, 200)));
        }
        if (plan.abort_over_ms > 0.0 &&
            (done - o.due) * 1e3 > plan.abort_over_ms) {
          ++over_limit;
        }
        begin = nl + 1;
      }
      c.in.erase(0, begin);
      if (!c.alive) {
        for (size_t index : c.pending) {
          fail(index, "connection closed with requests outstanding");
          --outstanding;
        }
        c.pending.clear();
      }
    }
  }
  if (outstanding > 0) {
    // Unanswered after the drain: count them, and reconnect so the next
    // phase does not read their late responses.
    for (auto& c : conns_) {
      for (size_t index : c->pending) fail(index, "no response after drain");
    }
    std::string error;
    if (!Reconnect(&error) && result.first_error.empty()) {
      result.first_error = error;
    }
  }
  return result;
}

}  // namespace vs2bench

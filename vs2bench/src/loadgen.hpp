#ifndef VS2BENCH_LOADGEN_HPP_
#define VS2BENCH_LOADGEN_HPP_

/// \file loadgen.hpp
/// Single-threaded load generator over newline-JSON Unix-socket
/// connections. One thread drives every connection through `ppoll`; it
/// never uses more connections than the machine has processors.
///
/// Open loop: request i is due at `start + i / rate` whatever the system is
/// doing; it is written to the least-loaded connection (lines pipeline on a
/// connection, whose responses come back in order) and its latency is
/// measured from its due time, so a stall is charged to every request it
/// delays. How late the generator itself ran (send time minus due time) is
/// recorded separately. Closed loop: each connection keeps `depth` requests
/// outstanding.
///
/// Every response is byte-compared to the reference response of its
/// document; an error line, a mismatch, a dead connection or a request left
/// unanswered after the drain counts as failed.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace vs2bench {

/// The wire form of a workload's distinct documents.
struct WireCorpus {
  std::vector<std::string> lines;  ///< request line, '\n'-terminated
  std::vector<std::string> refs;   ///< expected response, no newline
};

/// Maps a request's sequence number to the document it sends.
using DocSequence = std::function<uint32_t(uint64_t)>;

/// What one phase sends.
struct PhasePlan {
  DocSequence doc_at;
  uint64_t first = 0;        ///< sequence number of the first request
  double rate = 0.0;         ///< > 0: open loop at this many requests/s
  size_t depth = 0;          ///< closed loop: outstanding per connection
  size_t max_requests = SIZE_MAX;  ///< stop after this many requests
  double seconds = 1.0;      ///< sending window
  double drain_seconds = 30.0;
  /// Open loop only, 0 = off: stop sending once more than 1% of the
  /// planned requests are known to exceed this latency (a max-rate probe
  /// that has already failed need not run to the end).
  double abort_over_ms = 0.0;
};

/// One request's timeline (steady-clock seconds; done < 0 = unanswered).
struct Outcome {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
  uint32_t doc = 0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  ///< in send order
  size_t failed = 0;
  bool aborted = false;
  size_t backlog_mid = 0;  ///< outstanding halfway through sending
  size_t backlog_end = 0;  ///< outstanding when sending stopped
  double first_due = 0.0;
  double send_end = 0.0;   ///< when sending stopped
  std::string first_error;

  size_t sent() const { return outcomes.size(); }
  size_t completed() const;
  /// done - due of answered requests, ms; unanswered ones are +inf.
  std::vector<double> LatenciesMs() const;
  /// sent - due, ms.
  std::vector<double> LatenessMs() const;
};

/// Processors this process may run on (what `nproc` prints).
size_t Nproc();

class LoadGen {
 public:
  /// Opens `connections` connections to `socket_path`. Refuses (returns
  /// null, with `error` set) when asked for more connections than `Nproc()`.
  static std::unique_ptr<LoadGen> Connect(const std::string& socket_path,
                                          size_t connections,
                                          const WireCorpus* corpus,
                                          std::string* error);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  PhaseResult Run(const PhasePlan& plan);

  size_t connections() const { return conns_.size(); }

 private:
  struct Conn;
  LoadGen(std::string socket_path, const WireCorpus* corpus);
  bool Reconnect(std::string* error);

  std::string socket_path_;
  const WireCorpus* corpus_;
  size_t connection_count_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Sends one admin line (`{"cmd":"<cmd>"}`) on a fresh connection and
/// returns the response line, or "" on failure.
std::string AdminCall(const std::string& socket_path, const std::string& cmd,
                      double timeout_seconds);

/// Polls `{"cmd":"health"}` until it answers with status ok or `timeout`
/// passes.
bool WaitHealthy(const std::string& socket_path, double timeout_seconds);

/// Reads the number after `"key":` in a one-line JSON object, starting the
/// search at `from`; `fallback` when absent.
double JsonNumber(const std::string& json, const std::string& key,
                  double fallback = 0.0, size_t from = 0);

}  // namespace vs2bench

#endif  // VS2BENCH_LOADGEN_HPP_

#ifndef SNAKES_OBS_SLO_WINDOW_H_
#define SNAKES_OBS_SLO_WINDOW_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/request_context.h"

namespace snakes {

/// Sliding-window latency / error-rate tracker for one tenant: a ring of
/// `buckets` time slices, each holding a per-verb log-scale histogram plus
/// error counts. Requests record into the current slice lock-free (relaxed
/// atomics, same discipline as Histogram); a periodic sampler calls
/// Advance() to rotate the ring, which retires the oldest slice — so a
/// Snapshot always reflects roughly the last `buckets * cadence` of
/// traffic instead of the whole process lifetime. That recency is what
/// makes the p99 an SLO signal: a latency regression shows up within one
/// window instead of being averaged away by hours of healthy history.
///
/// Rotation is deliberately approximate: a request racing an Advance() may
/// land in the slice being cleared and be partially dropped. The window is
/// a statistical signal, not an audit log (the FlightRecorder is the audit
/// log) — in exchange, Record stays a handful of relaxed atomic adds.
class SloWindow {
 public:
  static constexpr int kDefaultBuckets = 8;

  explicit SloWindow(int buckets = kDefaultBuckets);
  SloWindow(const SloWindow&) = delete;
  SloWindow& operator=(const SloWindow&) = delete;

  /// Records one completed request of `verb` into the current slice.
  void Record(RequestVerb verb, uint64_t latency_ns, bool error);

  /// Rotates the ring: the oldest slice is cleared and becomes current.
  void Advance();

  int num_buckets() const { return num_buckets_; }
  uint64_t advances() const {
    return advances_.load(std::memory_order_relaxed);
  }

  /// Windowed aggregates for one verb.
  struct VerbStats {
    uint64_t count = 0;
    uint64_t errors = 0;
    uint64_t sum_ns = 0;
    double error_rate = 0.0;  // errors / count (0 when empty)
    double p50_ns = 0.0;
    double p99_ns = 0.0;
  };

  /// Point-in-time merge of every live slice, per verb.
  struct Snapshot {
    std::array<VerbStats, kNumRequestVerbs> verbs;
    uint64_t advances = 0;
    /// Requests across all verbs in the window.
    uint64_t total = 0;
  };

  Snapshot Snap() const;

 private:
  /// One (slice, verb) accumulator. The request count is the histogram's
  /// total, so Record pays no separate count add.
  struct Cell {
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> hist[Histogram::kNumBuckets] = {};
  };

  Cell& cell(uint64_t slice, int verb) {
    return cells_[slice * kNumRequestVerbs + static_cast<uint64_t>(verb)];
  }
  const Cell& cell(uint64_t slice, int verb) const {
    return cells_[slice * kNumRequestVerbs + static_cast<uint64_t>(verb)];
  }

  const int num_buckets_;
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> advances_{0};
  std::vector<Cell> cells_;
};

}  // namespace snakes

#endif  // SNAKES_OBS_SLO_WINDOW_H_

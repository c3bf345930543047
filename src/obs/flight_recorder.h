#ifndef SNAKES_OBS_FLIGHT_RECORDER_H_
#define SNAKES_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request_context.h"

namespace snakes {

/// One completed request, condensed to plain integers so a record fits in a
/// handful of atomic words: who (tenant), what (verb), when (enqueue/start/
/// finish on the service's epoch clock), how it ended (status), and what it
/// touched (pages, partitions pruned).
struct RequestRecord {
  uint64_t id = 0;
  uint64_t tenant = kNoTenant;
  RequestVerb verb = RequestVerb::kUnknown;
  StatusCode status = StatusCode::kOk;
  uint64_t enqueue_ns = 0;
  uint64_t start_ns = 0;
  uint64_t finish_ns = 0;
  uint64_t pages = 0;
  uint64_t partitions_pruned = 0;

  uint64_t queue_ns() const {
    return start_ns >= enqueue_ns ? start_ns - enqueue_ns : 0;
  }
  uint64_t compute_ns() const {
    return finish_ns >= start_ns ? finish_ns - start_ns : 0;
  }

  /// One-line JSON object ({"id": .., "tenant": .., ...}).
  std::string ToJson() const;
};

/// Always-on, fixed-capacity ring buffer of the last `capacity` completed
/// RequestRecords — the "flight recorder" a production incident is debugged
/// from. Designed to stay enabled under full traffic:
///
///  * Record takes no lock and one atomic read-modify-write: a writer
///    claims a slot with one relaxed fetch_add on the ticket counter, then
///    publishes the payload under a per-slot sequence word (seqlock: odd =
///    being written, even = ticket of the last complete write). Writers own
///    a slot in ticket order, so a writer a full wrap ahead (a wrap race,
///    capacity apart) waits only for the previous lap's 9-word copy, and an
///    older record never overwrites a newer one; readers never block
///    writers.
///  * Snapshot is safe concurrently with any number of writers: it reads
///    each slot's payload between two acquire-loads of the sequence word
///    and drops the record if the slot changed in between — torn records
///    are impossible by construction, they are re-read or skipped, never
///    returned. Returned records are sorted by id (strictly increasing).
///
/// Payload fields are relaxed atomics, so the recorder is exactly as safe
/// under TSan as it claims to be. On the first record whose status is not
/// OK, a one-shot error hook fires (SetErrorHook) — the service wires this
/// to dump the recorder to disk, so the artifact of "what led up to the
/// first failure" exists without anyone asking for it.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one completed request. Lock-free; safe from any thread.
  void Record(const RequestRecord& record);

  size_t capacity() const { return slots_.size(); }
  /// Total records ever written (recorded() - capacity() have been
  /// overwritten when recorded() > capacity()).
  uint64_t recorded() const {
    return next_ticket_.load(std::memory_order_relaxed);
  }

  /// Consistent point-in-time copy of the resident records, sorted by id.
  /// Slots mid-write (or overwritten while being read) are skipped, so the
  /// result may briefly hold fewer than min(recorded, capacity) records —
  /// never a torn one.
  std::vector<RequestRecord> Snapshot() const;

  /// {"capacity": .., "recorded": .., "requests": [...]}. `pretty` puts one
  /// record per line.
  std::string ToJson(bool pretty = true) const;

  /// Installs the one-shot hook invoked (once, from the recording thread)
  /// on the first non-OK record. Passing nullptr uninstalls.
  void SetErrorHook(std::function<void(const RequestRecord&)> hook);

 private:
  static constexpr int kPayloadWords = 9;

  struct Slot {
    /// 0 = never written; odd = write in progress; even = 2 * (ticket + 1)
    /// of the completed write.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kPayloadWords] = {};
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_ticket_{0};
  std::atomic<bool> error_fired_{false};
  mutable std::mutex hook_mu_;
  std::function<void(const RequestRecord&)> error_hook_;
};

}  // namespace snakes

#endif  // SNAKES_OBS_FLIGHT_RECORDER_H_

#include "obs/flight_recorder.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace snakes {

namespace {

void Pack(const RequestRecord& r, uint64_t out[9]) {
  out[0] = r.id;
  out[1] = r.tenant;
  out[2] = static_cast<uint64_t>(r.verb);
  out[3] = static_cast<uint64_t>(r.status);
  out[4] = r.enqueue_ns;
  out[5] = r.start_ns;
  out[6] = r.finish_ns;
  out[7] = r.pages;
  out[8] = r.partitions_pruned;
}

RequestRecord Unpack(const uint64_t w[9]) {
  RequestRecord r;
  r.id = w[0];
  r.tenant = w[1];
  r.verb = static_cast<RequestVerb>(w[2]);
  r.status = static_cast<StatusCode>(w[3]);
  r.enqueue_ns = w[4];
  r.start_ns = w[5];
  r.finish_ns = w[6];
  r.pages = w[7];
  r.partitions_pruned = w[8];
  return r;
}

}  // namespace

std::string RequestRecord::ToJson() const {
  std::string out = "{\"id\": " + std::to_string(id);
  out += ", \"tenant\": ";
  out += tenant == kNoTenant ? std::string("null") : std::to_string(tenant);
  out += ", \"verb\": \"" + std::string(RequestVerbName(verb)) + "\"";
  out += ", \"status\": \"" + std::string(StatusCodeName(status)) + "\"";
  out += ", \"enqueue_ns\": " + std::to_string(enqueue_ns);
  out += ", \"queue_ns\": " + std::to_string(queue_ns());
  out += ", \"compute_ns\": " + std::to_string(compute_ns());
  out += ", \"pages\": " + std::to_string(pages);
  out += ", \"partitions_pruned\": " + std::to_string(partitions_pruned);
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(const RequestRecord& record) {
  const uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t capacity = slots_.size();
  Slot& slot = slots_[ticket % capacity];

  // Writers own a slot in ticket order: ticket t may write only once the
  // previous lap's writer (ticket t - capacity) has published, so a wrap
  // race resolves without a compare-and-swap and never lets an older record
  // overwrite a newer one. The wait is almost always one load; yield while
  // it is not, since the previous writer may be preempted mid-copy and on
  // few cores a hot spin would keep it off the CPU.
  const uint64_t prev = ticket < capacity ? 0 : 2 * (ticket - capacity + 1);
  while (slot.seq.load(std::memory_order_acquire) != prev) {
    std::this_thread::yield();
  }
  // Mark the slot "writing" (odd); the release fence orders the mark
  // before the payload, so a reader that sees any new payload word also
  // sees the sequence move.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  uint64_t words[kPayloadWords];
  Pack(record, words);
  for (int i = 0; i < kPayloadWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  // Publish: even sequence encoding the ticket, release so a reader that
  // acquires it sees the full payload.
  slot.seq.store(2 * (ticket + 1), std::memory_order_release);

  if (record.status != StatusCode::kOk &&
      !error_fired_.exchange(true, std::memory_order_relaxed)) {
    std::function<void(const RequestRecord&)> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = error_hook_;
    }
    if (hook) hook(record);
  }
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  std::vector<RequestRecord> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    uint64_t words[kPayloadWords];
    for (int i = 0; i < kPayloadWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    out.push_back(Unpack(words));
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  return out;
}

std::string FlightRecorder::ToJson(bool pretty) const {
  const std::vector<RequestRecord> records = Snapshot();
  const char* nl = pretty ? "\n" : "";
  const char* ind = pretty ? "  " : "";
  std::string out = "{";
  out += nl;
  out += ind;
  out += "\"capacity\": " + std::to_string(capacity()) + ",";
  out += nl;
  out += ind;
  out += "\"recorded\": " + std::to_string(recorded()) + ",";
  out += nl;
  out += ind;
  out += "\"requests\": [";
  out += nl;
  for (size_t i = 0; i < records.size(); ++i) {
    out += ind;
    out += ind;
    out += records[i].ToJson();
    if (i + 1 < records.size()) out += ",";
    out += nl;
  }
  out += ind;
  out += "]";
  out += nl;
  out += "}";
  return out;
}

void FlightRecorder::SetErrorHook(
    std::function<void(const RequestRecord&)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  error_hook_ = std::move(hook);
}

}  // namespace snakes

#ifndef SNAKES_OBS_REQUEST_CONTEXT_H_
#define SNAKES_OBS_REQUEST_CONTEXT_H_

#include <cstdint>
#include <string_view>

#include "util/status.h"

namespace snakes {

/// The request verbs a serving layer attributes work to. One enum shared by
/// the request context, the flight recorder, and the SLO windows so a
/// record's verb is a single byte instead of an interned string.
enum class RequestVerb : uint8_t {
  kUnknown = 0,
  kIngest,
  kEndEpoch,
  kAdvise,
  kQuery,
  kMeasure,
  kRecluster,
  kBackend,
  kStatus,
  kRegister,
  kTelemetry,
  kCostModel,
};

/// Number of distinct RequestVerb values (array-index bound).
inline constexpr int kNumRequestVerbs = 12;

/// Short stable name ("query", "end-epoch", ...) for reports and JSON.
const char* RequestVerbName(RequestVerb verb);

/// Parses the textual Dispatch verb ("advise", "end-epoch", ...) into a
/// RequestVerb; kUnknown for anything unrecognized.
RequestVerb ParseRequestVerb(std::string_view verb);

/// Sentinel tenant for requests that never resolved one (unknown tenant
/// names, registration failures).
inline constexpr uint64_t kNoTenant = UINT64_MAX;

/// One in-flight request: a monotonic id, the tenant and verb it serves,
/// its enqueue/start/finish timestamps (nanoseconds on the owning service's
/// epoch clock), the result status, and the I/O it touched. The serving
/// layer installs the active context in a thread-local (RequestContextScope),
/// so instrumentation deep in the library — ScopedSpan in particular — can
/// attribute work to a real request id without any parameter plumbing:
/// every span recorded while a context is active carries an "rid" arg, which
/// is what nests advisor/storage spans under the request in a Chrome trace.
struct RequestContext {
  uint64_t id = 0;
  uint64_t tenant = kNoTenant;
  RequestVerb verb = RequestVerb::kUnknown;
  uint64_t enqueue_ns = 0;  // submit time (== start_ns for sync calls)
  uint64_t start_ns = 0;    // when the handler began computing
  uint64_t finish_ns = 0;   // when the handler returned
  StatusCode status = StatusCode::kOk;
  uint64_t pages = 0;              // pages the request touched
  uint64_t partitions_pruned = 0;  // partitions holding none of its records

  /// The context of the request this thread is serving; null outside any
  /// request. The service's request handler installs exactly one per
  /// request, for the whole request.
  static RequestContext* Current();
};

/// RAII: makes `ctx` the thread's current request context, restoring the
/// previous one (usually null) on destruction.
class RequestContextScope {
 public:
  explicit RequestContextScope(RequestContext* ctx);
  ~RequestContextScope();
  RequestContextScope(const RequestContextScope&) = delete;
  RequestContextScope& operator=(const RequestContextScope&) = delete;

 private:
  RequestContext* prev_;
};

}  // namespace snakes

#endif  // SNAKES_OBS_REQUEST_CONTEXT_H_

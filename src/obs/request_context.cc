#include "obs/request_context.h"

namespace snakes {

namespace {
thread_local RequestContext* tls_current_request = nullptr;
}  // namespace

const char* RequestVerbName(RequestVerb verb) {
  switch (verb) {
    case RequestVerb::kUnknown:
      return "unknown";
    case RequestVerb::kIngest:
      return "ingest";
    case RequestVerb::kEndEpoch:
      return "end-epoch";
    case RequestVerb::kAdvise:
      return "advise";
    case RequestVerb::kQuery:
      return "query";
    case RequestVerb::kMeasure:
      return "measure";
    case RequestVerb::kRecluster:
      return "recluster";
    case RequestVerb::kBackend:
      return "backend";
    case RequestVerb::kStatus:
      return "status";
    case RequestVerb::kRegister:
      return "register";
    case RequestVerb::kTelemetry:
      return "telemetry";
    case RequestVerb::kCostModel:
      return "costmodel";
  }
  return "unknown";
}

RequestVerb ParseRequestVerb(std::string_view verb) {
  if (verb == "ingest") return RequestVerb::kIngest;
  if (verb == "end-epoch") return RequestVerb::kEndEpoch;
  if (verb == "advise") return RequestVerb::kAdvise;
  if (verb == "query") return RequestVerb::kQuery;
  if (verb == "measure") return RequestVerb::kMeasure;
  if (verb == "recluster") return RequestVerb::kRecluster;
  if (verb == "backend") return RequestVerb::kBackend;
  if (verb == "status") return RequestVerb::kStatus;
  if (verb == "register") return RequestVerb::kRegister;
  if (verb == "telemetry") return RequestVerb::kTelemetry;
  if (verb == "costmodel") return RequestVerb::kCostModel;
  return RequestVerb::kUnknown;
}

RequestContext* RequestContext::Current() { return tls_current_request; }

RequestContextScope::RequestContextScope(RequestContext* ctx)
    : prev_(tls_current_request) {
  tls_current_request = ctx;
}

RequestContextScope::~RequestContextScope() { tls_current_request = prev_; }

}  // namespace snakes

#include "granula/serve/fleet_service.h"

#include <utility>
#include <vector>

#include "common/strings.h"
#include "granula/live/log_tailer.h"
#include "granula/monitor/job_logger.h"

namespace granula::serve {

using core::FleetSupervisor;
using core::LogRecord;

HttpResponse FleetService::Handle(const HttpRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response = Route(request);
  if (response.status >= 400) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

HttpResponse FleetService::Route(const HttpRequest& request) {
  const std::vector<std::string>& seg = request.segments;

  if (!seg.empty() && seg[0] == "archives") {
    if (archives_ == nullptr) {
      return MakeErrorResponse(404, "not_found",
                               "this fleet daemon has no output repository");
    }
    return archives_->Handle(request);
  }

  if (request.method == "POST") {
    if (seg.size() == 3 && seg[0] == "jobs" && seg[2] == "records") {
      return IngestRecords(request, seg[1]);
    }
    if (seg.empty() || (seg.size() == 1 &&
                        (seg[0] == "fleet" || seg[0] == "stats"))) {
      HttpResponse response = MakeErrorResponse(
          405, "method_not_allowed", "this route is read-only");
      response.headers.emplace_back("Allow", "GET, HEAD");
      return response;
    }
    return MakeErrorResponse(404, "not_found",
                             "unknown POST target '" + request.path + "'");
  }
  if (request.method != "GET" && request.method != "HEAD") {
    HttpResponse response = MakeErrorResponse(
        405, "method_not_allowed", "use GET, HEAD, or POST /jobs/...");
    response.headers.emplace_back("Allow", "GET, HEAD, POST");
    return response;
  }

  if (seg.empty()) {
    Json index = Json::MakeObject();
    index["service"] = "granula-fleet";
    Json endpoints = Json::MakeArray();
    endpoints.Append("POST /jobs/<name>/records");
    endpoints.Append("/fleet");
    endpoints.Append("/stats");
    if (archives_ != nullptr) endpoints.Append("/archives");
    index["endpoints"] = std::move(endpoints);
    HttpResponse response;
    response.body = index.Dump(2) + "\n";
    return response;
  }
  if (seg.size() == 1 && seg[0] == "fleet") return GetFleet();
  if (seg.size() == 1 && seg[0] == "stats") return GetStats();
  return MakeErrorResponse(404, "not_found",
                           "unknown path '" + request.path + "'");
}

HttpResponse FleetService::IngestRecords(const HttpRequest& request,
                                         const std::string& job) {
  std::string model;
  auto model_it = request.query.find("model");
  if (model_it != request.query.end()) model = model_it->second;

  // Parse the JSONL body on this worker thread so the supervisor only
  // ever sees ready records. Lines follow the live readers' shared rule
  // (the body's end ends its last line); a body with no valid record at
  // all is a client error.
  std::vector<LogRecord> records;
  core::JsonlLineDecoder lines;
  uint64_t malformed = lines.Feed(request.body, records);
  malformed += lines.Finish(records);
  if (records.empty() && malformed == 0) {
    return MakeErrorResponse(400, "empty_body",
                             "POST body must carry JSONL log records");
  }
  if (records.empty()) {
    return MakeErrorResponse(
        400, "malformed_body",
        StrFormat("all %llu lines were malformed",
                  static_cast<unsigned long long>(malformed)));
  }

  size_t count = records.size();
  Result<size_t> queued =
      fleet_->Ingest(job, std::move(records), malformed, model);
  if (!queued.ok()) {
    const Status& status = queued.status();
    switch (status.code()) {
      case StatusCode::kOutOfRange:
        shed_batches_.fetch_add(1, std::memory_order_relaxed);
        return MakeErrorResponse(429, "queue_full", status.message());
      case StatusCode::kFailedPrecondition:
        return MakeErrorResponse(409, "job_finalized", status.message());
      default:
        return MakeErrorResponse(400, "bad_request", status.message());
    }
  }
  ingest_batches_.fetch_add(1, std::memory_order_relaxed);
  ingest_records_.fetch_add(count, std::memory_order_relaxed);
  ingest_malformed_.fetch_add(malformed, std::memory_order_relaxed);

  Json body_json = Json::MakeObject();
  body_json["job"] = job;
  body_json["queued"] = static_cast<uint64_t>(*queued);
  body_json["malformed"] = malformed;
  HttpResponse response;
  response.body = body_json.Dump(0) + "\n";
  return response;
}

HttpResponse FleetService::GetFleet() {
  FleetSupervisor::Stats stats = fleet_->stats();
  Json out = Json::MakeObject();
  out["running"] = fleet_->running();
  out["jobs"] = stats.jobs;
  out["active"] = stats.active;
  out["complete"] = stats.complete;
  out["incomplete"] = stats.incomplete;
  out["records"] = stats.records;
  out["alerts"] = stats.alerts;

  Json jobs = Json::MakeArray();
  for (const FleetSupervisor::JobStatus& job : fleet_->JobStatuses()) {
    Json j = Json::MakeObject();
    j["name"] = job.name;
    j["transport"] = job.transport;
    j["state"] = FleetSupervisor::JobStateName(job.state);
    j["records"] = job.records;
    j["malformed"] = job.malformed;
    j["queued"] = job.queued;
    j["shed_batches"] = job.shed_batches;
    j["shed_records"] = job.shed_records;
    j["alerts"] = job.alerts;
    j["reconnects"] = job.reconnects;
    j["rotations"] = job.rotations;
    j["source_lost"] = job.source_lost;
    if (!job.archive_name.empty()) j["archive"] = job.archive_name;
    if (!job.error.empty()) j["error"] = job.error;
    jobs.Append(std::move(j));
  }
  out["job_list"] = std::move(jobs);

  HttpResponse response;
  response.body = out.Dump(2) + "\n";
  return response;
}

HttpResponse FleetService::GetStats() {
  FleetSupervisor::Stats fleet = fleet_->stats();
  Json out = Json::MakeObject();

  Json transport = Json::MakeObject();
  transport["connections"] =
      transport_.connections.load(std::memory_order_relaxed);
  transport["rejected"] = transport_.rejected.load(std::memory_order_relaxed);
  transport["timeouts"] = transport_.timeouts.load(std::memory_order_relaxed);
  out["transport"] = std::move(transport);

  Json ingest = Json::MakeObject();
  ingest["requests"] = requests_.load(std::memory_order_relaxed);
  ingest["errors"] = errors_.load(std::memory_order_relaxed);
  ingest["batches"] = ingest_batches_.load(std::memory_order_relaxed);
  ingest["records"] = ingest_records_.load(std::memory_order_relaxed);
  ingest["malformed"] = ingest_malformed_.load(std::memory_order_relaxed);
  ingest["shed_batches"] = shed_batches_.load(std::memory_order_relaxed);
  out["ingest"] = std::move(ingest);

  Json supervisor = Json::MakeObject();
  supervisor["jobs"] = fleet.jobs;
  supervisor["active"] = fleet.active;
  supervisor["complete"] = fleet.complete;
  supervisor["incomplete"] = fleet.incomplete;
  supervisor["records"] = fleet.records;
  supervisor["malformed"] = fleet.malformed;
  supervisor["shed_batches"] = fleet.shed_batches;
  supervisor["shed_records"] = fleet.shed_records;
  supervisor["alerts"] = fleet.alerts;
  supervisor["ticks"] = fleet.ticks;
  out["fleet"] = std::move(supervisor);

  Json sinks = Json::MakeArray();
  for (const auto& sink : sinks_) {
    core::RetryingAlertSink::Stats stats = sink->stats();
    Json s = Json::MakeObject();
    s["sink"] = sink->describe();
    s["enqueued"] = stats.enqueued;
    s["delivered"] = stats.delivered;
    s["attempts"] = stats.attempts;
    s["retries"] = stats.retries;
    s["dead_lettered"] = stats.dead_lettered;
    s["dropped_overflow"] = stats.dropped_overflow;
    s["dead_letter_errors"] = stats.dead_letter_errors;
    s["pending"] = stats.pending;
    sinks.Append(std::move(s));
  }
  out["alert_sinks"] = std::move(sinks);

  HttpResponse response;
  response.body = out.Dump(2) + "\n";
  return response;
}

}  // namespace granula::serve

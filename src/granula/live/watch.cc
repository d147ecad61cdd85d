#include "granula/live/watch.h"

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "granula/live/alert_sink.h"
#include "granula/live/record_source.h"
#include "granula/visual/text.h"

namespace granula::core {

namespace {

constexpr char kJob[] = "watch";

// Fans the supervisor's alerts out to watch's outputs until closed —
// watch closes it before a timeout's drain, since findings on the tree
// the drain force-closes would be guesses. Watch ticks the supervisor on
// its own thread, so no lock.
class GatedSink : public AlertSink {
 public:
  void OnAlert(const LiveAlert& alert) override {
    if (closed) return;
    for (const std::unique_ptr<AlertSink>& output : outputs) {
      output->OnAlert(alert);
    }
  }
  void Flush() override {
    for (const std::unique_ptr<AlertSink>& output : outputs) output->Flush();
  }

  std::vector<std::unique_ptr<AlertSink>> outputs;
  bool closed = false;
};

void Redraw(std::FILE* out, const PerformanceArchive& archive,
            const std::vector<LiveAlert>& alerts,
            const FleetSupervisor::JobStatus& status, int max_depth) {
  std::fprintf(out, "\x1b[2J\x1b[H");  // clear screen, home cursor
  std::fprintf(out,
               "granula watch — records %llu, open %llu, finalized %llu, "
               "watermark %s\n\n",
               static_cast<unsigned long long>(
                   status.archiver.records_ingested),
               static_cast<unsigned long long>(
                   status.archiver.open_operations),
               static_cast<unsigned long long>(
                   status.archiver.finalized_operations),
               status.watermark.ToString().c_str());
  std::fprintf(out, "%s\n", RenderOperationTree(archive, max_depth).c_str());
  if (!alerts.empty()) {
    std::fprintf(out, "alerts (%zu):\n", alerts.size());
    TerminalAlertSink ticker(out);
    const size_t first = alerts.size() > 5 ? alerts.size() - 5 : 0;
    for (size_t i = first; i < alerts.size(); ++i) ticker.OnAlert(alerts[i]);
  }
  std::fflush(out);
}

bool Finalized(FleetSupervisor::JobState state) {
  return state == FleetSupervisor::JobState::kComplete ||
         state == FleetSupervisor::JobState::kIncomplete;
}

}  // namespace

Result<WatchSummary> WatchLog(const PerformanceModel& model,
                              const WatchOptions& options, std::FILE* out) {
  GRANULA_RETURN_IF_ERROR(model.Validate());
  FleetSupervisor fleet(model, options.fleet);

  // Alert outputs: the terminal line printer (non-ANSI mode only; the
  // ANSI redraw shows the alert ticker itself) plus an optional JSONL file.
  auto gate = std::make_shared<GatedSink>();
  if (out != nullptr && !options.ansi) {
    gate->outputs.push_back(std::make_unique<TerminalAlertSink>(out));
  }
  if (!options.alert_jsonl_path.empty()) {
    GRANULA_ASSIGN_OR_RETURN(std::unique_ptr<JsonlAlertSink> jsonl,
                             JsonlAlertSink::Open(options.alert_jsonl_path));
    gate->outputs.push_back(std::move(jsonl));
  }
  fleet.AddAlertSink(gate);
  GRANULA_RETURN_IF_ERROR(fleet.AddSource(
      kJob, std::make_unique<FileRecordSource>(options.log_path)));

  const MonotonicClock now = OrSteadyClock(options.fleet.now);
  const double deadline_s = now() + options.timeout_s;
  WatchSummary summary;
  FleetSupervisor::JobStatus status;
  std::vector<LiveAlert> alerts;
  while (true) {
    fleet.Tick();
    const FleetSupervisor::JobStatus last = std::move(status);
    status = fleet.JobStatuses().front();
    // New records mean the supervisor re-snapshotted (and re-alerted).
    const bool fresh_records = status.records > last.records;
    if (fresh_records) ++summary.snapshots;
    if (out != nullptr && options.ansi) {
      if (fresh_records || status.alerts > last.alerts) {
        alerts = fleet.Alerts(kJob);
        Result<PerformanceArchive> snapshot = fleet.Archive(kJob);
        if (snapshot.ok()) {
          Redraw(out, *snapshot, alerts, status, options.max_depth);
        }
      }
    } else if (out != nullptr) {
      if (!options.quiet && status.rotations > last.rotations) {
        std::fprintf(out, "[watch] log rotated; restarting assembly\n");
      }
      if (!options.quiet && fresh_records) {
        std::fprintf(
            out, "[watch] records=%llu open=%llu watermark=%s\n",
            static_cast<unsigned long long>(status.archiver.records_ingested),
            static_cast<unsigned long long>(status.archiver.open_operations),
            status.watermark.ToString().c_str());
      }
      std::fflush(out);
    }
    if (Finalized(status.state)) {
      summary.completed = true;
      break;
    }
    if (now() >= deadline_s) break;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options.fleet.poll_interval_ms));
  }

  // On completion the job's status, archive and alerts are the sealed,
  // batch-identical ones. On timeout, read them BEFORE the drain: the
  // analyst wants the in-flight watermark view of the stalled job, not the
  // force-finalized guess the drain seals (and would analyze once more).
  Result<PerformanceArchive> archive = fleet.Archive(kJob);
  alerts = fleet.Alerts(kJob);
  gate->closed = true;
  fleet.Drain();
  summary.records_ingested = status.records;
  summary.malformed_lines = status.malformed;
  summary.rotations = status.rotations;
  summary.archiver_stats = status.archiver;
  summary.alerts = alerts.size();
  for (const LiveAlert& alert : alerts) {
    if (alert.in_flight) ++summary.in_flight_alerts;
    if (alert.finding.kind == FindingKind::kStalledJob) ++summary.stall_alerts;
  }
  if (archive.ok()) {
    summary.archive = std::move(*archive);
    if (out == nullptr) {
      // Headless mode: skip the final render.
    } else if (options.ansi) {
      Redraw(out, summary.archive, alerts, status, options.max_depth);
    } else {
      std::fprintf(out, "%s",
                   RenderOperationTree(summary.archive, options.max_depth)
                       .c_str());
    }
    std::vector<Finding> findings;
    findings.reserve(alerts.size());
    for (const LiveAlert& alert : alerts) findings.push_back(alert.finding);
    if (out != nullptr && !findings.empty()) {
      std::fprintf(out, "%s", RenderFindings(findings).c_str());
    }
  }
  if (out != nullptr) {
    std::fprintf(out, "[watch] %s: %llu record(s), %llu alert(s)%s\n",
                 summary.completed ? "job completed" : "timed out",
                 static_cast<unsigned long long>(summary.records_ingested),
                 static_cast<unsigned long long>(summary.alerts),
                 summary.completed ? "" : " (job still in flight)");
    std::fflush(out);
  }
  return summary;
}

}  // namespace granula::core

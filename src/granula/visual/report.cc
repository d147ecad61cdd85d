#include "granula/visual/report.h"

#include <fstream>

#include "common/strings.h"
#include "granula/visual/svg.h"

namespace granula::core {

namespace {

void AppendOperationRows(const ArchivedOperation& op, int depth,
                         int max_depth, double root_seconds,
                         std::string* out) {
  double seconds = op.Duration().seconds();
  *out += StrFormat(
      "<tr><td style=\"padding-left:%dpx\">%s</td><td>%s</td>"
      "<td>%s</td></tr>\n",
      8 + depth * 18, EscapeMarkup(op.DisplayName()).c_str(),
      HumanSeconds(seconds).c_str(),
      root_seconds > 0 ? HumanPercent(seconds / root_seconds).c_str() : "");
  if (max_depth > 0 && depth + 1 >= max_depth) return;
  for (const auto& child : op.children) {
    AppendOperationRows(*child, depth + 1, max_depth, root_seconds, out);
  }
}

}  // namespace

std::string RenderHtmlReport(const PerformanceArchive& archive,
                             const ReportOptions& options) {
  std::string html;
  html += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  html += "<title>" + EscapeMarkup(options.title) + "</title>\n";
  html +=
      "<style>body{font-family:sans-serif;max-width:980px;margin:24px "
      "auto;color:#222}h2{border-bottom:1px solid #ccc;padding-bottom:4px}"
      "table{border-collapse:collapse;font-size:13px}td,th{border:1px solid "
      "#ddd;padding:3px 8px;text-align:left}.finding{padding:6px 10px;"
      "margin:4px 0;border-left:4px solid #999;background:#f7f7f7}"
      ".critical{border-color:#c0392b}.warning{border-color:#e67e22}"
      "pre{background:#f2f2f2;padding:8px}</style></head><body>\n";
  html += "<h1>" + EscapeMarkup(options.title) + "</h1>\n";

  // Job metadata.
  html += "<h2>Job</h2>\n<table>\n";
  for (const auto& [key, value] : archive.job_metadata) {
    html += "<tr><th>" + EscapeMarkup(key) + "</th><td>" + EscapeMarkup(value) +
            "</td></tr>\n";
  }
  html += "<tr><th>model</th><td>" + EscapeMarkup(archive.model_name) +
          "</td></tr>\n";
  if (archive.root != nullptr) {
    html += StrFormat("<tr><th>total</th><td>%s</td></tr>\n",
                      HumanSeconds(archive.root->Duration().seconds())
                          .c_str());
    html += StrFormat("<tr><th>operations</th><td>%llu</td></tr>\n",
                      static_cast<unsigned long long>(
                          archive.OperationCount()));
  }
  html += "</table>\n";

  html += "<h2>Job decomposition</h2>\n";
  html += RenderBreakdownSvg(archive);

  if (!archive.environment.empty()) {
    html += "<h2>Resource utilization</h2>\n";
    html += RenderUtilizationSvg(archive);
  }

  if (!options.timeline_actor_type.empty()) {
    std::string timeline =
        RenderTimelineSvg(archive, options.timeline_actor_type,
                          options.timeline_mission_type);
    if (timeline.find("no operations") == std::string::npos) {
      html += "<h2>" + EscapeMarkup(options.timeline_actor_type) +
              " timeline</h2>\n" + timeline;
    }
  }

  if (options.include_findings) {
    html += "<h2>Automated findings</h2>\n";
    std::vector<Finding> findings =
        AnalyzeChokepoints(archive, options.chokepoint_options);
    if (findings.empty()) {
      html += "<p>no choke-points found</p>\n";
    }
    for (const Finding& finding : findings) {
      const char* css = finding.severity == Severity::kCritical
                            ? "finding critical"
                            : finding.severity == Severity::kWarning
                                  ? "finding warning"
                                  : "finding";
      html += StrFormat(
          "<div class=\"%s\"><b>%s</b> — %s<br>%s</div>\n", css,
          std::string(FindingKindName(finding.kind)).c_str(),
          EscapeMarkup(finding.operation).c_str(),
          EscapeMarkup(finding.description).c_str());
    }
  }

  if (archive.root != nullptr) {
    html += "<h2>Operations</h2>\n<table>\n";
    html += "<tr><th>operation</th><th>duration</th><th>share</th></tr>\n";
    AppendOperationRows(*archive.root, 0, options.tree_depth,
                        archive.root->Duration().seconds(), &html);
    html += "</table>\n";
  }

  html += "</body></html>\n";
  return html;
}

Status WriteHtmlReport(const PerformanceArchive& archive,
                       const ReportOptions& options,
                       const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  file << RenderHtmlReport(archive, options);
  if (!file.good()) {
    return Status::IoError(StrFormat("write failed for %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace granula::core

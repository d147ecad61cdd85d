#include "granula/visual/svg.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "common/strings.h"

namespace granula::core {

namespace {

// A small categorical palette (distinct, print-friendly).
constexpr const char* kPalette[] = {
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#9c755f", "#bab0ac", "#d37295",
};
constexpr int kPaletteSize = 10;

std::string MissionLabel(const ArchivedOperation& op) {
  return op.mission_id.empty() ? op.mission_type : op.mission_id;
}

std::string SvgHeader(int width, int height) {
  return StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" "
      "viewBox=\"0 0 %d %d\" font-family=\"sans-serif\" font-size=\"11\">\n"
      "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n",
      width, height, width, height, width, height);
}

}  // namespace

std::string RenderBreakdownSvg(const PerformanceArchive& archive, int width,
                               int height) {
  std::string svg = SvgHeader(width, height);
  if (archive.root == nullptr || archive.root->Duration().seconds() <= 0) {
    return svg + "<text x=\"10\" y=\"20\">empty archive</text>\n</svg>\n";
  }
  const ArchivedOperation& root = *archive.root;
  double total = root.Duration().seconds();
  const int margin = 60, bar_y = 40, bar_h = 44;
  const int bar_w = width - 2 * margin;

  svg += StrFormat(
      "<text x=\"%d\" y=\"22\" font-size=\"14\">%s — %s</text>\n", margin,
      EscapeMarkup(root.DisplayName()).c_str(), HumanSeconds(total).c_str());

  double x = margin;
  int color_index = 0;
  std::string legend;
  double legend_x = margin;
  for (const auto& child : root.children) {
    double fraction = child->Duration().seconds() / total;
    double w = fraction * bar_w;
    const char* color = kPalette[color_index % kPaletteSize];
    svg += StrFormat(
        "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" "
        "fill=\"%s\" stroke=\"white\"/>\n",
        x, bar_y, w, bar_h, color);
    if (w > 46) {
      svg += StrFormat(
          "<text x=\"%.1f\" y=\"%d\" fill=\"white\" "
          "text-anchor=\"middle\">%s</text>\n",
          x + w / 2, bar_y + bar_h / 2 + 4,
          EscapeMarkup(MissionLabel(*child)).c_str());
    }
    legend += StrFormat(
        "<rect x=\"%.1f\" y=\"%d\" width=\"10\" height=\"10\" "
        "fill=\"%s\"/>\n<text x=\"%.1f\" y=\"%d\">%s %s (%s)</text>\n",
        legend_x, bar_y + bar_h + 36, color, legend_x + 14,
        bar_y + bar_h + 45, EscapeMarkup(MissionLabel(*child)).c_str(),
        HumanSeconds(child->Duration().seconds()).c_str(),
        HumanPercent(fraction).c_str());
    legend_x += 180;
    x += w;
    ++color_index;
  }

  // Double axis: percent above, seconds below (as in Fig. 5).
  for (int tick = 0; tick <= 5; ++tick) {
    double fraction = tick / 5.0;
    double tx = margin + fraction * bar_w;
    svg += StrFormat(
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" "
        "fill=\"#555\">%s</text>\n",
        tx, bar_y - 6, HumanPercent(fraction).c_str());
    svg += StrFormat(
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" "
        "fill=\"#555\">%s</text>\n",
        tx, bar_y + bar_h + 16, HumanSeconds(fraction * total).c_str());
    svg += StrFormat(
        "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" "
        "stroke=\"#ccc\"/>\n",
        tx, bar_y, tx, bar_y + bar_h);
  }
  svg += legend;
  svg += "</svg>\n";
  return svg;
}

std::string RenderUtilizationSvg(const PerformanceArchive& archive, int width,
                                 int height) {
  std::string svg = SvgHeader(width, height);
  if (archive.environment.empty()) {
    return svg + "<text x=\"10\" y=\"20\">no environment log</text>\n</svg>\n";
  }
  const int margin_left = 60, margin_right = 20, margin_top = 36,
            margin_bottom = 60;
  const int plot_w = width - margin_left - margin_right;
  const int plot_h = height - margin_top - margin_bottom;

  // Organize samples per node and find ranges.
  std::map<uint32_t, std::vector<const EnvironmentRecord*>> per_node;
  double t_max = 0, cpu_max = 0;
  for (const EnvironmentRecord& r : archive.environment) {
    per_node[r.node].push_back(&r);
    t_max = std::max(t_max, r.time_seconds);
    cpu_max = std::max(cpu_max, r.cpu_seconds_per_second);
  }
  if (t_max <= 0) t_max = 1;
  if (cpu_max <= 0) cpu_max = 1;
  cpu_max *= 1.1;

  auto x_of = [&](double t) { return margin_left + t / t_max * plot_w; };
  auto y_of = [&](double cpu) {
    return margin_top + plot_h - cpu / cpu_max * plot_h;
  };

  // Background bands: the root's direct children (domain operations).
  if (archive.root != nullptr) {
    int color_index = 0;
    for (const auto& child : archive.root->children) {
      double x0 = x_of(child->StartTime().seconds());
      double x1 = x_of(child->EndTime().seconds());
      const char* color = kPalette[color_index % kPaletteSize];
      svg += StrFormat(
          "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" "
          "fill=\"%s\" opacity=\"0.15\"/>\n",
          x0, margin_top, std::max(0.0, x1 - x0), plot_h, color);
      svg += StrFormat(
          "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" "
          "fill=\"#333\">%s</text>\n",
          (x0 + x1) / 2, margin_top - 8,
          EscapeMarkup(MissionLabel(*child)).c_str());
      ++color_index;
    }
  }

  // One polyline per node.
  int color_index = 0;
  double legend_x = margin_left;
  for (const auto& [node, samples] : per_node) {
    const char* color = kPalette[color_index % kPaletteSize];
    std::string points;
    for (const EnvironmentRecord* r : samples) {
      points += StrFormat("%.1f,%.1f ", x_of(r->time_seconds),
                          y_of(r->cpu_seconds_per_second));
    }
    svg += StrFormat(
        "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" "
        "stroke-width=\"1.5\"/>\n",
        points.c_str(), color);
    svg += StrFormat(
        "<rect x=\"%.1f\" y=\"%d\" width=\"10\" height=\"10\" "
        "fill=\"%s\"/>\n<text x=\"%.1f\" y=\"%d\">%s</text>\n",
        legend_x, height - 24, color, legend_x + 14, height - 15,
        EscapeMarkup(samples.front()->hostname).c_str());
    legend_x += 100;
    ++color_index;
  }

  // Axes.
  svg += StrFormat(
      "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"black\"/>\n",
      margin_left, margin_top + plot_h, margin_left + plot_w,
      margin_top + plot_h);
  svg += StrFormat(
      "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"black\"/>\n",
      margin_left, margin_top, margin_left, margin_top + plot_h);
  for (int tick = 0; tick <= 4; ++tick) {
    double t = t_max * tick / 4;
    svg += StrFormat(
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">%.0fs</text>\n",
        x_of(t), margin_top + plot_h + 14, t);
    double cpu = cpu_max * tick / 4;
    svg += StrFormat(
        "<text x=\"%d\" y=\"%.1f\" text-anchor=\"end\">%.1f</text>\n",
        margin_left - 4, y_of(cpu) + 4, cpu);
  }
  svg += StrFormat(
      "<text x=\"%d\" y=\"%d\" transform=\"rotate(-90 14 %d)\" "
      "text-anchor=\"middle\">CPU time / second</text>\n",
      14, margin_top + plot_h / 2, margin_top + plot_h / 2);
  svg += "</svg>\n";
  return svg;
}

std::string RenderTimelineSvg(const PerformanceArchive& archive,
                              const std::string& actor_type,
                              const std::string& mission_type, int width,
                              int height) {
  std::vector<const ArchivedOperation*> ops =
      archive.FindOperations(actor_type, mission_type);
  std::set<std::string> actors;
  double t_min = 1e300, t_max = 0;
  std::set<std::string> child_types;
  for (const ArchivedOperation* op : ops) {
    actors.insert(op->actor_id.empty() ? op->actor_type : op->actor_id);
    t_min = std::min(t_min, op->StartTime().seconds());
    t_max = std::max(t_max, op->EndTime().seconds());
    for (const auto& child : op->children) {
      child_types.insert(child->mission_type);
    }
  }
  const int row_h = 22, margin_left = 90, margin_top = 30,
            margin_bottom = 46;
  if (height == 0) {
    height = margin_top + margin_bottom +
             row_h * static_cast<int>(actors.size());
  }
  std::string svg = SvgHeader(width, height);
  if (ops.empty() || t_max <= t_min) {
    return svg + "<text x=\"10\" y=\"20\">no operations</text>\n</svg>\n";
  }
  const int plot_w = width - margin_left - 20;
  auto x_of = [&](double t) {
    return margin_left + (t - t_min) / (t_max - t_min) * plot_w;
  };

  std::map<std::string, const char*> color_of;
  {
    int color_index = 0;
    for (const std::string& type : child_types) {
      color_of[type] = kPalette[color_index++ % kPaletteSize];
    }
  }

  int row = 0;
  for (const std::string& actor : actors) {
    double y = margin_top + row * row_h;
    svg += StrFormat("<text x=\"%d\" y=\"%.1f\" text-anchor=\"end\">%s</text>\n",
                     margin_left - 6, y + row_h * 0.7,
                     EscapeMarkup(actor).c_str());
    for (const ArchivedOperation* op : ops) {
      std::string op_actor =
          op->actor_id.empty() ? op->actor_type : op->actor_id;
      if (op_actor != actor) continue;
      // Parent span in light gray (barrier wait / overhead), children on
      // top in their mission color.
      svg += StrFormat(
          "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%d\" "
          "fill=\"#dddddd\"/>\n",
          x_of(op->StartTime().seconds()), y + 3,
          std::max(0.5, x_of(op->EndTime().seconds()) -
                            x_of(op->StartTime().seconds())),
          row_h - 6);
      for (const auto& child : op->children) {
        svg += StrFormat(
            "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%d\" "
            "fill=\"%s\"><title>%s %.3fs</title></rect>\n",
            x_of(child->StartTime().seconds()), y + 3,
            std::max(0.5, x_of(child->EndTime().seconds()) -
                              x_of(child->StartTime().seconds())),
            row_h - 6, color_of[child->mission_type],
            EscapeMarkup(child->DisplayName()).c_str(),
            child->Duration().seconds());
      }
    }
    ++row;
  }

  // Legend + time axis.
  double legend_x = margin_left;
  int legend_y = height - 18;
  svg += StrFormat(
      "<rect x=\"%.1f\" y=\"%d\" width=\"10\" height=\"10\" "
      "fill=\"#dddddd\"/>\n<text x=\"%.1f\" y=\"%d\">%s (wait)</text>\n",
      legend_x, legend_y, legend_x + 14, legend_y + 9,
      EscapeMarkup(mission_type).c_str());
  legend_x += 150;
  for (const auto& [type, color] : color_of) {
    svg += StrFormat(
        "<rect x=\"%.1f\" y=\"%d\" width=\"10\" height=\"10\" "
        "fill=\"%s\"/>\n<text x=\"%.1f\" y=\"%d\">%s</text>\n",
        legend_x, legend_y, color, legend_x + 14, legend_y + 9,
        EscapeMarkup(type).c_str());
    legend_x += 120;
  }
  for (int tick = 0; tick <= 4; ++tick) {
    double t = t_min + (t_max - t_min) * tick / 4;
    svg += StrFormat(
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">%.1fs</text>\n",
        x_of(t), height - 32, t);
  }
  svg += "</svg>\n";
  return svg;
}

std::string RenderComparisonSvg(const PerformanceArchive& baseline,
                                const PerformanceArchive& candidate,
                                int width, int height) {
  std::string svg = SvgHeader(width, height);
  if (baseline.root == nullptr || candidate.root == nullptr) {
    return svg + "<text x=\"10\" y=\"20\">missing archive</text>\n</svg>\n";
  }
  const int margin = 70, bar_h = 40, gap = 34;
  const int bar_w = width - 2 * margin;
  double max_total = std::max(baseline.root->Duration().seconds(),
                              candidate.root->Duration().seconds());
  if (max_total <= 0) max_total = 1;

  // Stable phase -> color assignment across both rows.
  std::map<std::string, const char*> color_of;
  int color_index = 0;
  auto assign_colors = [&](const PerformanceArchive& archive) {
    for (const auto& child : archive.root->children) {
      std::string key = MissionLabel(*child);
      if (color_of.count(key) == 0) {
        color_of[key] = kPalette[color_index++ % kPaletteSize];
      }
    }
  };
  assign_colors(baseline);
  assign_colors(candidate);

  auto draw_row = [&](const PerformanceArchive& archive, const char* label,
                      int y) {
    svg += StrFormat(
        "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
        margin - 8, y + bar_h / 2 + 4, label);
    double x = margin;
    for (const auto& child : archive.root->children) {
      double w = child->Duration().seconds() / max_total * bar_w;
      svg += StrFormat(
          "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" "
          "fill=\"%s\" stroke=\"white\"><title>%s %s</title></rect>\n",
          x, y, w, bar_h, color_of[MissionLabel(*child)],
          EscapeMarkup(MissionLabel(*child)).c_str(),
          HumanSeconds(child->Duration().seconds()).c_str());
      x += w;
    }
    svg += StrFormat(
        "<text x=\"%.1f\" y=\"%d\" fill=\"#333\">%s</text>\n", x + 6,
        y + bar_h / 2 + 4,
        HumanSeconds(archive.root->Duration().seconds()).c_str());
  };
  int y0 = 34;
  draw_row(baseline, "baseline", y0);
  draw_row(candidate, "candidate", y0 + bar_h + gap);

  // Per-phase delta labels between the rows.
  {
    std::map<std::string, double> base_phase, cand_phase;
    for (const auto& child : baseline.root->children) {
      base_phase[MissionLabel(*child)] = child->Duration().seconds();
    }
    for (const auto& child : candidate.root->children) {
      cand_phase[MissionLabel(*child)] = child->Duration().seconds();
    }
    double x = margin;
    int y = y0 + bar_h + gap / 2 + 4;
    for (const auto& child : baseline.root->children) {
      std::string key = MissionLabel(*child);
      double base_seconds = base_phase[key];
      double w = base_seconds / max_total * bar_w;
      if (w > 48 && base_seconds > 0 && cand_phase.count(key) > 0) {
        double change = (cand_phase[key] - base_seconds) / base_seconds;
        svg += StrFormat(
            "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" "
            "fill=\"%s\">%+.1f%%</text>\n",
            x + w / 2, y, change > 0.001 ? "#c0392b" : "#1e8449",
            100 * change);
      }
      x += w;
    }
  }

  // Legend + axis.
  double legend_x = margin;
  for (const auto& [key, color] : color_of) {
    svg += StrFormat(
        "<rect x=\"%.1f\" y=\"%d\" width=\"10\" height=\"10\" "
        "fill=\"%s\"/>\n<text x=\"%.1f\" y=\"%d\">%s</text>\n",
        legend_x, height - 40, color, legend_x + 14, height - 31,
        EscapeMarkup(key).c_str());
    legend_x += 140;
  }
  for (int tick = 0; tick <= 4; ++tick) {
    double t = max_total * tick / 4;
    double x = margin + static_cast<double>(bar_w) * tick / 4;
    svg += StrFormat(
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" "
        "fill=\"#555\">%s</text>\n",
        x, height - 10, HumanSeconds(t).c_str());
  }
  svg += "</svg>\n";
  return svg;
}

std::string EscapeMarkup(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Status WriteSvgFile(const std::string& path, const std::string& svg) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  file << svg;
  if (!file.good()) {
    return Status::IoError(StrFormat("write failed for %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace granula::core

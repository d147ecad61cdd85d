#ifndef GRANULA_GRANULA_VISUAL_SVG_H_
#define GRANULA_GRANULA_VISUAL_SVG_H_

#include <string>

#include "common/status.h"
#include "granula/archive/archive.h"

namespace granula::core {

// SVG renderers mirroring the paper's figures. Each returns a complete,
// standalone SVG document; WriteSvgFile saves one next to bench output so
// results can be inspected in a browser.

// Fig. 5: horizontal stacked bar of the root's direct children, with a
// percentage / seconds double axis.
std::string RenderBreakdownSvg(const PerformanceArchive& archive,
                               int width = 760, int height = 170);

// Figs. 6/7: per-node CPU utilization curves over time, with the
// domain-level operations drawn as labeled background bands.
std::string RenderUtilizationSvg(const PerformanceArchive& archive,
                                 int width = 860, int height = 360);

// Fig. 8: per-actor gantt chart of `mission_type` operations and their
// children (e.g. Worker rows with PreStep/Compute/PostStep blocks).
std::string RenderTimelineSvg(const PerformanceArchive& archive,
                              const std::string& actor_type,
                              const std::string& mission_type,
                              int width = 860, int height = 0);

// Side-by-side comparison of two archives' top-level decompositions on a
// common seconds axis (baseline above, candidate below), with per-phase
// deltas — the visual companion of analysis/regression.h.
std::string RenderComparisonSvg(const PerformanceArchive& baseline,
                                const PerformanceArchive& candidate,
                                int width = 860, int height = 300);

Status WriteSvgFile(const std::string& path, const std::string& svg);

// Escapes &, < and > for SVG and HTML text; the HTML report uses it too.
std::string EscapeMarkup(const std::string& s);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_VISUAL_SVG_H_

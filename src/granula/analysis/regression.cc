#include "granula/analysis/regression.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "common/strings.h"

namespace granula::core {

namespace {

constexpr size_t kNoParent = static_cast<size_t>(-1);

size_t DecimalDigits(size_t k) {
  size_t digits = 1;
  for (; k >= 10; k /= 10) ++digits;
  return digits;
}

}  // namespace

// Flattens an operation tree into path -> duration, over either cursor
// (TreeOp or ArchiveView::Op). Sibling operations with identical names
// (rare; means the model lacks distinguishing mission ids) ALL get "#k"
// suffixes, k being the 1-based occurrence index among the same-named
// siblings. Suffixing every duplicate — including the first — is
// deliberate: leaving the first unsuffixed (the old encounter-order
// scheme) made a baseline operation silently pair with whichever
// candidate sibling happened to be flattened first, e.g. a run's sole
// "Load" against the first of two "Load" attempts in the candidate. With
// structural suffixes such shape changes surface as added/removed paths
// instead of a bogus delta.
//
// The walk visits the tree in pre-order with an explicit stack and records
// each emitted operation's parent row, name and suffix, which give every
// path's length before any path is written. A second pass writes the
// paths, and the rows are then sorted by path.
struct FlatOps::Builder {
  // One emitted operation before its path is written.
  struct Pending {
    size_t parent = kNoParent;  // row of the parent operation
    size_t suffix = 0;          // the "#k" of a duplicate name; 0 = none
    std::string_view name;
  };

  template <typename OpCursor>
  static FlatOps Flatten(const OpCursor& root, int max_depth,
                         size_t op_count) {
    FlatOps out;
    if (!root) return out;
    struct Frame {
      OpCursor op;
      size_t parent = kNoParent;
      size_t suffix = 0;
      int depth = 0;
    };
    std::vector<Pending> pending;
    pending.reserve(op_count);
    out.rows_.reserve(op_count);
    std::vector<Frame> stack;
    std::vector<OpCursor> children;
    std::vector<std::pair<std::string_view, size_t>> by_name;
    std::vector<size_t> suffixes;
    size_t arena_size = 0;
    // Distinct operations get distinct paths unless a name contains '/'
    // (a path segment boundary) or '#' (a suffix) — only then can the "'"
    // guard fire, so only then are paths checked against each other.
    bool ambiguous = false;

    stack.push_back({root, kNoParent, 0, 0});
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      const size_t row = pending.size();
      const std::string_view name = frame.op.name();
      ambiguous |= name.find_first_of("/#") != std::string_view::npos;
      size_t length = name.size();
      if (frame.parent != kNoParent) {
        length += out.rows_[frame.parent].size + 1;
      }
      if (frame.suffix > 0) length += 1 + DecimalDigits(frame.suffix);
      arena_size += length;
      pending.push_back({frame.parent, frame.suffix, name});
      out.rows_.push_back({0, length, frame.op.Duration().seconds()});
      if (max_depth > 0 && frame.depth + 1 >= max_depth) continue;

      children.clear();
      for (OpCursor child = frame.op.FirstChild(); child;
           child = child.NextSibling()) {
        children.push_back(child);
      }
      suffixes.assign(children.size(), 0);
      if (children.size() > 1) {
        by_name.clear();
        for (size_t i = 0; i < children.size(); ++i) {
          by_name.emplace_back(children[i].name(), i);
        }
        std::sort(by_name.begin(), by_name.end());
        for (size_t i = 0; i < by_name.size();) {
          size_t j = i + 1;
          while (j < by_name.size() && by_name[j].first == by_name[i].first) {
            ++j;
          }
          if (j - i > 1) {
            for (size_t k = i; k < j; ++k) {
              suffixes[by_name[k].second] = k - i + 1;
            }
          }
          i = j;
        }
      }
      for (size_t i = children.size(); i-- > 0;) {
        stack.push_back({children[i], row, suffixes[i], frame.depth + 1});
      }
    }

    // Every path after its parent's, in pre-order, into an arena sized
    // exactly (unless the guard below lengthens a path).
    out.arena_.reserve(arena_size);
    std::string& arena = out.arena_;
    auto path_of = [&out](size_t row) {
      return std::string_view(out.arena_)
          .substr(out.rows_[row].offset, out.rows_[row].size);
    };
    auto hash = [&path_of](size_t row) {
      return std::hash<std::string_view>()(path_of(row));
    };
    auto equal = [&path_of](size_t a, size_t b) {
      return path_of(a) == path_of(b);
    };
    std::unordered_set<size_t, decltype(hash), decltype(equal)> written(
        ambiguous ? pending.size() : 0, hash, equal);
    char digits[24];
    for (size_t row = 0; row < pending.size(); ++row) {
      const Pending& op = pending[row];
      Row& self = out.rows_[row];
      self.offset = arena.size();
      if (op.parent != kNoParent) {
        const Row& parent = out.rows_[op.parent];
        arena.append(arena, parent.offset, parent.size);
        arena += '/';
      }
      arena += op.name;
      if (op.suffix > 0) {
        arena += '#';
        arena.append(digits,
                     std::to_chars(digits, std::end(digits), op.suffix).ptr);
      }
      self.size = arena.size() - self.offset;
      // Last-resort guard for pathological names (a '/' inside a mission
      // id can collide with a genuinely nested path): a path equal to one
      // written before it gets "'" until it is unique.
      while (ambiguous && !written.insert(row).second) {
        arena += '\'';
        ++self.size;
      }
    }

    const char* base = arena.data();
    std::sort(out.rows_.begin(), out.rows_.end(),
              [base](const Row& a, const Row& b) {
                return std::string_view(base + a.offset, a.size) <
                       std::string_view(base + b.offset, b.size);
              });
    return out;
  }
};

bool FlatOps::operator==(const FlatOps& other) const {
  if (size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    const Entry a = (*this)[i];
    const Entry b = other[i];
    if (a.path != b.path || a.seconds != b.seconds) return false;
  }
  return true;
}

FlatOps FlattenArchive(const PerformanceArchive& archive, int max_depth) {
  return FlatOps::Builder::Flatten(TreeOp(archive.root.get()), max_depth, 0);
}

FlatOps FlattenArchiveView(const ArchiveView& view, int max_depth) {
  // Uncut, the table holds one row per operation.
  return FlatOps::Builder::Flatten(
      view.root(), max_depth, max_depth > 0 ? 0 : view.operation_count());
}

RegressionReport CompareArchives(const PerformanceArchive& baseline,
                                 const PerformanceArchive& candidate,
                                 const RegressionOptions& options) {
  return CompareFlattened(
      FlattenArchive(baseline, options.max_depth),
      baseline.root != nullptr ? baseline.root->Duration().seconds() : 0.0,
      FlattenArchive(candidate, options.max_depth),
      candidate.root != nullptr ? candidate.root->Duration().seconds() : 0.0,
      options);
}

RegressionReport CompareFlattened(const FlatOps& base_ops,
                                  double total_baseline_seconds,
                                  const FlatOps& cand_ops,
                                  double total_candidate_seconds,
                                  const RegressionOptions& options) {
  RegressionReport report;
  report.total_baseline_seconds = total_baseline_seconds;
  report.total_candidate_seconds = total_candidate_seconds;

  // Both tables are sorted by path: one pass pairs them, emitting removed
  // paths and deltas in baseline order and added paths in candidate order.
  size_t i = 0, j = 0;
  while (i < base_ops.size() || j < cand_ops.size()) {
    const int order = i == base_ops.size()   ? 1
                      : j == cand_ops.size() ? -1
                                             : base_ops[i].path.compare(
                                                   cand_ops[j].path);
    if (order < 0) {
      report.removed.emplace_back(base_ops[i++].path);
      continue;
    }
    if (order > 0) {
      report.added.emplace_back(cand_ops[j++].path);
      continue;
    }
    const FlatOps::Entry base = base_ops[i++];
    const double cand_seconds = cand_ops[j++].seconds;
    const double base_seconds = base.seconds;
    if (base_seconds < options.min_seconds &&
        cand_seconds < options.min_seconds) {
      continue;
    }
    if (base_seconds <= 0) continue;
    double change = (cand_seconds - base_seconds) / base_seconds;
    if (change >= options.tolerance) {
      report.regressions.push_back(
          {std::string(base.path), base_seconds, cand_seconds, change});
    } else if (change <= -options.tolerance) {
      report.improvements.push_back(
          {std::string(base.path), base_seconds, cand_seconds, change});
    }
  }

  auto by_change_desc = [](const OperationDelta& a,
                           const OperationDelta& b) {
    return a.relative_change > b.relative_change;
  };
  std::sort(report.regressions.begin(), report.regressions.end(),
            by_change_desc);
  std::sort(report.improvements.begin(), report.improvements.end(),
            [](const OperationDelta& a, const OperationDelta& b) {
              return a.relative_change < b.relative_change;
            });
  return report;
}

std::string RenderRegressionReport(const RegressionReport& report) {
  std::string out = StrFormat(
      "job total: %s -> %s (%+.1f%%)\n",
      HumanSeconds(report.total_baseline_seconds).c_str(),
      HumanSeconds(report.total_candidate_seconds).c_str(),
      report.total_baseline_seconds > 0
          ? 100.0 *
                (report.total_candidate_seconds -
                 report.total_baseline_seconds) /
                report.total_baseline_seconds
          : 0.0);
  if (!report.regressions.empty()) {
    out += "regressions:\n";
    for (const OperationDelta& delta : report.regressions) {
      out += StrFormat("  %-48s %9s -> %9s  %+7.1f%%\n", delta.path.c_str(),
                       HumanSeconds(delta.baseline_seconds).c_str(),
                       HumanSeconds(delta.candidate_seconds).c_str(),
                       100.0 * delta.relative_change);
    }
  }
  if (!report.improvements.empty()) {
    out += "improvements:\n";
    for (const OperationDelta& delta : report.improvements) {
      out += StrFormat("  %-48s %9s -> %9s  %+7.1f%%\n", delta.path.c_str(),
                       HumanSeconds(delta.baseline_seconds).c_str(),
                       HumanSeconds(delta.candidate_seconds).c_str(),
                       100.0 * delta.relative_change);
    }
  }
  for (const std::string& path : report.added) {
    out += StrFormat("  added:   %s\n", path.c_str());
  }
  for (const std::string& path : report.removed) {
    out += StrFormat("  removed: %s\n", path.c_str());
  }
  if (report.regressions.empty() && report.improvements.empty()) {
    out += "no changes beyond tolerance\n";
  }
  return out;
}

}  // namespace granula::core

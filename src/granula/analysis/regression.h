#ifndef GRANULA_GRANULA_ANALYSIS_REGRESSION_H_
#define GRANULA_GRANULA_ANALYSIS_REGRESSION_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "granula/archive/archive.h"
#include "granula/archive/view.h"

namespace granula::core {

// Performance-regression testing over archives — the paper's Section-6
// vision of integrating "performance analysis as part of standard software
// engineering practices, in the form of performance regression tests".
//
// Two archives of the same job (baseline: the committed/known-good run;
// candidate: the run under test) are compared operation-by-operation.
// Operations are matched by their path of mission ids, so the comparison
// is stable across runs with identical structure and degrades gracefully
// (added/removed operations are reported, not fatal).

struct OperationDelta {
  std::string path;
  double baseline_seconds = 0;
  double candidate_seconds = 0;
  // (candidate - baseline) / baseline; +0.25 means 25 % slower.
  double relative_change = 0;
};

struct RegressionReport {
  std::vector<OperationDelta> regressions;   // slower than tolerance
  std::vector<OperationDelta> improvements;  // faster than tolerance
  std::vector<std::string> added;            // only in candidate
  std::vector<std::string> removed;          // only in baseline
  double total_baseline_seconds = 0;
  double total_candidate_seconds = 0;

  bool HasRegressions() const { return !regressions.empty(); }
};

struct RegressionOptions {
  // Relative slowdown that counts as a regression (0.10 = 10 %).
  double tolerance = 0.10;
  // Operations shorter than this (in both runs) are ignored: tiny
  // operations have proportionally noisy timings.
  double min_seconds = 0.05;
  // Limit the comparison depth (0 = all levels present in the archives).
  int max_depth = 0;
};

RegressionReport CompareArchives(const PerformanceArchive& baseline,
                                 const PerformanceArchive& candidate,
                                 const RegressionOptions& options);

// One archive's flattened operation table, the flatten half of
// CompareArchives: op path -> seconds, iterated in ascending path order
// (byte-wise, as std::string compares). Every path lives in one string
// arena and every entry is an {offset, size, seconds} row sorted by path,
// so a table holds two heap blocks however many operations it has, and
// two tables diff in one merge join.
class FlatOps {
 public:
  struct Entry {
    std::string_view path;  // into the table's arena
    double seconds = 0;
  };

  // Range-for support: yields Entry values in path order.
  class Iterator {
   public:
    Iterator(const FlatOps* table, size_t index)
        : table_(table), index_(index) {}
    Entry operator*() const { return (*table_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }

   private:
    const FlatOps* table_;
    size_t index_;
  };

  size_t size() const { return rows_.size(); }
  Entry operator[](size_t i) const {
    const Row& row = rows_[i];
    return {std::string_view(arena_).substr(row.offset, row.size),
            row.seconds};
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, rows_.size()); }

  // Same paths with the same seconds, in the same order.
  bool operator==(const FlatOps& other) const;

 private:
  friend FlatOps FlattenArchive(const PerformanceArchive& archive,
                                int max_depth);
  friend FlatOps FlattenArchiveView(const ArchiveView& view, int max_depth);
  struct Builder;  // the flatten walk (regression.cc)

  struct Row {
    size_t offset = 0;
    size_t size = 0;
    double seconds = 0;
  };
  std::string arena_;
  std::vector<Row> rows_;
};

// Flattens an operation tree into a FlatOps table, with "#k" suffixes on
// ALL duplicate-named siblings and a "'" guard against pathological path
// collisions. `max_depth` > 0 cuts below that many levels (root = level
// 1). Exposed so the sweep gate's zero-copy scan path (comparative.cc)
// flattens straight off mapped bytes. Both entry points run one walk body
// over a tree or a view cursor, so they produce identical tables for the
// same archive.
FlatOps FlattenArchive(const PerformanceArchive& archive, int max_depth);
FlatOps FlattenArchiveView(const ArchiveView& view, int max_depth);

// The diff half of CompareArchives: one merge join over two flattened
// tables. The totals are the roots' durations (0 when a side has no root).
RegressionReport CompareFlattened(const FlatOps& base_ops,
                                  double total_baseline_seconds,
                                  const FlatOps& cand_ops,
                                  double total_candidate_seconds,
                                  const RegressionOptions& options);

// Renders a report as terminal text (regressions first).
std::string RenderRegressionReport(const RegressionReport& report);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ANALYSIS_REGRESSION_H_

#ifndef GRANULA_GRANULA_ARCHIVE_VIEW_H_
#define GRANULA_GRANULA_ARCHIVE_VIEW_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/sim_time.h"
#include "granula/archive/archive.h"
#include "granula/archive/lint.h"

namespace granula::core {

// ArchiveView — the one reader of GBA files (granula/archive/gba.h): a
// zero-copy, read-only cursor over the bytes (typically a MappedFile's).
// Scan queries are answered straight from the mapped columns: strings
// resolve to `string_view`s into the interned blob, tree navigation walks
// the pre-order `subtree_size` offset table, and info values decode lazily
// (scalars without touching the heap). Nothing is allocated per operation,
// which is what makes repository-wide scans (ScanAll/ScanSelect) 5x+
// faster than materialising (bench/micro_archive_scan.cc). When a caller
// does need a `PerformanceArchive` — a full load, a level-cut load, one
// subtree — the Decode* methods build it from the same validated columns.
//
// Validation contract: Open() checks the header (magic, version, file
// size, section table) and runs one O(rows) pass over the columns —
// symbol ids in range, string offsets monotonic, subtree sizes properly
// nested and covering the file, info ranges and value offsets in bounds —
// so every accessor below returns plain values with no per-read error
// handling in hot loops. Only info-value decode (arbitrary nested
// payloads) stays Result-typed: the value blob's interior tags are checked
// lazily at decode time.
//
// Lifetime: the view borrows `bytes`; the caller keeps the backing storage
// alive and in place. `Op` cursors additionally borrow the view itself —
// keep the view at a stable address while ops from it are live.
//
// Equivalence contract (property-tested in tests/archive_view_test.cc):
// every field reachable through the view equals the same field on the
// archive that was encoded, and Decode() reproduces that archive exactly.
class ArchiveView {
 public:
  // Corruption for anything malformed (bad magic, size mismatch,
  // truncation, corrupt columns); InvalidArgument for a future version
  // this build cannot read.
  static Result<ArchiveView> Open(std::string_view bytes);
  // A temporary string would be freed while the view still reads it:
  // name the bytes first.
  static Result<ArchiveView> Open(std::string&&) = delete;

  // A borrowed cursor for one operation row. Default-constructed ops are
  // invalid (operator bool is false) — FirstChild() on a leaf and
  // NextSibling() on a last sibling both return one.
  class Op {
   public:
    Op() = default;
    explicit operator bool() const { return view_ != nullptr; }

    uint32_t row() const { return row_; }
    // Rows in this op's subtree, including itself.
    uint32_t subtree_size() const;

    std::string_view actor_type() const;
    std::string_view actor_id() const;
    std::string_view mission_type() const;
    std::string_view mission_id() const;
    // mission_id, falling back to mission_type when empty — the name
    // FindByPath, regression Flatten, and the comparative report all key on.
    std::string_view name() const;

    // Pre-order tree navigation via the offset table, O(1) per step.
    Op FirstChild() const;
    Op NextSibling() const;

    // Info rows of this op, in the sorted-name order ToJson serializes.
    uint32_t info_count() const;
    std::string_view info_name(uint32_t k) const;
    std::string_view info_source(uint32_t k) const;
    // Full value decode — the only accessor that allocates (and the only
    // one that can fail: interior value tags, and nesting past
    // MaxInfoValueNesting of this op's level, are refused lazily).
    Result<Json> info_value(uint32_t k) const;

    bool HasInfo(std::string_view name) const;
    // Mirrors ArchivedOperation::InfoNumber: `fallback` when the info is
    // absent or not a number.
    double InfoNumber(std::string_view name, double fallback = 0.0) const;
    // Same, keyed by an interned symbol id (see ArchiveView::FindSymbol) —
    // skips the per-op string comparisons in tight scan loops. nullopt
    // (symbol absent from this file) reads as "no such info".
    double InfoNumberBySym(std::optional<uint32_t> name_sym,
                           double fallback) const;

    // StartTime/EndTime/Duration, bit-identical to the materialized tree's
    // accessors (integer-nanosecond infos; non-numeric reads as SimTime();
    // Duration saturates, see SaturatingDuration).
    SimTime StartTime() const;
    SimTime EndTime() const;
    SimTime Duration() const {
      return SaturatingDuration(StartTime(), EndTime());
    }

   private:
    friend class ArchiveView;
    Op(const ArchiveView* view, uint32_t row, uint32_t sibling_end,
       int level)
        : view_(view), row_(row), sibling_end_(sibling_end), level_(level) {}

    const ArchiveView* view_ = nullptr;
    uint32_t row_ = 0;
    // Exclusive row bound for NextSibling(): the parent's subtree end.
    uint32_t sibling_end_ = 0;
    int level_ = 0;  // root = 1; bounds the nesting of this op's infos
  };

  uint32_t operation_count() const { return ops_count_; }
  bool has_root() const { return ops_count_ > 0; }
  Op root() const;  // invalid Op when !has_root()

  // Header-section reads.
  ArchiveStatus status() const;
  std::string_view model_name() const;
  uint32_t metadata_count() const { return meta_count_; }
  std::string_view metadata_key(uint32_t i) const;
  std::string_view metadata_value(uint32_t i) const;
  // Linear lookup over the (few) metadata pairs; `fallback` when absent.
  std::string_view Metadata(std::string_view key,
                            std::string_view fallback = "") const;

  // Environment records, zero-copy (hostname is a view into the blob).
  struct EnvRecord {
    uint32_t node = 0;
    std::string_view hostname;
    double time_seconds = 0;
    double cpu_seconds_per_second = 0;
    double net_bytes_per_second = 0;
    double disk_bytes_per_second = 0;
  };
  uint32_t environment_count() const { return env_count_; }
  EnvRecord environment(uint32_t i) const;

  // Lint findings. Count is free; materializing the report allocates the
  // detail strings (findings are few). Fails only on an unknown defect
  // name.
  uint32_t lint_count() const { return lint_count_; }
  Result<LintReport> DecodeLint() const;

  // Interned-symbol lookup (O(symbol count) scan, intended for once-per-
  // archive resolution of hot info names). nullopt when the string was
  // never interned — no info/actor/mission in this file can equal it.
  std::optional<uint32_t> FindSymbol(std::string_view s) const;
  std::string_view Symbol(uint32_t id) const;  // id < symbol_count()
  uint32_t symbol_count() const { return string_count_; }

  size_t byte_size() const { return bytes_.size(); }

  // Materialising decodes. Decode() builds the whole archive with the
  // operation tree cut to its first `levels` levels (root = level 1;
  // <= 0 decodes every level) — a gate at RegressionOptions::max_depth D
  // is value-identical over a Decode(D) archive. DecodeSubtree() builds
  // only the subtree at `path` (FindByPath semantics: "/"-split mission
  // ids falling back to mission types, first segment matches the root),
  // skipping other rows via the offset table; NotFound when the path
  // matches nothing. Both fail with Corruption on a malformed info value;
  // Decode() also fails as DecodeLint() does.
  Result<PerformanceArchive> Decode(int levels = 0) const;
  Result<OperationPtr> DecodeSubtree(std::string_view path) const;

 private:
  ArchiveView() = default;

  const char* ColPtr(uint32_t column) const;  // ops column base
  uint32_t OpsCol(uint32_t column, uint32_t row) const;
  uint64_t InfoValueOff(uint32_t info_row) const;  // absolute, validated
  // Scalar peek at an encoded value: *out_int / *out_double set per the
  // tag; returns false for non-numeric tags.
  bool NumericValueAt(uint64_t off, bool* is_int, int64_t* out_int,
                      double* out_double) const;
  SimTime TimeInfo(const Op& op, std::optional<uint32_t> sym) const;
  // Full value decode at absolute offset `off`, advancing it past the
  // value; Corruption when the value nests more than `max_nesting` levels.
  Result<Json> DecodeValue(uint64_t& off, int max_nesting) const;
  // Materialises `op` and its subtree, cut to `levels` levels (<= 0: all).
  Result<OperationPtr> DecodeOp(const Op& op, int levels) const;
  // Index of the info row named `sym` within [begin, begin+count), or -1.
  int FindInfoRow(uint32_t begin, uint32_t count,
                  std::optional<uint32_t> sym) const;

  std::string_view bytes_;
  uint64_t strings_off_ = 0, meta_off_ = 0, ops_off_ = 0, infos_off_ = 0,
           values_off_ = 0, env_off_ = 0, lint_off_ = 0;
  uint32_t string_count_ = 0;
  uint64_t string_offsets_ = 0;
  uint64_t string_blob_ = 0;
  uint64_t string_blob_len_ = 0;
  uint32_t ops_count_ = 0;
  uint32_t info_count_ = 0;
  uint64_t values_blob_ = 0;
  uint64_t values_blob_len_ = 0;
  uint32_t meta_count_ = 0;
  uint32_t env_count_ = 0;
  uint32_t lint_count_ = 0;
  // Hot info-name symbols, resolved once in Open() so scan loops never
  // compare strings (and never mutate shared state — TSan-clean by
  // construction).
  std::optional<uint32_t> start_time_sym_;
  std::optional<uint32_t> end_time_sym_;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ARCHIVE_VIEW_H_

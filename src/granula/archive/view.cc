#include "granula/archive/view.h"

#include <bit>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "granula/archive/gba.h"

namespace granula::core {
namespace {

// Little-endian fixed-width reads. memcpy compiles to one unaligned load;
// a big-endian host swaps afterwards.
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

double GetF64(const char* p) {
  uint64_t bits = GetU64(p);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Status Truncated(const char* what) {
  return Status::Corruption(StrFormat("gba: truncated %s section", what));
}

Status Corrupt(const char* what) {
  return Status::Corruption(StrFormat("gba: corrupt %s section", what));
}

}  // namespace

Result<ArchiveView> ArchiveView::Open(std::string_view bytes) {
  if (!LooksLikeGba(bytes)) {
    return Status::Corruption("gba: bad magic (not a GBA archive)");
  }
  if (bytes.size() < kGbaHeaderSize) return Truncated("header");
  const char* data = bytes.data();
  const uint32_t version = GetU32(data + 4);
  if (version != kGbaVersion) {
    return Status::InvalidArgument(
        StrFormat("gba: version %u unsupported (this build reads version %u)",
                  version, kGbaVersion));
  }
  const uint64_t file_size = GetU64(data + 8);
  if (file_size != bytes.size()) {
    return Status::Corruption(
        StrFormat("gba: file size mismatch (header says %llu, have %zu bytes)",
                  static_cast<unsigned long long>(file_size), bytes.size()));
  }

  ArchiveView view;
  view.bytes_ = bytes;
  uint64_t* section[7] = {&view.strings_off_, &view.meta_off_,
                          &view.ops_off_,     &view.infos_off_,
                          &view.values_off_,  &view.env_off_,
                          &view.lint_off_};
  for (int i = 0; i < 7; ++i) {
    *section[i] = GetU64(data + 16 + 8 * i);
    if (*section[i] > bytes.size()) return Truncated("header");
  }
  // True when [off, off + len) lies inside the file. `off` is already
  // known to be <= size, so the subtraction cannot wrap, and a hostile
  // u64 `len` cannot overflow the sum.
  auto fits = [&](uint64_t off, uint64_t len) {
    return off <= bytes.size() && len <= bytes.size() - off;
  };

  // Section shapes: every count-sized array lies inside the file.
  if (!fits(view.strings_off_, 4)) return Truncated("strings");
  view.string_count_ = GetU32(data + view.strings_off_);
  view.string_offsets_ = view.strings_off_ + 4;
  const uint64_t offsets_bytes = (uint64_t{view.string_count_} + 1) * 8;
  if (!fits(view.string_offsets_, offsets_bytes)) return Truncated("strings");
  view.string_blob_ = view.string_offsets_ + offsets_bytes;
  view.string_blob_len_ =
      GetU64(data + view.string_offsets_ + 8 * uint64_t{view.string_count_});
  if (!fits(view.string_blob_, view.string_blob_len_)) {
    return Truncated("strings");
  }
  if (!fits(view.ops_off_, 4)) return Truncated("ops");
  view.ops_count_ = GetU32(data + view.ops_off_);
  if (!fits(view.ops_off_, 4 + uint64_t{view.ops_count_} * 28)) {
    return Truncated("ops");
  }
  if (!fits(view.infos_off_, 4)) return Truncated("infos");
  view.info_count_ = GetU32(data + view.infos_off_);
  if (!fits(view.infos_off_, 4 + uint64_t{view.info_count_} * 16)) {
    return Truncated("infos");
  }
  if (!fits(view.values_off_, 8)) return Truncated("values");
  view.values_blob_ = view.values_off_ + 8;
  view.values_blob_len_ = GetU64(data + view.values_off_);
  if (!fits(view.values_blob_, view.values_blob_len_)) {
    return Truncated("values");
  }

  // Strings: offsets must be monotonic. The last one is the blob length
  // checked above, so this pins every symbol inside the blob.
  uint64_t previous = 0;
  for (uint32_t i = 0; i <= view.string_count_; ++i) {
    uint64_t off = GetU64(data + view.string_offsets_ + 8 * uint64_t{i});
    if (off < previous) return Corrupt("strings");
    previous = off;
  }

  auto valid_sym = [&](uint32_t id) { return id < view.string_count_; };

  // Meta: count, pairs, model symbol, status byte, has_root byte.
  if (!fits(view.meta_off_, 4)) return Corrupt("meta");
  view.meta_count_ = GetU32(data + view.meta_off_);
  if (!fits(view.meta_off_, 4 + 8 * uint64_t{view.meta_count_} + 4 + 2)) {
    return Corrupt("meta");
  }
  for (uint32_t i = 0; i < view.meta_count_; ++i) {
    if (!valid_sym(GetU32(data + view.meta_off_ + 4 + 8 * uint64_t{i})) ||
        !valid_sym(GetU32(data + view.meta_off_ + 8 + 8 * uint64_t{i}))) {
      return Corrupt("meta");
    }
  }
  if (!valid_sym(
          GetU32(data + view.meta_off_ + 4 + 8 * uint64_t{view.meta_count_}))) {
    return Corrupt("meta");
  }

  // Ops columns: symbols in range, info ranges in bounds, and subtree
  // sizes forming one properly nested pre-order tree covering every row.
  const uint32_t n = view.ops_count_;
  std::vector<uint32_t> open_ends;  // subtree end stack for nesting checks
  for (uint32_t row = 0; row < n; ++row) {
    for (uint32_t column = 0; column < 4; ++column) {
      if (!valid_sym(view.OpsCol(column, row))) return Corrupt("ops");
    }
    const uint32_t size = view.OpsCol(4, row);
    if (size == 0 || uint64_t{row} + size > n) return Corrupt("ops");
    if (row == 0 && size != n) return Corrupt("ops");
    while (!open_ends.empty() && open_ends.back() == row) open_ends.pop_back();
    if (!open_ends.empty() && uint64_t{row} + size > open_ends.back()) {
      return Corrupt("ops");
    }
    open_ends.push_back(row + size);
    if (open_ends.size() > static_cast<size_t>(kMaxOperationDepth)) {
      return Status::Corruption(
          StrFormat("gba: operation tree deeper than %d levels",
                    kMaxOperationDepth));
    }
    const uint32_t info_begin = view.OpsCol(5, row);
    const uint32_t count = view.OpsCol(6, row);
    if (uint64_t{info_begin} + count > view.info_count_) {
      return Corrupt("ops");
    }
  }

  // Infos: symbols in range, value offsets inside the blob.
  for (uint32_t k = 0; k < view.info_count_; ++k) {
    if (!valid_sym(GetU32(data + view.infos_off_ + 4 + 4 * uint64_t{k})) ||
        !valid_sym(GetU32(data + view.infos_off_ + 4 +
                          4 * uint64_t{view.info_count_} + 4 * uint64_t{k}))) {
      return Corrupt("infos");
    }
    const uint64_t value_rel =
        GetU64(data + view.infos_off_ + 4 + 8 * uint64_t{view.info_count_} +
               8 * uint64_t{k});
    if (value_rel > view.values_blob_len_) return Corrupt("infos");
  }

  // Environment rows (fixed 40 bytes) and lint rows (fixed 25 bytes).
  if (!fits(view.env_off_, 4)) return Corrupt("environment");
  view.env_count_ = GetU32(data + view.env_off_);
  if (!fits(view.env_off_, 4 + 40 * uint64_t{view.env_count_})) {
    return Corrupt("environment");
  }
  for (uint32_t i = 0; i < view.env_count_; ++i) {
    if (!valid_sym(GetU32(data + view.env_off_ + 4 + 40 * uint64_t{i} + 4))) {
      return Corrupt("environment");
    }
  }
  if (!fits(view.lint_off_, 4)) return Corrupt("lint");
  view.lint_count_ = GetU32(data + view.lint_off_);
  if (!fits(view.lint_off_, 4 + 25 * uint64_t{view.lint_count_})) {
    return Corrupt("lint");
  }
  for (uint32_t i = 0; i < view.lint_count_; ++i) {
    const uint64_t base = view.lint_off_ + 4 + 25 * uint64_t{i};
    if (!valid_sym(GetU32(data + base)) ||
        !valid_sym(GetU32(data + base + 4))) {
      return Corrupt("lint");
    }
  }

  // Resolve the hot info-name symbols once; scan loops compare u32 ids.
  view.start_time_sym_ = view.FindSymbol("StartTime");
  view.end_time_sym_ = view.FindSymbol("EndTime");
  return view;
}

const char* ArchiveView::ColPtr(uint32_t column) const {
  return bytes_.data() + ops_off_ + 4 +
         static_cast<uint64_t>(column) * ops_count_ * 4;
}

uint32_t ArchiveView::OpsCol(uint32_t column, uint32_t row) const {
  return GetU32(ColPtr(column) + 4 * uint64_t{row});
}

std::string_view ArchiveView::Symbol(uint32_t id) const {
  const uint64_t begin = GetU64(bytes_.data() + string_offsets_ + 8 * uint64_t{id});
  const uint64_t end =
      GetU64(bytes_.data() + string_offsets_ + 8 * (uint64_t{id} + 1));
  return std::string_view(bytes_.data() + string_blob_ + begin, end - begin);
}

std::optional<uint32_t> ArchiveView::FindSymbol(std::string_view s) const {
  for (uint32_t id = 0; id < string_count_; ++id) {
    if (Symbol(id) == s) return id;
  }
  return std::nullopt;
}

// ------------------------------------------------------------------- Op ----

uint32_t ArchiveView::Op::subtree_size() const {
  return view_->OpsCol(4, row_);
}

std::string_view ArchiveView::Op::actor_type() const {
  return view_->Symbol(view_->OpsCol(0, row_));
}

std::string_view ArchiveView::Op::actor_id() const {
  return view_->Symbol(view_->OpsCol(1, row_));
}

std::string_view ArchiveView::Op::mission_type() const {
  return view_->Symbol(view_->OpsCol(2, row_));
}

std::string_view ArchiveView::Op::mission_id() const {
  return view_->Symbol(view_->OpsCol(3, row_));
}

std::string_view ArchiveView::Op::name() const {
  std::string_view id = mission_id();
  return id.empty() ? mission_type() : id;
}

ArchiveView::Op ArchiveView::Op::FirstChild() const {
  const uint32_t size = subtree_size();
  if (size <= 1) return Op();
  return Op(view_, row_ + 1, row_ + size, level_ + 1);
}

ArchiveView::Op ArchiveView::Op::NextSibling() const {
  const uint32_t next = row_ + subtree_size();
  if (next >= sibling_end_) return Op();
  return Op(view_, next, sibling_end_, level_);
}

uint32_t ArchiveView::Op::info_count() const {
  return view_->OpsCol(6, row_);
}

std::string_view ArchiveView::Op::info_name(uint32_t k) const {
  const uint64_t info_row = uint64_t{view_->OpsCol(5, row_)} + k;
  return view_->Symbol(
      GetU32(view_->bytes_.data() + view_->infos_off_ + 4 + 4 * info_row));
}

std::string_view ArchiveView::Op::info_source(uint32_t k) const {
  const uint64_t info_row = uint64_t{view_->OpsCol(5, row_)} + k;
  return view_->Symbol(GetU32(view_->bytes_.data() + view_->infos_off_ + 4 +
                              4 * uint64_t{view_->info_count_} +
                              4 * info_row));
}

uint64_t ArchiveView::InfoValueOff(uint32_t info_row) const {
  const uint64_t rel =
      GetU64(bytes_.data() + infos_off_ + 4 + 8 * uint64_t{info_count_} +
             8 * uint64_t{info_row});
  return values_blob_ + rel;
}

Result<Json> ArchiveView::Op::info_value(uint32_t k) const {
  uint64_t off = view_->InfoValueOff(view_->OpsCol(5, row_) + k);
  return view_->DecodeValue(off, MaxInfoValueNesting(level_));
}

Result<Json> ArchiveView::DecodeValue(uint64_t& off, int max_nesting) const {
  if (max_nesting < 0) {
    return Status::Corruption("gba: info value nested too deeply");
  }
  const uint64_t end = values_blob_ + values_blob_len_;
  const char* data = bytes_.data();
  if (off + 1 > end) return Truncated("values");
  const auto tag = static_cast<GbaValueTag>(data[off]);
  ++off;
  // Fixed-width payload reads; symbol ids are range-checked here because
  // the value blob's interior is not validated at Open.
  auto need = [&](uint64_t width) { return off + width <= end; };
  auto symbol_at = [&](uint64_t at) -> Result<std::string_view> {
    const uint32_t id = GetU32(data + at);
    if (id >= string_count_) {
      return Status::Corruption(
          StrFormat("gba: symbol id %u out of range", id));
    }
    return Symbol(id);
  };
  switch (tag) {
    case GbaValueTag::kNull:
      return Json();
    case GbaValueTag::kFalse:
      return Json(false);
    case GbaValueTag::kTrue:
      return Json(true);
    case GbaValueTag::kInt: {
      if (!need(8)) return Truncated("values");
      const auto v = static_cast<int64_t>(GetU64(data + off));
      off += 8;
      return Json(v);
    }
    case GbaValueTag::kDouble: {
      if (!need(8)) return Truncated("values");
      const double v = GetF64(data + off);
      off += 8;
      return Json(v);
    }
    case GbaValueTag::kString: {
      if (!need(4)) return Truncated("values");
      GRANULA_ASSIGN_OR_RETURN(std::string_view s, symbol_at(off));
      off += 4;
      return Json(s);
    }
    case GbaValueTag::kArray: {
      if (!need(4)) return Truncated("values");
      const uint32_t count = GetU32(data + off);
      off += 4;
      Json array = Json::MakeArray();
      for (uint32_t i = 0; i < count; ++i) {
        GRANULA_ASSIGN_OR_RETURN(Json element,
                                 DecodeValue(off, max_nesting - 1));
        array.Append(std::move(element));
      }
      return array;
    }
    case GbaValueTag::kObject: {
      if (!need(4)) return Truncated("values");
      const uint32_t count = GetU32(data + off);
      off += 4;
      Json object = Json::MakeObject();
      for (uint32_t i = 0; i < count; ++i) {
        if (!need(4)) return Truncated("values");
        GRANULA_ASSIGN_OR_RETURN(std::string_view key, symbol_at(off));
        off += 4;
        GRANULA_ASSIGN_OR_RETURN(Json element,
                                 DecodeValue(off, max_nesting - 1));
        object[std::string(key)] = std::move(element);
      }
      return object;
    }
  }
  return Status::Corruption(StrFormat("gba: unknown value tag %u",
                                      static_cast<unsigned>(tag)));
}

bool ArchiveView::NumericValueAt(uint64_t off, bool* is_int, int64_t* out_int,
                                 double* out_double) const {
  const uint64_t end = values_blob_ + values_blob_len_;
  if (off + 1 > end) return false;
  const auto tag = static_cast<GbaValueTag>(bytes_[off]);
  if (tag != GbaValueTag::kInt && tag != GbaValueTag::kDouble) return false;
  if (off + 9 > end) return false;
  if (tag == GbaValueTag::kInt) {
    *is_int = true;
    *out_int = static_cast<int64_t>(GetU64(bytes_.data() + off + 1));
  } else {
    *is_int = false;
    *out_double = GetF64(bytes_.data() + off + 1);
  }
  return true;
}

int ArchiveView::FindInfoRow(uint32_t begin, uint32_t count,
                             std::optional<uint32_t> sym) const {
  if (!sym.has_value()) return -1;
  const char* names = bytes_.data() + infos_off_ + 4;
  for (uint32_t k = 0; k < count; ++k) {
    if (GetU32(names + 4 * (uint64_t{begin} + k)) == *sym) {
      return static_cast<int>(begin + k);
    }
  }
  return -1;
}

bool ArchiveView::Op::HasInfo(std::string_view name) const {
  const uint32_t count = info_count();
  for (uint32_t k = 0; k < count; ++k) {
    if (info_name(k) == name) return true;
  }
  return false;
}

double ArchiveView::Op::InfoNumber(std::string_view name,
                                   double fallback) const {
  const uint32_t begin = view_->OpsCol(5, row_);
  const uint32_t count = info_count();
  for (uint32_t k = 0; k < count; ++k) {
    if (info_name(k) != name) continue;
    bool is_int = false;
    int64_t i = 0;
    double d = 0;
    if (!view_->NumericValueAt(view_->InfoValueOff(begin + k), &is_int, &i,
                               &d)) {
      return fallback;
    }
    return is_int ? static_cast<double>(i) : d;
  }
  return fallback;
}

double ArchiveView::Op::InfoNumberBySym(std::optional<uint32_t> name_sym,
                                        double fallback) const {
  const int info_row = view_->FindInfoRow(view_->OpsCol(5, row_),
                                          info_count(), name_sym);
  if (info_row < 0) return fallback;
  bool is_int = false;
  int64_t i = 0;
  double d = 0;
  if (!view_->NumericValueAt(
          view_->InfoValueOff(static_cast<uint32_t>(info_row)), &is_int, &i,
          &d)) {
    return fallback;
  }
  return is_int ? static_cast<double>(i) : d;
}

SimTime ArchiveView::TimeInfo(const Op& op,
                              std::optional<uint32_t> sym) const {
  const int info_row = FindInfoRow(OpsCol(5, op.row_), op.info_count(), sym);
  if (info_row < 0) return SimTime();
  bool is_int = false;
  int64_t i = 0;
  double d = 0;
  if (!NumericValueAt(InfoValueOff(static_cast<uint32_t>(info_row)), &is_int,
                      &i, &d)) {
    return SimTime();
  }
  // Doubles go through Json's saturating conversion, matching the
  // materialized tree's `value.AsInt()` bit for bit.
  return SimTime::Nanos(is_int ? i : Json(d).AsInt());
}

SimTime ArchiveView::Op::StartTime() const {
  return view_->TimeInfo(*this, view_->start_time_sym_);
}

SimTime ArchiveView::Op::EndTime() const {
  return view_->TimeInfo(*this, view_->end_time_sym_);
}

// ----------------------------------------------------- header sections ----

ArchiveView::Op ArchiveView::root() const {
  if (ops_count_ == 0) return Op();
  return Op(this, 0, ops_count_, 1);
}

ArchiveStatus ArchiveView::status() const {
  const uint64_t status_off = meta_off_ + 4 + 8 * uint64_t{meta_count_} + 4;
  return bytes_[status_off] == 1 ? ArchiveStatus::kIncomplete
                                 : ArchiveStatus::kComplete;
}

std::string_view ArchiveView::model_name() const {
  return Symbol(GetU32(bytes_.data() + meta_off_ + 4 + 8 * uint64_t{meta_count_}));
}

std::string_view ArchiveView::metadata_key(uint32_t i) const {
  return Symbol(GetU32(bytes_.data() + meta_off_ + 4 + 8 * uint64_t{i}));
}

std::string_view ArchiveView::metadata_value(uint32_t i) const {
  return Symbol(GetU32(bytes_.data() + meta_off_ + 8 + 8 * uint64_t{i}));
}

std::string_view ArchiveView::Metadata(std::string_view key,
                                       std::string_view fallback) const {
  for (uint32_t i = 0; i < meta_count_; ++i) {
    if (metadata_key(i) == key) return metadata_value(i);
  }
  return fallback;
}

ArchiveView::EnvRecord ArchiveView::environment(uint32_t i) const {
  const char* base = bytes_.data() + env_off_ + 4 + 40 * uint64_t{i};
  EnvRecord record;
  record.node = GetU32(base);
  record.hostname = Symbol(GetU32(base + 4));
  record.time_seconds = GetF64(base + 8);
  record.cpu_seconds_per_second = GetF64(base + 16);
  record.net_bytes_per_second = GetF64(base + 24);
  record.disk_bytes_per_second = GetF64(base + 32);
  return record;
}

Result<LintReport> ArchiveView::DecodeLint() const {
  LintReport report;
  for (uint32_t i = 0; i < lint_count_; ++i) {
    const char* base = bytes_.data() + lint_off_ + 4 + 25 * uint64_t{i};
    LintFinding finding;
    GRANULA_ASSIGN_OR_RETURN(finding.defect,
                             ParseLintDefect(Symbol(GetU32(base))));
    finding.detail = std::string(Symbol(GetU32(base + 4)));
    finding.op_id = GetU64(base + 8);
    finding.seq = GetU64(base + 16);
    finding.repaired = base[24] == 1;
    report.findings.push_back(std::move(finding));
  }
  return report;
}

// ---------------------------------------------------------- decodes ----

Result<OperationPtr> ArchiveView::DecodeOp(const Op& op, int levels) const {
  auto out = std::make_shared<ArchivedOperation>();
  out->actor_type = std::string(op.actor_type());
  out->actor_id = std::string(op.actor_id());
  out->mission_type = std::string(op.mission_type());
  out->mission_id = std::string(op.mission_id());
  for (uint32_t k = 0; k < op.info_count(); ++k) {
    GRANULA_ASSIGN_OR_RETURN(Json value, op.info_value(k));
    // Rows are stored in sorted-name order, so the end hint is exact.
    out->infos.insert_or_assign(
        out->infos.end(), std::string(op.info_name(k)),
        InfoValue{std::move(value), std::string(op.info_source(k))});
  }
  if (levels != 1) {
    for (Op child = op.FirstChild(); child; child = child.NextSibling()) {
      GRANULA_ASSIGN_OR_RETURN(auto decoded,
                               DecodeOp(child, levels > 0 ? levels - 1 : 0));
      out->children.push_back(std::move(decoded));
    }
  }
  return OperationPtr(std::move(out));
}

Result<PerformanceArchive> ArchiveView::Decode(int levels) const {
  PerformanceArchive archive;
  for (uint32_t i = 0; i < meta_count_; ++i) {
    archive.job_metadata[std::string(metadata_key(i))] =
        std::string(metadata_value(i));
  }
  archive.model_name = std::string(model_name());
  archive.status = status();
  if (has_root()) {
    GRANULA_ASSIGN_OR_RETURN(archive.root,
                             DecodeOp(root(), levels <= 0 ? 0 : levels));
  }
  archive.environment.reserve(env_count_);
  for (uint32_t i = 0; i < env_count_; ++i) {
    const EnvRecord r = environment(i);
    archive.environment.push_back(
        {r.node, std::string(r.hostname), r.time_seconds,
         r.cpu_seconds_per_second, r.net_bytes_per_second,
         r.disk_bytes_per_second});
  }
  GRANULA_ASSIGN_OR_RETURN(archive.lint, DecodeLint());
  return archive;
}

Result<OperationPtr> ArchiveView::DecodeSubtree(std::string_view path) const {
  const std::vector<std::string> segments = StrSplit(path, '/');
  Op op = root();
  if (segments.empty() || !op || op.name() != segments[0]) op = Op();
  for (size_t i = 1; op && i < segments.size(); ++i) {
    Op child = op.FirstChild();
    while (child && child.name() != segments[i]) child = child.NextSibling();
    op = child;
  }
  if (!op) {
    return Status::NotFound(StrFormat("no operation at path '%.*s'",
                                      static_cast<int>(path.size()),
                                      path.data()));
  }
  return DecodeOp(op, 0);
}

}  // namespace granula::core

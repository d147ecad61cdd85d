#include "granula/archive/gba.h"

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

namespace granula::core {
namespace {

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutTag(std::string& out, GbaValueTag tag) {
  PutU8(out, static_cast<uint8_t>(tag));
}

void PutU32(std::string& out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out.append(b, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 8);
}

void PutF64(std::string& out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  PutU64(out, bits);
}

void PatchU64(std::string& out, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[pos + i] = static_cast<char>(v >> (8 * i));
}

// First-encounter-order string interning. Deterministic for a given
// archive: the walk order below never depends on memory layout, and the
// hash table only answers "seen before?" — ids come from `order_`. Every
// interned string is a view into the archive being encoded (or a static
// name), which outlives the table.
class SymbolTable {
 public:
  uint32_t Intern(std::string_view s) {
    auto [it, inserted] =
        index_.try_emplace(s, static_cast<uint32_t>(order_.size()));
    if (inserted) order_.push_back(s);
    return it->second;
  }

  void Serialize(std::string& out) const {
    PutU32(out, static_cast<uint32_t>(order_.size()));
    uint64_t off = 0;
    for (std::string_view s : order_) {
      PutU64(out, off);
      off += s.size();
    }
    PutU64(out, off);  // offsets[count] == blob length
    for (std::string_view s : order_) out.append(s);
  }

 private:
  std::unordered_map<std::string_view, uint32_t> index_;
  std::vector<std::string_view> order_;
};

void EncodeValue(const Json& v, SymbolTable& syms, std::string& blob) {
  switch (v.type()) {
    case Json::Type::kNull:
      PutTag(blob, GbaValueTag::kNull);
      return;
    case Json::Type::kBool:
      PutTag(blob, v.AsBool() ? GbaValueTag::kTrue : GbaValueTag::kFalse);
      return;
    case Json::Type::kInt:
      PutTag(blob, GbaValueTag::kInt);
      PutU64(blob, static_cast<uint64_t>(v.AsInt()));
      return;
    case Json::Type::kDouble:
      PutTag(blob, GbaValueTag::kDouble);
      PutF64(blob, v.AsDouble());
      return;
    case Json::Type::kString:
      PutTag(blob, GbaValueTag::kString);
      PutU32(blob, syms.Intern(v.AsString()));
      return;
    case Json::Type::kArray: {
      PutTag(blob, GbaValueTag::kArray);
      const Json::Array& array = v.AsArray();
      PutU32(blob, static_cast<uint32_t>(array.size()));
      for (const Json& element : array) EncodeValue(element, syms, blob);
      return;
    }
    case Json::Type::kObject: {
      PutTag(blob, GbaValueTag::kObject);
      const Json::Object& object = v.AsObject();
      PutU32(blob, static_cast<uint32_t>(object.size()));
      for (const auto& [key, element] : object) {
        PutU32(blob, syms.Intern(key));
        EncodeValue(element, syms, blob);
      }
      return;
    }
  }
}

}  // namespace

bool LooksLikeGba(std::string_view bytes) {
  return bytes.size() >= sizeof(kGbaMagic) &&
         std::memcmp(bytes.data(), kGbaMagic, sizeof(kGbaMagic)) == 0;
}

namespace {

// Shared by EncodeGba (root = archive.root) and EncodeGbaSubtree (root =
// any operation under an empty shell archive): the row walk starts at
// `root`, the header sections come from `archive`.
std::string EncodeGbaImpl(const PerformanceArchive& archive,
                          const ArchivedOperation* root) {
  SymbolTable syms;

  // ---- walk the tree once: columns, info rows, value blob -------------
  struct OpRow {
    uint32_t actor_type, actor_id, mission_type, mission_id;
    uint32_t subtree_size, info_begin, info_count;
  };
  std::vector<OpRow> ops;
  struct InfoRow {
    uint32_t name, source;
    uint64_t value_off;
  };
  std::vector<InfoRow> infos;
  std::string values;

  // Pre-order emission; returns the subtree size in rows. The row is
  // reserved before recursing so children land at row+1 onward.
  auto emit = [&](auto&& self, const ArchivedOperation& op) -> uint32_t {
    const size_t row = ops.size();
    ops.emplace_back();
    OpRow& r = ops[row];
    r.actor_type = syms.Intern(op.actor_type);
    r.actor_id = syms.Intern(op.actor_id);
    r.mission_type = syms.Intern(op.mission_type);
    r.mission_id = syms.Intern(op.mission_id);
    r.info_begin = static_cast<uint32_t>(infos.size());
    r.info_count = static_cast<uint32_t>(op.infos.size());
    for (const auto& [name, info] : op.infos) {  // std::map: sorted order
      InfoRow info_row;
      info_row.name = syms.Intern(name);
      info_row.source = syms.Intern(info.source);
      info_row.value_off = values.size();
      EncodeValue(info.value, syms, values);
      infos.push_back(info_row);
    }
    uint32_t size = 1;
    for (const auto& child : op.children) size += self(self, *child);
    ops[row].subtree_size = size;  // `r` may dangle after the recursion
    return size;
  };
  if (root != nullptr) emit(emit, *root);

  // ---- metadata / environment / lint (intern before serializing) -----
  std::vector<std::pair<uint32_t, uint32_t>> meta;
  for (const auto& [key, value] : archive.job_metadata) {
    meta.emplace_back(syms.Intern(key), syms.Intern(value));
  }
  const uint32_t model_sym = syms.Intern(archive.model_name);
  struct EnvRow {
    uint32_t node, hostname;
    double time, cpu, net, disk;
  };
  std::vector<EnvRow> env;
  for (const EnvironmentRecord& r : archive.environment) {
    env.push_back({r.node, syms.Intern(r.hostname), r.time_seconds,
                   r.cpu_seconds_per_second, r.net_bytes_per_second,
                   r.disk_bytes_per_second});
  }
  struct LintRow {
    uint32_t defect, detail;
    uint64_t op_id, seq;
    bool repaired;
  };
  std::vector<LintRow> lint;
  for (const LintFinding& f : archive.lint.findings) {
    lint.push_back({syms.Intern(LintDefectName(f.defect)),
                    syms.Intern(f.detail), f.op_id, f.seq, f.repaired});
  }

  // ---- assemble -------------------------------------------------------
  std::string out;
  out.append(kGbaMagic, sizeof(kGbaMagic));
  PutU32(out, kGbaVersion);
  PutU64(out, 0);  // file_size, patched below
  const size_t section_table = out.size();
  for (int i = 0; i < 7; ++i) PutU64(out, 0);  // offsets, patched below
  uint64_t offsets[7];

  offsets[0] = out.size();  // strings
  syms.Serialize(out);

  offsets[1] = out.size();  // meta
  PutU32(out, static_cast<uint32_t>(meta.size()));
  for (const auto& [key, value] : meta) {
    PutU32(out, key);
    PutU32(out, value);
  }
  PutU32(out, model_sym);
  PutU8(out, archive.status == ArchiveStatus::kIncomplete ? 1 : 0);
  PutU8(out, root != nullptr ? 1 : 0);

  offsets[2] = out.size();  // ops (columnar)
  PutU32(out, static_cast<uint32_t>(ops.size()));
  for (const OpRow& r : ops) PutU32(out, r.actor_type);
  for (const OpRow& r : ops) PutU32(out, r.actor_id);
  for (const OpRow& r : ops) PutU32(out, r.mission_type);
  for (const OpRow& r : ops) PutU32(out, r.mission_id);
  for (const OpRow& r : ops) PutU32(out, r.subtree_size);
  for (const OpRow& r : ops) PutU32(out, r.info_begin);
  for (const OpRow& r : ops) PutU32(out, r.info_count);

  offsets[3] = out.size();  // infos (columnar)
  PutU32(out, static_cast<uint32_t>(infos.size()));
  for (const InfoRow& r : infos) PutU32(out, r.name);
  for (const InfoRow& r : infos) PutU32(out, r.source);
  for (const InfoRow& r : infos) PutU64(out, r.value_off);

  offsets[4] = out.size();  // values blob
  PutU64(out, values.size());
  out.append(values);

  offsets[5] = out.size();  // environment
  PutU32(out, static_cast<uint32_t>(env.size()));
  for (const EnvRow& r : env) {
    PutU32(out, r.node);
    PutU32(out, r.hostname);
    PutF64(out, r.time);
    PutF64(out, r.cpu);
    PutF64(out, r.net);
    PutF64(out, r.disk);
  }

  offsets[6] = out.size();  // lint
  PutU32(out, static_cast<uint32_t>(lint.size()));
  for (const LintRow& r : lint) {
    PutU32(out, r.defect);
    PutU32(out, r.detail);
    PutU64(out, r.op_id);
    PutU64(out, r.seq);
    PutU8(out, r.repaired ? 1 : 0);
  }

  PatchU64(out, 8, out.size());
  for (int i = 0; i < 7; ++i) PatchU64(out, section_table + 8 * i, offsets[i]);
  return out;
}

}  // namespace

std::string EncodeGba(const PerformanceArchive& archive) {
  return EncodeGbaImpl(archive, archive.root.get());
}

std::string EncodeGbaSubtree(const ArchivedOperation& root) {
  PerformanceArchive shell;
  return EncodeGbaImpl(shell, &root);
}

}  // namespace granula::core

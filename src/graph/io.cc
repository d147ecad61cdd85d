#include "graph/io.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>

#include "common/mapped_file.h"
#include "common/strings.h"
#include "graph/generators.h"

namespace granula::graph {

namespace {

// Dense ids in [0, size()) for raw vertex ids, in first-encounter order:
// an open-addressing table (linear probing, power-of-two capacity, at most
// half full) keyed by the raw id.
class DenseIds {
 public:
  VertexId Densify(uint64_t raw) {
    if (2 * (count_ + 1) > slots_.size()) Grow();
    for (uint64_t i = Home(raw);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) {
        slot = Slot{raw, ++count_};
        return count_ - 1;
      }
      if (slot.raw == raw) return slot.id_plus_one - 1;
    }
  }
  uint64_t size() const { return count_; }

 private:
  struct Slot {
    uint64_t raw = 0;
    uint64_t id_plus_one = 0;  // 0: empty
  };

  // Fibonacci hashing: the top bits of raw * 2^64/phi.
  uint64_t Home(uint64_t raw) const {
    return (raw * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const uint64_t capacity = old.empty() ? 1024 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.id_plus_one == 0) continue;
      uint64_t i = Home(slot.raw);
      while (slots_[i].id_plus_one != 0) i = (i + 1) & (capacity - 1);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 0;  // set by the first Grow()
  uint64_t count_ = 0;
};

// isspace() in the "C" locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Reads one field at *pos the way `std::istream >> uint64_t` does: skips
// whitespace, takes an optional sign and at least one decimal digit, and
// stops at the first non-digit. A '-' negates modulo 2^64; a magnitude
// over 2^64 - 1 fails.
bool ReadField(std::string_view line, size_t* pos, uint64_t* value) {
  size_t i = *pos;
  while (i < line.size() && IsSpace(line[i])) ++i;
  const bool negative = i < line.size() && line[i] == '-';
  if (i < line.size() && (line[i] == '+' || line[i] == '-')) ++i;
  const char* end = line.data() + line.size();
  auto [next, error] = std::from_chars(line.data() + i, end, *value);
  if (error != std::errc()) return false;
  if (negative) *value = 0 - *value;
  *pos = static_cast<size_t>(next - line.data());
  return true;
}

}  // namespace

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  for (const Edge& e : graph.edges()) {
    file << e.src << ' ' << e.dst << '\n';
  }
  file.flush();
  if (!file.good()) {
    return Status::IoError(StrFormat("write failed for %s", path.c_str()));
  }
  return Status::OK();
}

Result<Graph> ReadEdgeListFile(const std::string& path, bool directed) {
  Result<MappedFile> file = MappedFile::Open(path);
  if (!file.ok()) return Status::IoError(file.status().message());
  DenseIds dense;
  std::vector<Edge> edges;
  std::string_view rest = file->data();
  size_t line_number = 0;
  while (!rest.empty()) {
    const size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                         : newline + 1);
    ++line_number;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    size_t pos = 0;
    uint64_t src_raw = 0, dst_raw = 0;
    if (!ReadField(trimmed, &pos, &src_raw) ||
        !ReadField(trimmed, &pos, &dst_raw)) {
      return Status::Corruption(
          StrFormat("%s:%zu: expected 'src dst'", path.c_str(),
                    line_number));
    }
    // Braced initializers run left to right: src is numbered first.
    edges.push_back(Edge{dense.Densify(src_raw), dense.Densify(dst_raw)});
  }
  return Graph::Create(dense.size(), std::move(edges), directed);
}

Status WriteValuesFile(const std::vector<double>& values,
                       const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  for (size_t v = 0; v < values.size(); ++v) {
    file << v << ' ' << StrFormat("%.17g", values[v]) << '\n';
  }
  file.flush();
  if (!file.good()) {
    return Status::IoError(StrFormat("write failed for %s", path.c_str()));
  }
  return Status::OK();
}

Result<Graph> GraphFromSpec(const std::string& spec) {
  size_t colon = spec.find(':');
  std::string kind = spec.substr(0, colon);
  std::string args = colon == std::string::npos ? "" : spec.substr(colon + 1);
  std::vector<std::string> parts = StrSplit(args, ',');
  // Empty/omitted fields keep their default; present fields must parse.
  auto arg_u64 = [&](size_t i, uint64_t fallback) -> Result<uint64_t> {
    if (i >= parts.size() || parts[i].empty()) return fallback;
    Result<uint64_t> value = ParseUint64(parts[i]);
    if (!value.ok()) {
      return Status::InvalidArgument("bad graph spec '" + spec +
                                     "': " + value.status().message());
    }
    return value;
  };
  auto arg_double = [&](size_t i, double fallback) -> Result<double> {
    if (i >= parts.size() || parts[i].empty()) return fallback;
    Result<double> value = ParseFiniteDouble(parts[i]);
    if (!value.ok()) {
      return Status::InvalidArgument("bad graph spec '" + spec +
                                     "': " + value.status().message());
    }
    return value;
  };
  if (kind == "datagen") {
    DatagenConfig config;
    GRANULA_ASSIGN_OR_RETURN(config.num_vertices, arg_u64(0, 100000));
    GRANULA_ASSIGN_OR_RETURN(config.avg_degree, arg_double(1, 15.0));
    return GenerateDatagen(config);
  }
  if (kind == "rmat") {
    RmatConfig config;
    GRANULA_ASSIGN_OR_RETURN(config.scale, arg_u64(0, 16));
    GRANULA_ASSIGN_OR_RETURN(config.edge_factor, arg_double(1, 16.0));
    return GenerateRmat(config);
  }
  if (kind == "uniform") {
    GRANULA_ASSIGN_OR_RETURN(uint64_t vertices, arg_u64(0, 10000));
    GRANULA_ASSIGN_OR_RETURN(uint64_t edges, arg_u64(1, 80000));
    return GenerateUniform(vertices, edges, 42);
  }
  if (kind == "file") {
    return ReadEdgeListFile(args, /*directed=*/false);
  }
  return Status::InvalidArgument("unknown graph spec '" + spec +
                                 "' (datagen:|rmat:|uniform:|file:)");
}

}  // namespace granula::graph

#include "granula/archive/repository.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <utility>

#include "common/mapped_file.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "granula/archive/gba.h"

#if defined(__unix__) || defined(__APPLE__)
#define GRANULA_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace granula::core {

namespace fs = std::filesystem;

namespace {

constexpr const char* kIndexStem = "index";
constexpr uint32_t kIndexVersion = 1;

std::atomic<uint64_t> g_body_reads{0};
std::atomic<uint64_t> g_scan_archives{0};
std::atomic<uint64_t> g_scan_bytes{0};
std::atomic<int64_t (*)()> g_wall_clock{nullptr};
std::mutex g_fault_hook_mutex;
std::function<Status(const char* stage, const std::string& path)>
    g_fault_hook;  // guarded by g_fault_hook_mutex

int64_t NowUnixSeconds() {
  if (auto* clock = g_wall_clock.load(std::memory_order_relaxed)) {
    return clock();
  }
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Status RunFaultHook(const char* stage, const std::string& path) {
  std::function<Status(const char*, const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(g_fault_hook_mutex);
    hook = g_fault_hook;
  }
  return hook ? hook(stage, path) : Status::OK();
}

// Save time of an archive file that predates the index (rebuilds).
int64_t FileMtimeUnixSeconds(const std::string& path) {
#ifdef GRANULA_HAVE_POSIX_IO
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) return static_cast<int64_t>(st.st_mtime);
#endif
  return 0;
}

// Index entries that would change are the ones a crash between the body
// and index writes could leave stale. The save time is not compared: an
// unchanged overwrite (perfbench's replay) keeps its single index write.
bool SameListing(const ArchiveRepository::Entry& a,
                 const ArchiveRepository::Entry& b) {
  return a.platform == b.platform && a.algorithm == b.algorithm &&
         a.status == b.status && a.total_seconds == b.total_seconds &&
         a.operations == b.operations;
}

}  // namespace

std::string_view ArchiveFormatName(ArchiveFormat format) {
  return format == ArchiveFormat::kGba ? "gba" : "json";
}

uint64_t ArchiveRepository::BodyReadCount() {
  return g_body_reads.load(std::memory_order_relaxed);
}

void ArchiveRepository::SetIoFaultHookForTest(
    std::function<Status(const char* stage, const std::string& path)> hook) {
  std::lock_guard<std::mutex> lock(g_fault_hook_mutex);
  g_fault_hook = std::move(hook);
}

void ArchiveRepository::SetWallClockForTest(int64_t (*now_unix_seconds)()) {
  g_wall_clock.store(now_unix_seconds, std::memory_order_relaxed);
}

Status ArchiveRepository::Init() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create %s: %s",
                                     directory_.c_str(),
                                     ec.message().c_str()));
  }
  return Status::OK();
}

std::string ArchiveRepository::PathFor(const std::string& name) const {
  return directory_ + "/" + name + ".gba";
}

std::string ArchiveRepository::IndexPath() const {
  return directory_ + "/" + kIndexStem + ".json";
}

Status ArchiveRepository::CheckNotLegacy(
    const std::map<std::string, Entry>& index) const {
  for (const auto& [name, entry] : index) {
    if (entry.format != ArchiveFormat::kGba) {
      return Status::FailedPrecondition(StrFormat(
          "%s holds JSON archive bodies written by an older granula (e.g. "
          "%s.json); convert them once with 'granula pack --repo=%s'",
          directory_.c_str(), name.c_str(), directory_.c_str()));
    }
  }
  return Status::OK();
}

Status ArchiveRepository::MissingBody(const std::string& name) const {
  GRANULA_RETURN_IF_ERROR(CheckNotLegacy(LoadIndex()));
  return Status::NotFound(
      StrFormat("no archive %s in %s", name.c_str(), directory_.c_str()));
}

Result<MappedFile> ArchiveRepository::OpenBody(const std::string& name) const {
  g_body_reads.fetch_add(1, std::memory_order_relaxed);
  const std::string path = PathFor(name);
  GRANULA_RETURN_IF_ERROR(RunFaultHook("read", path));
  Result<MappedFile> file = MappedFile::Open(path);
  if (!file.ok() && file.status().code() == StatusCode::kNotFound) {
    return MissingBody(name);
  }
  return file;
}

Status ArchiveRepository::WriteAtomic(const std::string& path,
                                      const std::string& payload) const {
  const std::string tmp = path + ".tmp";
#ifdef GRANULA_HAVE_POSIX_IO
  auto fail = [&](int fd, Status status) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  GRANULA_RETURN_IF_ERROR(RunFaultHook("write", tmp));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(StrFormat("cannot write %s", tmp.c_str()));
  }
  size_t written = 0;
  while (written < payload.size()) {
    ssize_t got =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (got < 0) {
      return fail(fd, Status::IoError(
                          StrFormat("write failed for %s", tmp.c_str())));
    }
    written += static_cast<size_t>(got);
  }
  // fsync before the rename: the rename's durability guarantee is only as
  // good as the bytes behind it. Without this, a crash shortly after the
  // rename could surface a zero-length or partial archive under the final
  // name — the one corruption the tmp+rename protocol exists to prevent.
  if (Status hook = RunFaultHook("fsync", tmp); !hook.ok()) {
    return fail(fd, std::move(hook));
  }
  if (::fsync(fd) != 0) {
    return fail(fd, Status::IoError(
                        StrFormat("fsync failed for %s", tmp.c_str())));
  }
  if (::close(fd) != 0) {
    return fail(-1, Status::IoError(
                        StrFormat("close failed for %s", tmp.c_str())));
  }
  if (Status hook = RunFaultHook("rename", tmp); !hook.ok()) {
    return fail(-1, std::move(hook));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return fail(-1, Status::IoError(
                        StrFormat("cannot move %s into place: %s",
                                  tmp.c_str(), ec.message().c_str())));
  }
  return Status::OK();
#else
  GRANULA_RETURN_IF_ERROR(RunFaultHook("write", tmp));
  {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (!file) {
      return Status::IoError(StrFormat("cannot write %s", tmp.c_str()));
    }
    file << payload;
    file.flush();
    if (!file.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::IoError(StrFormat("write failed for %s", tmp.c_str()));
    }
  }
  GRANULA_RETURN_IF_ERROR(RunFaultHook("fsync", tmp));
  GRANULA_RETURN_IF_ERROR(RunFaultHook("rename", tmp));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::IoError(StrFormat("cannot move %s into place: %s",
                                     tmp.c_str(), ec.message().c_str()));
  }
  return Status::OK();
#endif
}

ArchiveRepository::Entry ArchiveRepository::MakeEntry(
    const std::string& name, const PerformanceArchive& archive,
    int64_t saved) const {
  Entry entry;
  entry.name = name;
  auto platform_it = archive.job_metadata.find("platform");
  if (platform_it != archive.job_metadata.end()) {
    entry.platform = platform_it->second;
  }
  auto algorithm_it = archive.job_metadata.find("algorithm");
  if (algorithm_it != archive.job_metadata.end()) {
    entry.algorithm = algorithm_it->second;
  }
  entry.status = std::string(ArchiveStatusName(archive.status));
  if (archive.root != nullptr) {
    entry.total_seconds = archive.root->Duration().seconds();
  }
  entry.operations = archive.OperationCount();
  entry.saved_unix_seconds = saved;
  return entry;
}

std::map<std::string, ArchiveRepository::Entry> ArchiveRepository::LoadIndex()
    const {
  std::map<std::string, Entry> entries;
  auto file = MappedFile::Open(IndexPath());
  if (!file.ok()) return entries;
  auto parsed = Json::Parse(file->data());
  if (!parsed.ok() ||
      parsed->GetInt("version") != static_cast<int64_t>(kIndexVersion)) {
    return entries;
  }
  const Json* listed = parsed->Find("entries");
  if (listed == nullptr || !listed->is_object()) return entries;
  for (const auto& [name, j] : listed->AsObject()) {
    Entry entry;
    entry.name = name;
    entry.platform = j.GetString("platform");
    entry.algorithm = j.GetString("algorithm");
    entry.status = j.GetString("status");
    entry.total_seconds = j.GetDouble("total_s");
    entry.operations = static_cast<uint64_t>(j.GetInt("ops"));
    entry.saved_unix_seconds = j.GetInt("saved");
    // Entries written before the "format" key existed had JSON bodies.
    entry.format = j.GetString("format", "json") == "gba"
                       ? ArchiveFormat::kGba
                       : ArchiveFormat::kJson;
    entries.emplace(name, std::move(entry));
  }
  return entries;
}

Status ArchiveRepository::StoreIndex(
    const std::map<std::string, Entry>& entries) const {
  Json listed = Json::MakeObject();
  for (const auto& [name, entry] : entries) {
    Json j = Json::MakeObject();
    j["platform"] = entry.platform;
    j["algorithm"] = entry.algorithm;
    j["status"] = entry.status;
    j["total_s"] = entry.total_seconds;
    j["ops"] = entry.operations;
    j["saved"] = entry.saved_unix_seconds;
    j["format"] = std::string(ArchiveFormatName(entry.format));
    listed[name] = std::move(j);
  }
  Json root = Json::MakeObject();
  root["version"] = static_cast<int64_t>(kIndexVersion);
  root["entries"] = std::move(listed);
  return WriteAtomic(IndexPath(), root.Dump(2) + "\n");
}

Result<std::set<std::string>> ArchiveRepository::ScanDisk(
    std::string_view extension) const {
  std::error_code ec;
  if (!fs::is_directory(directory_, ec)) {
    return Status::NotFound(
        StrFormat("no repository at %s", directory_.c_str()));
  }
  std::set<std::string> disk;
  fs::directory_iterator it(directory_, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot list %s: %s",
                                     directory_.c_str(),
                                     ec.message().c_str()));
  }
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) {
      return Status::IoError(StrFormat("error while listing %s: %s",
                                       directory_.c_str(),
                                       ec.message().c_str()));
    }
    const fs::path& path = it->path();
    std::string stem = path.stem().string();
    if (path.extension() == extension && stem != kIndexStem) {
      disk.insert(std::move(stem));
    }
  }
  return disk;
}

std::vector<ArchiveRepository::Entry> ArchiveRepository::Rebuild(
    const std::set<std::string>& disk,
    std::map<std::string, Entry> cached) const {
  std::vector<Entry> entries;
  std::map<std::string, Entry> rebuilt;
  for (const std::string& name : disk) {
    auto cached_it = cached.find(name);
    if (cached_it != cached.end()) {
      entries.push_back(cached_it->second);
      rebuilt.emplace(name, std::move(cached_it->second));
      continue;
    }
    auto archive = Load(name);
    if (!archive.ok()) continue;  // foreign or corrupt file: skip
    Entry entry =
        MakeEntry(name, *archive, FileMtimeUnixSeconds(PathFor(name)));
    entries.push_back(entry);
    rebuilt.emplace(name, std::move(entry));
  }
  // Best-effort persist: a read-only or shared directory keeps working,
  // it just rebuilds again next time.
  (void)StoreIndex(rebuilt);
  return entries;
}

Result<std::vector<ArchiveRepository::Entry>> ArchiveRepository::List()
    const {
  GRANULA_ASSIGN_OR_RETURN(std::set<std::string> disk, ScanDisk(".gba"));
  std::map<std::string, Entry> cached = LoadIndex();
  GRANULA_RETURN_IF_ERROR(CheckNotLegacy(cached));
  // Both sides are name-sorted, so the result is too.
  const bool consistent = std::equal(
      disk.begin(), disk.end(), cached.begin(), cached.end(),
      [](const std::string& name, const auto& indexed) {
        return name == indexed.first;
      });
  if (!consistent) return Rebuild(disk, std::move(cached));
  std::vector<Entry> entries;
  entries.reserve(cached.size());
  for (auto& [name, entry] : cached) entries.push_back(std::move(entry));
  return entries;
}

bool ArchiveRepository::Query::Matches(const Entry& entry) const {
  if (!platform.empty() && entry.platform != platform) return false;
  if (!algorithm.empty() && entry.algorithm != algorithm) return false;
  if (!status.empty() && entry.status != status) return false;
  if (saved_since != 0 && entry.saved_unix_seconds < saved_since) return false;
  if (saved_until != 0 && entry.saved_unix_seconds > saved_until) return false;
  return true;
}

Result<std::vector<ArchiveRepository::Entry>> ArchiveRepository::Select(
    const Query& query) const {
  if (query.saved_since != 0 && query.saved_until != 0 &&
      query.saved_since > query.saved_until) {
    return Status::InvalidArgument(StrFormat(
        "empty time range: since (%lld) is after until (%lld)",
        static_cast<long long>(query.saved_since),
        static_cast<long long>(query.saved_until)));
  }
  GRANULA_ASSIGN_OR_RETURN(std::vector<Entry> entries, List());
  std::vector<Entry> matched;
  for (Entry& entry : entries) {
    if (query.Matches(entry)) matched.push_back(std::move(entry));
  }
  return matched;
}

std::string ArchiveRepository::AutoName(
    const PerformanceArchive& archive,
    std::vector<std::string>* taken) {
  auto platform_it = archive.job_metadata.find("platform");
  auto algorithm_it = archive.job_metadata.find("algorithm");
  std::string prefix =
      (platform_it != archive.job_metadata.end() ? platform_it->second
                                                 : "run") +
      "-" +
      (algorithm_it != archive.job_metadata.end() ? algorithm_it->second
                                                  : "job");
  // One past the highest index already used, on disk or in this batch.
  // Scanning for the max (instead of the first gap) keeps auto-names
  // collision-free across deletions.
  int max_index = 0;
  auto consider = [&](const std::string& name) {
    if (name.rfind(prefix + "-", 0) != 0) return;
    std::string digits = name.substr(prefix.size() + 1);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return;
    }
    max_index = std::max(max_index, std::atoi(digits.c_str()));
  };
  if (auto disk = ScanDisk(".gba"); disk.ok()) {
    for (const std::string& name : *disk) consider(name);
  }
  for (const std::string& name : *taken) consider(name);
  // Removed archives leave no file behind; the high-water mark keeps
  // their indices retired anyway.
  int& high = high_water_[prefix];
  max_index = std::max(max_index, high);
  high = max_index + 1;
  std::string name = StrFormat("%s-%03d", prefix.c_str(), high);
  taken->push_back(name);
  return name;
}

Result<std::string> ArchiveRepository::Save(
    const PerformanceArchive& archive, const std::string& explicit_name) {
  GRANULA_RETURN_IF_ERROR(Init());
  if (explicit_name == kIndexStem) {
    return Status::InvalidArgument("archive name 'index' is reserved");
  }
  std::string name = explicit_name;
  if (name.empty()) {
    std::vector<std::string> taken;
    name = AutoName(archive, &taken);
  }
  GRANULA_RETURN_IF_ERROR(WriteBodies({name}, {&archive}));
  return name;
}

Result<std::vector<std::string>> ArchiveRepository::SaveAll(
    const std::vector<const PerformanceArchive*>& archives) {
  GRANULA_RETURN_IF_ERROR(Init());
  // Assign all names up front (single-threaded: auto-naming scans the
  // directory), then fan the serialize+write work out to the host pool.
  std::vector<std::string> names(archives.size());
  std::vector<std::string> taken;
  for (size_t i = 0; i < archives.size(); ++i) {
    if (archives[i] == nullptr) {
      return Status::InvalidArgument("SaveAll: null archive");
    }
    names[i] = AutoName(*archives[i], &taken);
  }
  GRANULA_RETURN_IF_ERROR(WriteBodies(names, archives));
  return names;
}

Status ArchiveRepository::WriteBodies(
    const std::vector<std::string>& names,
    const std::vector<const PerformanceArchive*>& archives) {
  std::map<std::string, Entry> index = LoadIndex();
  GRANULA_RETURN_IF_ERROR(CheckNotLegacy(index));
  const int64_t saved = NowUnixSeconds();
  std::vector<Entry> entries;
  entries.reserve(archives.size());
  bool drop = false;
  for (size_t i = 0; i < archives.size(); ++i) {
    entries.push_back(MakeEntry(names[i], *archives[i], saved));
    auto it = index.find(names[i]);
    if (it != index.end() && !SameListing(it->second, entries.back())) {
      index.erase(it);
      drop = true;
    }
  }
  // Unlike the final index write, this one must land: it is what keeps a
  // crash after the body rename from listing the old metadata.
  if (drop) GRANULA_RETURN_IF_ERROR(StoreIndex(index));

  std::vector<Status> statuses(archives.size());
  ParallelFor(0, archives.size(), 1, [&](uint64_t i, uint64_t, uint64_t) {
    statuses[i] = WriteAtomic(PathFor(names[i]), EncodeGba(*archives[i]));
  });

  // Index the writes that landed even when some failed: the index must
  // mirror the directory, not the batch's intent. Best-effort: the index
  // is derivable from the bodies, so a failure here only costs a rebuild
  // on the next List().
  bool landed = false;
  for (size_t i = 0; i < archives.size(); ++i) {
    if (!statuses[i].ok()) continue;
    CacheInvalidate(names[i]);
    index[names[i]] = std::move(entries[i]);
    landed = true;
  }
  if (landed) (void)StoreIndex(index);

  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<PerformanceArchive> ArchiveRepository::Load(const std::string& name,
                                                  int levels) const {
  GRANULA_ASSIGN_OR_RETURN(MappedFile file, OpenBody(name));
  GRANULA_ASSIGN_OR_RETURN(ArchiveView view, ArchiveView::Open(file.data()));
  return view.Decode(levels);
}

ArchiveRepository::ViewScanStats ArchiveRepository::ScanStats() {
  ViewScanStats stats;
  stats.archives_scanned = g_scan_archives.load(std::memory_order_relaxed);
  stats.bytes_mapped = g_scan_bytes.load(std::memory_order_relaxed);
  return stats;
}

Status ArchiveRepository::ScanEntries(const std::vector<Entry>& entries,
                                      const ScanFn& fn) const {
  if (entries.empty()) return Status::OK();
  // Per-index error slots; the lowest failing index wins, as a sequential
  // loop's first error would. The chunk decomposition depends only on
  // (count, grain), so result assembly is thread-count independent.
  std::vector<Status> statuses(entries.size());
  const uint64_t grain = ChunkedGrain(entries.size(), 64, 1);
  ParallelFor(0, entries.size(), grain,
              [&](uint64_t /*chunk*/, uint64_t begin, uint64_t end) {
                for (uint64_t i = begin; i < end && i < entries.size(); ++i) {
                  const Entry& entry = entries[i];
                  statuses[i] = ScanArchive(
                      entry.name, [&](const ArchiveView& view) {
                        return fn(static_cast<size_t>(i), entry, view);
                      });
                }
              });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ArchiveRepository::ScanAll(const ScanFn& fn) const {
  GRANULA_ASSIGN_OR_RETURN(std::vector<Entry> entries, List());
  return ScanEntries(entries, fn);
}

Status ArchiveRepository::ScanSelect(const Query& query,
                                     const ScanFn& fn) const {
  GRANULA_ASSIGN_OR_RETURN(std::vector<Entry> entries, Select(query));
  return ScanEntries(entries, fn);
}

Status ArchiveRepository::ScanArchive(
    const std::string& name,
    const std::function<Status(const ArchiveView&)>& fn) const {
  GRANULA_ASSIGN_OR_RETURN(MappedFile file, OpenBody(name));
  g_scan_archives.fetch_add(1, std::memory_order_relaxed);
  g_scan_bytes.fetch_add(file.data().size(), std::memory_order_relaxed);
  GRANULA_ASSIGN_OR_RETURN(ArchiveView view, ArchiveView::Open(file.data()));
  return fn(view);
}

Result<OperationPtr> ArchiveRepository::FetchSubtree(
    const std::string& name, const std::string& path) {
  const std::string key = name + '\0' + path;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_capacity_ > 0) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++cache_stats_.hits;
        cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
        return it->second.subtree;
      }
    }
    ++cache_stats_.misses;
  }

  // Disk decode runs unlocked so a cold fetch never stalls concurrent
  // hits on other keys.
  GRANULA_ASSIGN_OR_RETURN(MappedFile file, OpenBody(name));
  GRANULA_ASSIGN_OR_RETURN(ArchiveView view, ArchiveView::Open(file.data()));
  GRANULA_ASSIGN_OR_RETURN(OperationPtr subtree, view.DecodeSubtree(path));

  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_capacity_ > 0) {
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      // Another thread decoded and inserted the same key while we were
      // off the lock; adopt its entry so the cache holds one copy.
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
      return it->second.subtree;
    }
    while (cache_.size() >= cache_capacity_) {
      const std::string& victim = cache_lru_.back();
      cache_.erase(victim);
      cache_lru_.pop_back();
      ++cache_stats_.evictions;
    }
    cache_lru_.push_front(key);
    cache_.emplace(key, CacheSlot{subtree, cache_lru_.begin()});
  }
  return subtree;
}

ArchiveRepository::CacheStats ArchiveRepository::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_stats_;
}

void ArchiveRepository::set_cache_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_capacity_ = capacity;
  while (cache_.size() > cache_capacity_) {
    const std::string& victim = cache_lru_.back();
    cache_.erase(victim);
    cache_lru_.pop_back();
    ++cache_stats_.evictions;
  }
}

void ArchiveRepository::CacheInvalidate(const std::string& name) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  const std::string prefix = name + '\0';
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      cache_lru_.erase(it->second.lru_it);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<ArchiveRepository::PackStats> ArchiveRepository::Pack() {
  GRANULA_ASSIGN_OR_RETURN(std::set<std::string> legacy, ScanDisk(".json"));
  GRANULA_ASSIGN_OR_RETURN(std::set<std::string> packed, ScanDisk(".gba"));
  std::map<std::string, Entry> index = LoadIndex();
  PackStats stats;
  stats.skipped = packed.size();
  for (const std::string& name : legacy) {
    const std::string json_path = directory_ + "/" + name + ".json";
    GRANULA_RETURN_IF_ERROR(RunFaultHook("read", json_path));
    GRANULA_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(json_path));
    Result<PerformanceArchive> archive =
        PerformanceArchive::FromJsonString(file.data());
    const bool superseded = packed.count(name) > 0;
    if (!archive.ok()) {
      if (index.count(name) > 0 && !superseded) {
        return Status::Corruption(StrFormat("cannot import %s: %s",
                                            json_path.c_str(),
                                            archive.status().ToString().c_str()));
      }
      continue;  // foreign file
    }
    if (!superseded) {
      const std::string payload = EncodeGba(*archive);
      GRANULA_RETURN_IF_ERROR(WriteAtomic(PathFor(name), payload));
      CacheInvalidate(name);
      auto it = index.find(name);
      const int64_t saved = it != index.end() ? it->second.saved_unix_seconds
                                              : FileMtimeUnixSeconds(json_path);
      index[name] = MakeEntry(name, *archive, saved);
      stats.bytes_before += file.data().size();
      stats.bytes_after += payload.size();
      ++stats.converted;
    }
    std::error_code ignored;
    fs::remove(json_path, ignored);
  }
  // Entries a pack interrupted before its index write still carry the
  // legacy mark; their bodies are GBA by now, or gone (List() drops those).
  for (auto& [name, entry] : index) entry.format = ArchiveFormat::kGba;
  GRANULA_RETURN_IF_ERROR(StoreIndex(index));
  GRANULA_RETURN_IF_ERROR(List().status());
  return stats;
}

Status ArchiveRepository::Remove(const std::string& name) {
  std::error_code ec;
  if (!fs::remove(PathFor(name), ec) || ec) return MissingBody(name);
  CacheInvalidate(name);
  std::map<std::string, Entry> cached = LoadIndex();
  if (cached.erase(name) > 0) (void)StoreIndex(cached);
  return Status::OK();
}

}  // namespace granula::core

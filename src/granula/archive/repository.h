#ifndef GRANULA_GRANULA_ARCHIVE_REPOSITORY_H_
#define GRANULA_GRANULA_ARCHIVE_REPOSITORY_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mapped_file.h"
#include "common/result.h"
#include "granula/archive/archive.h"
#include "granula/archive/view.h"

namespace granula::core {

// Encoding of an archive body. GBA (granula/archive/gba.h) is the only
// body format a repository writes and reads; JSON is the interchange
// format of single archive files (`run --archive-out`, `query --name`,
// `analyze --archive`) and of repositories written by older granula
// versions, which Pack() imports once.
enum class ArchiveFormat { kJson, kGba };

std::string_view ArchiveFormatName(ArchiveFormat format);  // "json" / "gba"

// A directory of performance archives — the sharing mechanism behind
// requirement R2 ("sharing performance results for the entire community
// of analysts"): runs accumulate as archive files that any analyst can
// list, query, reload, re-visualize, and diff without re-running
// experiments.
//
// Layout: <directory>/<name>.gba, where auto-generated names are
// "<platform>-<algorithm>-<NNN>" with NNN one past the highest index
// already on disk (never reusing a previously assigned name, even after
// deletions — names act as stable experiment ids). A persisted index file,
// <directory>/index.json, carries every entry List() and Query() need, so
// metadata queries never open archive bodies; the name "index" is
// reserved. Other files (including *.json) are foreign and skipped.
//
// Legacy directories: older versions wrote <name>.json bodies and marked
// their index entries "format": "json". While the index lists such an
// entry, every operation except Pack() fails with FailedPrecondition
// naming `granula pack` — List/Select/Scan*/Save/SaveAll always, and
// Load/FetchSubtree/ScanArchive/Remove when the named GBA body is absent.
// Opening never converts: serve roots and CI baselines are read-only.
//
// Durability: every save writes <name>.gba.tmp, fsyncs it, and renames it
// into place, so a crash or full disk mid-write never leaves a truncated
// archive visible to List()/Load(). The index is rewritten the same way
// after the body is durable; since the index can always be rebuilt from
// the archive files, a crash between the two writes loses nothing. An
// overwrite whose index entry would change first drops that entry, so
// the crash window never lists stale metadata.
class ArchiveRepository {
 public:
  explicit ArchiveRepository(std::string directory)
      : directory_(std::move(directory)) {}

  const std::string& directory() const { return directory_; }

  // Creates the directory if needed.
  Status Init();

  // Bodies are always GBA. Kept for source compatibility; accepts only
  // kGba.
  void set_write_format(ArchiveFormat format) {
    assert(format == ArchiveFormat::kGba);
    (void)format;
  }

  // Saves under an auto-generated (or explicit) name; returns the name.
  // The body write is fsync'd before the rename, and the index entry is
  // updated atomically afterwards.
  Result<std::string> Save(const PerformanceArchive& archive,
                           const std::string& name = "");

  // Batch save: encodes and writes N archives on the host pool
  // (serialization dominates the cost, so this scales with
  // GRANULA_HOST_THREADS). Names are assigned up front, exactly as N
  // sequential Save() calls would; the returned vector is parallel to
  // `archives`. On any failure the first error is returned and the
  // remaining archives are still attempted, so a batch never leaves
  // half-written files behind. The index is updated once, after every
  // body is durable.
  Result<std::vector<std::string>> SaveAll(
      const std::vector<const PerformanceArchive*>& archives);

  struct Entry {
    std::string name;
    std::string platform;
    std::string algorithm;
    std::string status;  // ArchiveStatusName: "complete" / "incomplete"
    double total_seconds = 0;
    uint64_t operations = 0;
    int64_t saved_unix_seconds = 0;
    // kGba for every listed entry; kJson only marks a legacy index entry.
    ArchiveFormat format = ArchiveFormat::kGba;
  };

  // All archives in the repository, sorted by name. Served from the
  // persisted index whenever the index agrees with the set of archive
  // files on disk; otherwise the index is rebuilt (foreign/corrupt files
  // are skipped — a shared directory may contain other data) and
  // re-persisted best-effort. Directory-iteration failures surface as
  // IoError.
  Result<std::vector<Entry>> List() const;

  // Index-backed filtering: empty string fields are wildcards, the time
  // bounds are *inclusive* unix seconds on the save time (0 = unbounded):
  // an entry saved at exactly `saved_since` or exactly `saved_until`
  // matches. A query with both bounds set and saved_since > saved_until is
  // an InvalidArgument error, not an empty result — the HTTP layer maps it
  // to a 400 and a silent empty list would hide the caller's mistake.
  // Never opens archive bodies when the index is consistent.
  struct Query {
    std::string platform;
    std::string algorithm;
    std::string status;
    int64_t saved_since = 0;
    int64_t saved_until = 0;

    bool Matches(const Entry& entry) const;
  };
  Result<std::vector<Entry>> Select(const Query& query) const;

  // Loads an archive. `levels` > 0 cuts the operation tree to its first
  // `levels` levels (root = level 1); the rows below the cut are never
  // materialised — serve's `?depth=` and `granula query --findings` read
  // this way. Counts toward BodyReadCount().
  Result<PerformanceArchive> Load(const std::string& name,
                                  int levels = 0) const;

  // Decodes one operation subtree (FindByPath semantics) through an LRU
  // cache of hot subtrees. Only the subtree's rows are decoded from the
  // mapped file. The returned pointer stays valid after eviction (shared
  // ownership). NotFound when the archive or path does not exist.
  //
  // Safe to call from concurrent readers (the serve daemon's workers all
  // share one repository): the cache and its stats are mutex-guarded, and
  // the disk decode on a miss runs outside the lock so a cold fetch never
  // stalls concurrent hits. Two threads missing the same key may both
  // decode; the first insert wins and the loser adopts it.
  Result<OperationPtr> FetchSubtree(const std::string& name,
                                   const std::string& path);

  // ---- zero-copy batch scans -----------------------------------------
  //
  // The analysis fast path: run a callback over an ArchiveView of every
  // matching archive without materializing a single PerformanceArchive:
  // bodies are mmap'd and viewed in place.
  //
  // ScanAll/ScanSelect run the callbacks as one ParallelFor job on the
  // process-wide host pool. Determinism contract: archives are indexed in
  // List()/Select() order (name-sorted), the callback receives that index,
  // and callers route results into index-addressed slots — so output
  // assembled in index order is byte-identical at any GRANULA_HOST_THREADS.
  // The callback must be safe to call concurrently for distinct indices.
  // On failures the error for the lowest index wins, matching what a
  // sequential loop would have returned first.
  using ScanFn =
      std::function<Status(size_t index, const Entry& entry,
                           const ArchiveView& view)>;
  Status ScanAll(const ScanFn& fn) const;
  Status ScanSelect(const Query& query, const ScanFn& fn) const;
  // One archive by name (serve's findings/quarantine routes).
  Status ScanArchive(const std::string& name,
                     const std::function<Status(const ArchiveView&)>& fn) const;

  // Process-wide view-scan counters, mirroring BodyReadCount(): archives
  // opened through the scan path and bytes mapped for them. Served at
  // /stats. `fallbacks` is always 0 (no body is re-encoded any more); it is
  // kept for source compatibility.
  struct ViewScanStats {
    uint64_t archives_scanned = 0;
    uint64_t bytes_mapped = 0;
    uint64_t fallbacks = 0;
  };
  static ViewScanStats ScanStats();

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  // Consistent snapshot of the counters (by value: readers may be
  // concurrently fetching).
  CacheStats cache_stats() const;
  // Maximum cached subtrees (default 64). 0 disables caching.
  void set_cache_capacity(size_t capacity);

  // One-way import of a legacy directory: converts every <name>.json
  // archive body to <name>.gba and rewrites the index without legacy
  // marks. Conversion is atomic per archive: the GBA body is fsync-renamed
  // into place before the JSON one is removed, and a JSON body with a GBA
  // sibling (a newer save, or an interrupted pack) is just removed. So an
  // interrupted Pack() finishes when run again. *.json files that do not
  // parse as archives are foreign and left alone, unless the index lists
  // them; that fails the pack. Saved times are kept.
  struct PackStats {
    size_t converted = 0;
    size_t skipped = 0;  // bodies that were already GBA
    uint64_t bytes_before = 0;  // total size of converted JSON bodies
    uint64_t bytes_after = 0;
  };
  Result<PackStats> Pack();

  Status Remove(const std::string& name);

  // Number of archive-body files opened process-wide (Load,
  // FetchSubtree misses, index rebuilds). Tests pin this to prove that
  // index-served List()/Select() answer without touching bodies.
  static uint64_t BodyReadCount();

  // Test hooks (process-wide). The I/O fault hook runs before each stage
  // of an atomic write — stage is "write", "fsync", or "rename", `path`
  // the tmp file — or before an archive body read (stage "read", `path`
  // the archive file) — and a non-OK return makes that stage fail as a
  // device error would. The wall clock override feeds Entry::saved_unix_seconds.
  // Pass {} / nullptr to restore the defaults.
  static void SetIoFaultHookForTest(
      std::function<Status(const char* stage, const std::string& path)> hook);
  static void SetWallClockForTest(int64_t (*now_unix_seconds)());

 private:
  std::string PathFor(const std::string& name) const;  // <name>.gba
  std::string IndexPath() const;

  // Serializes `payload` to <path>.tmp, fsyncs, then renames into place.
  Status WriteAtomic(const std::string& path,
                     const std::string& payload) const;

  // Maps the GBA body of `name`. Counts toward BodyReadCount(). A missing
  // body is NotFound, or FailedPrecondition in a legacy directory.
  Result<MappedFile> OpenBody(const std::string& name) const;
  Status MissingBody(const std::string& name) const;
  // FailedPrecondition naming `granula pack` when `index` lists a JSON
  // body.
  Status CheckNotLegacy(const std::map<std::string, Entry>& index) const;

  // Fans `fn` out over `entries` on the host pool (see ScanAll).
  Status ScanEntries(const std::vector<Entry>& entries,
                     const ScanFn& fn) const;

  // Builds the index entry for an in-memory archive (no I/O).
  Entry MakeEntry(const std::string& name, const PerformanceArchive& archive,
                  int64_t saved) const;

  // Index persistence. LoadIndex returns entries keyed by name; a missing
  // or unreadable index reads as empty.
  std::map<std::string, Entry> LoadIndex() const;
  Status StoreIndex(const std::map<std::string, Entry>& entries) const;

  // Stems of the files on disk with `extension` ("index" excluded).
  Result<std::set<std::string>> ScanDisk(std::string_view extension) const;

  // Rebuilds index entries for `disk`, reusing `cached` where the name is
  // already present, and persists the result best-effort.
  std::vector<Entry> Rebuild(const std::set<std::string>& disk,
                             std::map<std::string, Entry> cached) const;

  // Encodes and writes one body per archive on the host pool (one
  // archive per chunk, so a single archive runs on the calling thread),
  // then indexes the bodies that landed (best-effort: the index is
  // reconstructible). Returns the first write error.
  Status WriteBodies(const std::vector<std::string>& names,
                     const std::vector<const PerformanceArchive*>& archives);

  // Auto-name for `archive`: "<platform>-<algorithm>-<NNN>". `taken` keeps
  // names unique within one batch before anything reaches the disk.
  std::string AutoName(const PerformanceArchive& archive,
                       std::vector<std::string>* taken);

  void CacheInvalidate(const std::string& name);

  std::string directory_;
  // Highest auto-index handed out per prefix. The disk scan alone would
  // forget an index once its file is Remove()d; this keeps names
  // monotonically increasing for the repository's lifetime.
  std::map<std::string, int> high_water_;

  // LRU subtree cache: list front = most recent; map values hold the list
  // iterator for O(1) touch. Keys are "<name>\0<path>". `cache_mu_` guards
  // every member below it — FetchSubtree runs on the serve daemon's
  // concurrent workers; the rest of the repository (Save/Pack/Remove call
  // CacheInvalidate) stays single-writer as before.
  struct CacheSlot {
    OperationPtr subtree;
    std::list<std::string>::iterator lru_it;
  };
  mutable std::mutex cache_mu_;
  size_t cache_capacity_ = 64;
  std::list<std::string> cache_lru_;
  std::unordered_map<std::string, CacheSlot> cache_;
  CacheStats cache_stats_;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ARCHIVE_REPOSITORY_H_

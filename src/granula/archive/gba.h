#ifndef GRANULA_GRANULA_ARCHIVE_GBA_H_
#define GRANULA_GRANULA_ARCHIVE_GBA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "granula/archive/archive.h"

namespace granula::core {

// GBA — the Granula Binary Archive format. The compact, mmap-friendly
// on-disk twin of the JSON archive: JSON stays the interchange and lint
// format, GBA is what a repository serving millions of analysts actually
// reads. Design goals, in order:
//
//  1. Byte-exact interchange round trip: with bytes = EncodeGba(a),
//       ArchiveView::Open(bytes)->Decode()->ToJsonString()
//           == a.ToJsonString()
//     for every archive this codebase can produce (asserted over all five
//     platforms in tests/gba_test.cc).
//  2. Partial loads: one operation subtree — or the first K tree levels —
//     can be decoded without materialising the rest of the file.
//  3. Index-grade metadata: platform/algorithm/status are readable from
//     the header sections without decoding any operation.
//
// This file defines the format and its encoder. The one reader is
// ArchiveView (granula/archive/view.h): it validates a whole file once at
// Open and then serves zero-copy scans and the materialising decodes.
//
// Layout (all integers little-endian, sections 8-byte-independent since
// every read goes through memcpy):
//
//   header   "GBA1", u32 version, u64 file_size, seven u64 section
//            offsets (strings, meta, ops, infos, values, env, lint)
//   strings  interned symbol table: u32 count, u64 offsets[count+1]
//            (into the blob), blob bytes. Every string in the archive —
//            actor/mission names, info names, sources, metadata, and
//            strings inside info values — appears here exactly once.
//   meta     u32 pair count, (u32 key, u32 value) job_metadata pairs,
//            u32 model name, u8 status (1 = incomplete), u8 has_root.
//   ops      columnar operation arrays, pre-order: u32 count N, then
//            seven u32[N] columns (actor_type, actor_id, mission_type,
//            mission_id, subtree_size, info_begin, info_count).
//            subtree_size is the per-subtree offset table: the subtree
//            rooted at row i is exactly rows [i, i+subtree_size[i]), so
//            a reader skips a sibling in O(1) and decodes one subtree
//            without parsing anything outside its row range.
//   infos    columnar info arrays parallel to the ops rows: u32 count M,
//            u32 name[M], u32 source[M], u64 value_off[M] into the
//            values blob. Rows are grouped per op (ops column
//            info_begin/info_count) in sorted-name order, matching the
//            std::map order ToJson serializes.
//   values   u64 blob length, then binary-encoded Json payloads (a
//            GbaValueTag byte + fixed-width scalars + interned strings,
//            arrays/objects as u32 count + nested values inline).
//   env      EnvironmentRecord rows (fixed 40-byte rows).
//   lint     quarantine findings (defect name interned, fixed fields).
//
// Encoding is deterministic: two archives with equal ToJsonString() have
// byte-identical GBA encodings, so archives stay byte-comparable through
// pack/unpack at any GRANULA_HOST_THREADS (test-asserted).

inline constexpr uint32_t kGbaVersion = 1;
inline constexpr char kGbaMagic[4] = {'G', 'B', 'A', '1'};
// Magic + version + file size + seven section offsets.
inline constexpr size_t kGbaHeaderSize = 72;

// Leading byte of every encoded info value.
enum class GbaValueTag : uint8_t {
  kNull = 0,
  kFalse = 1,
  kTrue = 2,
  kInt = 3,     // + u64 (two's complement)
  kDouble = 4,  // + u64 IEEE-754 bits
  kString = 5,  // + u32 symbol id
  kArray = 6,   // + u32 count, then `count` values
  kObject = 7,  // + u32 count, then `count` (u32 key symbol, value) pairs
};

// True when `bytes` starts with the GBA magic ("GBA1"). A cheap sniff for
// tools that accept both formats; ArchiveView::Open does the real
// validation.
bool LooksLikeGba(std::string_view bytes);

// Serializes `archive` to GBA bytes. Never fails: every in-memory archive
// is representable.
std::string EncodeGba(const PerformanceArchive& archive);

// Serializes one operation subtree as a standalone GBA file (an archive
// shell with `root` as its tree and no metadata). The serve layer's
// content negotiation and `granula query --format=gba` both emit exactly
// these bytes.
std::string EncodeGbaSubtree(const ArchivedOperation& root);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ARCHIVE_GBA_H_

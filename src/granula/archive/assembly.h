#ifndef GRANULA_GRANULA_ARCHIVE_ASSEMBLY_H_
#define GRANULA_GRANULA_ARCHIVE_ASSEMBLY_H_

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "granula/archive/archive.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {

// The assembly core shared by the batch Archiver and the streaming
// archiver (granula/live): building ArchivedOperation nodes from linted
// records, ordering children canonically, and finalizing operations
// bottom-up. Both archivers must go through these helpers — the contract
// that the final streaming snapshot is byte-identical to the batch archive
// rests on every node being constructed, ordered, and finalized the same
// way regardless of when the records arrived.

// Builds the archive node for one operation from its surviving records:
// the StartOp annotation, the (possibly repaired) end time with its
// provenance suffix, and the info records in seq order. Children are
// attached and ordered separately; the node is still mutable until the
// caller attaches it to a parent or an archive.
std::shared_ptr<ArchivedOperation> MakeOperationNode(
    const LogRecord& start, const std::optional<SimTime>& end_time,
    std::string_view end_provenance,
    std::span<const LogRecord* const> infos);

// Canonical child order: stable sort by StartTime over a start-seq ordered
// input vector. Callers must present children in start-record seq order
// first, so ties keep that order.
void SortChildrenByStartTime(ArchivedOperation* op);

// Finalizes ONE operation whose children are already finalized: repairs a
// missing EndTime with max(StartTime, max child EndTime) and runs the
// info-derivation rules of `op_model`, the operation's model. Both
// archivers apply it once per operation, right after its children (the
// batch archiver during assembly, the streaming archiver at eviction), so
// the two orders see identical subtrees.
void FinalizeOperationNode(ArchivedOperation& op,
                           const OperationModel& op_model);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ARCHIVE_ASSEMBLY_H_

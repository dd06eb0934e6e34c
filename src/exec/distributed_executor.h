#ifndef CGQ_EXEC_DISTRIBUTED_EXECUTOR_H_
#define CGQ_EXEC_DISTRIBUTED_EXECUTOR_H_

#include "common/result.h"
#include "exec/executor.h"
#include "exec/table_store.h"
#include "net/network_model.h"
#include "plan/plan_node.h"

namespace cgq {

/// Coordinator side of ExecMode::kDistributed: the same fragment
/// scheduler as the fragmented runtime (exec_internal::RunFragments in
/// exec/fragment_executor.h) with a wire attempt in place of the
/// in-process one. Each fragment attempt is dispatched over TCP to the
/// location server hosting its site (options.cluster), which runs the
/// operator tree against its store slice and streams the result batches
/// back.
///
/// Topology is a star: every SHIP edge still runs through the
/// scheduler's in-process ShipChannel on the coordinator — a producer
/// fragment's output stream from its server is sent through the channel
/// (charging the network model, fault injection, retry/replay
/// accounting), and whatever the channel delivers is relayed to the
/// consumer fragment's server. That makes ships / rows_shipped /
/// bytes_shipped / network_ms and the recovery counters byte-identical
/// to the in-process backends.
///
/// Recovery: an attempt uses a fresh connection; any socket-level
/// failure (refused, reset, partial frame, recv timeout, crash before
/// ack) surfaces as kUnavailable and drives the scheduler's restart-and-
/// replay loop. Placement is compliance-checked twice per attempt, by
/// the same CheckFragmentPlacement: by the scheduler before dispatch,
/// and on the receiving server before it acknowledges.
Result<QueryResult> ExecuteDistributedPlan(const PlanNode& plan,
                                           const TableStore* store,
                                           const NetworkModel* net,
                                           const ExecutorOptions& options);

}  // namespace cgq

#endif  // CGQ_EXEC_DISTRIBUTED_EXECUTOR_H_

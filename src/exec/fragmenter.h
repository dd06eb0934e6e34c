#ifndef CGQ_EXEC_FRAGMENTER_H_
#define CGQ_EXEC_FRAGMENTER_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "plan/plan_node.h"

namespace cgq {

/// One per-site execution unit of a located plan: the maximal SHIP-free
/// subtree rooted just below a SHIP edge (or at the plan root). A fragment
/// consumes batches from the channels of the SHIP nodes inside its
/// subtree and produces batches either into its own output channel (when
/// it feeds a SHIP) or into the final query result.
struct PlanFragment {
  int id = 0;
  /// Root of this fragment's operator tree (the child of the SHIP it
  /// feeds, or the plan root for the top fragment).
  const PlanNode* root = nullptr;
  /// The SHIP node this fragment feeds; null for the top fragment.
  const PlanNode* ship = nullptr;
  /// Channel this fragment produces into; -1 for the top fragment.
  int output_channel = -1;
  /// Channels this fragment consumes (the SHIP nodes replaced by channel
  /// sources inside its subtree).
  std::vector<int> input_channels;
  /// Execution site (ship_from of the SHIP fed, or the root's location).
  LocationId site = 0;
};

/// A located plan split at its SHIP edges. Fragments are listed in
/// post-order — every producer precedes its consumer — so running them
/// in index order with buffering channels is a valid sequential schedule,
/// and channel ids are deterministic for a given plan.
struct FragmentedPlan {
  std::vector<PlanFragment> fragments;
  /// Channel id of every SHIP node (one channel per SHIP edge).
  std::unordered_map<const PlanNode*, int> channel_of_ship;
  /// Inverse: channel id -> SHIP node.
  std::vector<const PlanNode*> ship_of_channel;

  size_t num_channels() const { return ship_of_channel.size(); }
  const PlanFragment& top() const { return fragments.back(); }
};

/// Splits `root` (a located physical plan, possibly containing SHIP
/// nodes) into per-site fragments connected by channels. A plan without
/// SHIP nodes yields a single fragment.
FragmentedPlan FragmentPlan(const PlanNode& root);

/// The compliance guard of the recovery path: a fragment may only (re)run
/// at the site the located plan assigned it, and that site must lie in
/// the root operator's execution trait; the SHIP it feeds must target a
/// site (`ship_to`) inside its shipping trait (`ship_trait`, null for the
/// top fragment, which feeds no SHIP). Plans built outside the optimizer
/// may carry empty (unannotated) traits, which the guard treats as
/// unconstrained. The one check of every backend: the fragment scheduler
/// runs it before each attempt, and the location server re-runs it on
/// *receipt* of a fragment, from the traits that travel on the wire.
Status CheckFragmentPlacement(int fragment_id, LocationId site,
                              const LocationSet& exec_trait,
                              const LocationSet* ship_trait,
                              LocationId ship_to = 0);
Status CheckFragmentPlacement(const PlanFragment& fragment);

}  // namespace cgq

#endif  // CGQ_EXEC_FRAGMENTER_H_

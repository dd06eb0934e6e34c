#include "exec/fragmenter.h"

namespace cgq {

namespace {

int BuildFragment(const PlanNode& subtree, const PlanNode* ship,
                  FragmentedPlan* out);

// Collects the channel inputs of the fragment being built, creating a
// nested fragment (and its channel) for every SHIP node encountered.
void Walk(const PlanNode& node, FragmentedPlan* out,
          std::vector<int>* inputs) {
  if (node.kind() == PlanKind::kShip) {
    int channel = BuildFragment(*node.child(0), &node, out);
    out->channel_of_ship[&node] = channel;
    inputs->push_back(channel);
    return;
  }
  for (const PlanNodePtr& child : node.children()) {
    Walk(*child, out, inputs);
  }
}

// Creates the fragment rooted at `subtree` (post-order: nested fragments
// first). Returns the new fragment's output channel id (== fragment id)
// when it feeds a SHIP, or -1 for the top fragment.
int BuildFragment(const PlanNode& subtree, const PlanNode* ship,
                  FragmentedPlan* out) {
  PlanFragment fragment;
  Walk(subtree, out, &fragment.input_channels);
  fragment.id = static_cast<int>(out->fragments.size());
  fragment.root = &subtree;
  fragment.ship = ship;
  fragment.site = ship ? ship->ship_from : subtree.location;
  if (ship != nullptr) {
    fragment.output_channel = fragment.id;
    out->ship_of_channel.push_back(ship);
  }
  out->fragments.push_back(std::move(fragment));
  return out->fragments.back().output_channel;
}

}  // namespace

FragmentedPlan FragmentPlan(const PlanNode& root) {
  FragmentedPlan out;
  BuildFragment(root, nullptr, &out);
  return out;
}

Status CheckFragmentPlacement(int fragment_id, LocationId site,
                              const LocationSet& exec_trait,
                              const LocationSet* ship_trait,
                              LocationId ship_to) {
  if (!exec_trait.empty() && !exec_trait.Contains(site)) {
    return Status::Internal(
        "compliance violation: fragment #" + std::to_string(fragment_id) +
        " placed at l" + std::to_string(site) +
        " outside its execution trait");
  }
  if (ship_trait != nullptr && !ship_trait->empty() &&
      !ship_trait->Contains(ship_to)) {
    return Status::Internal(
        "compliance violation: fragment #" + std::to_string(fragment_id) +
        " ships to l" + std::to_string(ship_to) +
        " outside its shipping trait");
  }
  return Status::OK();
}

Status CheckFragmentPlacement(const PlanFragment& fragment) {
  const PlanNode* ship = fragment.ship;
  return CheckFragmentPlacement(
      fragment.id, fragment.site, fragment.root->exec_trait,
      ship != nullptr ? &ship->ship_trait : nullptr,
      ship != nullptr ? ship->ship_to : 0);
}

}  // namespace cgq

#include "plan/plan_node.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace cgq {

const char* JoinMethodToString(JoinMethod method) {
  switch (method) {
    case JoinMethod::kHash:
      return "hash";
    case JoinMethod::kNestedLoop:
      return "nl";
  }
  return "?";
}

bool IsHashJoinKey(const Expr& c) {
  auto family = [](DataType t) {
    return t == DataType::kDate ? DataType::kInt64 : t;
  };
  return c.op() == ExprOp::kEq &&
         c.child(0)->op() == ExprOp::kColumnRef &&
         c.child(1)->op() == ExprOp::kColumnRef &&
         family(c.child(0)->type()) == family(c.child(1)->type());
}

const char* PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kShip:
      return "Ship";
  }
  return "?";
}

namespace {

std::vector<size_t> SortedConjunctHashes(const std::vector<ExprPtr>& cs) {
  std::vector<size_t> hs;
  hs.reserve(cs.size());
  for (const ExprPtr& c : cs) hs.push_back(c->Hash());
  std::sort(hs.begin(), hs.end());
  return hs;
}

bool ConjunctSetsEqual(const std::vector<ExprPtr>& a,
                       const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  // Order-insensitive: every conjunct of a must appear in b (multiset-ish;
  // duplicates are unusual and harmless here).
  for (const ExprPtr& x : a) {
    bool found = false;
    for (const ExprPtr& y : b) {
      if (x->Equals(*y)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

bool PlanNode::PayloadEquals(const PlanNode& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case PlanKind::kScan:
      return rel_index == other.rel_index &&
             fragment_ordinal == other.fragment_ordinal;
    case PlanKind::kFilter:
    case PlanKind::kJoin:
      return ConjunctSetsEqual(conjuncts, other.conjuncts);
    case PlanKind::kProject:
      return project_ids == other.project_ids &&
             project_names == other.project_names;
    case PlanKind::kAggregate: {
      if (group_ids != other.group_ids ||
          agg_out_ids != other.agg_out_ids ||
          agg_calls.size() != other.agg_calls.size()) {
        return false;
      }
      for (size_t i = 0; i < agg_calls.size(); ++i) {
        if (!agg_calls[i].Equals(other.agg_calls[i])) return false;
      }
      return true;
    }
    case PlanKind::kUnion:
      return true;
    case PlanKind::kShip:
      return ship_from == other.ship_from && ship_to == other.ship_to;
  }
  return false;
}

size_t PlanNode::PayloadHash() const {
  size_t h = std::hash<int>()(static_cast<int>(kind_));
  auto mix = [&h](size_t v) { h = h * 1000003u ^ v; };
  switch (kind_) {
    case PlanKind::kScan:
      mix(rel_index);
      mix(static_cast<size_t>(fragment_ordinal) + 17);
      break;
    case PlanKind::kFilter:
    case PlanKind::kJoin:
      for (size_t v : SortedConjunctHashes(conjuncts)) mix(v);
      break;
    case PlanKind::kProject:
      for (AttrId id : project_ids) mix(id);
      for (const std::string& n : project_names) {
        mix(std::hash<std::string>()(n));
      }
      break;
    case PlanKind::kAggregate:
      for (AttrId id : group_ids) mix(id);
      for (AttrId id : agg_out_ids) mix(id);
      for (const AggCall& c : agg_calls) {
        mix(std::hash<int>()(static_cast<int>(c.fn)));
        mix(c.arg->Hash());
      }
      break;
    case PlanKind::kUnion:
      break;
    case PlanKind::kShip:
      mix(ship_from);
      mix(ship_to);
      break;
  }
  return h;
}

std::string PlanNode::Describe() const {
  std::ostringstream os;
  os << PlanKindToString(kind_);
  if (kind_ == PlanKind::kJoin) {
    os << "(" << JoinMethodToString(join_method) << ")";
  }
  switch (kind_) {
    case PlanKind::kScan:
      os << "[" << table;
      if (alias != table) os << " AS " << alias;
      if (fragment_ordinal > 0 || row_fraction < 1.0) {
        os << " frag" << fragment_ordinal;
      }
      os << "]";
      break;
    case PlanKind::kFilter:
    case PlanKind::kJoin: {
      os << "[";
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i > 0) os << " AND ";
        os << conjuncts[i]->ToString();
      }
      os << "]";
      break;
    }
    case PlanKind::kProject: {
      os << "[";
      for (size_t i = 0; i < project_names.size(); ++i) {
        if (i > 0) os << ", ";
        os << project_names[i];
      }
      os << "]";
      break;
    }
    case PlanKind::kAggregate: {
      os << (is_partial_agg ? "(partial)[" : "[");
      for (size_t i = 0; i < group_ids.size(); ++i) {
        if (i > 0) os << ", ";
        os << "#" << group_ids[i];
      }
      if (!group_ids.empty() && !agg_calls.empty()) os << "; ";
      for (size_t i = 0; i < agg_calls.size(); ++i) {
        if (i > 0) os << ", ";
        os << agg_calls[i].ToString();
      }
      os << "]";
      break;
    }
    case PlanKind::kUnion:
      break;
    case PlanKind::kShip:
      os << "[" << ship_from << " -> " << ship_to << "]";
      break;
  }
  return os.str();
}

std::vector<OutputCol> ComputeOutputs(
    const PlanNode& node,
    const std::vector<const std::vector<OutputCol>*>& child_outputs) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      // Caller (builder) fills scan outputs directly from the catalog; memo
      // payload scans carry their outputs already.
      return node.outputs;
    }
    case PlanKind::kFilter:
    case PlanKind::kShip:
      CGQ_CHECK(child_outputs.size() == 1);
      return *child_outputs[0];
    case PlanKind::kUnion:
      CGQ_CHECK(!child_outputs.empty());
      return *child_outputs[0];
    case PlanKind::kProject: {
      CGQ_CHECK(child_outputs.size() == 1);
      std::vector<OutputCol> out;
      out.reserve(node.project_ids.size());
      for (size_t i = 0; i < node.project_ids.size(); ++i) {
        AttrId id = node.project_ids[i];
        const OutputCol* found = nullptr;
        for (const OutputCol& c : *child_outputs[0]) {
          if (c.id == id) {
            found = &c;
            break;
          }
        }
        CGQ_CHECK(found != nullptr) << "project references missing attr " << id;
        OutputCol col = *found;
        if (i < node.project_names.size() && !node.project_names[i].empty()) {
          col.name = node.project_names[i];
        }
        out.push_back(std::move(col));
      }
      return out;
    }
    case PlanKind::kJoin: {
      CGQ_CHECK(child_outputs.size() == 2);
      std::vector<OutputCol> out = *child_outputs[0];
      out.insert(out.end(), child_outputs[1]->begin(),
                 child_outputs[1]->end());
      return out;
    }
    case PlanKind::kAggregate: {
      CGQ_CHECK(child_outputs.size() == 1);
      std::vector<OutputCol> out;
      for (AttrId id : node.group_ids) {
        const OutputCol* found = nullptr;
        for (const OutputCol& c : *child_outputs[0]) {
          if (c.id == id) {
            found = &c;
            break;
          }
        }
        CGQ_CHECK(found != nullptr) << "group key missing attr " << id;
        out.push_back(*found);
      }
      for (size_t i = 0; i < node.agg_calls.size(); ++i) {
        OutputCol col;
        col.id = node.agg_out_ids[i];
        col.name = node.agg_calls[i].ToString();
        switch (node.agg_calls[i].fn) {
          case AggFn::kCount:
            col.type = DataType::kInt64;
            break;
          case AggFn::kAvg:
            col.type = DataType::kDouble;
            break;
          default:
            col.type = node.agg_calls[i].arg->type();
            break;
        }
        out.push_back(std::move(col));
      }
      return out;
    }
  }
  return {};
}

namespace {

void PrintPlanRec(const PlanNode& node, const LocationCatalog* locations,
                  int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << node.Describe();
  if (locations != nullptr) {
    *os << " @" << locations->GetName(node.location);
    if (!node.exec_trait.empty()) {
      *os << " E=" << locations->SetToString(node.exec_trait);
    }
    if (!node.ship_trait.empty()) {
      *os << " S=" << locations->SetToString(node.ship_trait);
    }
  }
  if (node.est_rows > 0) {
    *os << " rows=" << static_cast<int64_t>(node.est_rows);
  }
  *os << "\n";
  for (const PlanNodePtr& c : node.children()) {
    PrintPlanRec(*c, locations, depth + 1, os);
  }
}

}  // namespace

std::string PlanToString(const PlanNode& root,
                         const LocationCatalog* locations) {
  std::ostringstream os;
  PrintPlanRec(root, locations, 0, &os);
  return os.str();
}

PlanNodePtr ClonePlan(const PlanNode& root) {
  auto copy = std::make_shared<PlanNode>(root);
  copy->children().clear();
  for (const PlanNodePtr& c : root.children()) {
    copy->children().push_back(ClonePlan(*c));
  }
  return copy;
}

}  // namespace cgq

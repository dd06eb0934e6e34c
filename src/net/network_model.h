#ifndef CGQ_NET_NETWORK_MODEL_H_
#define CGQ_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catalog/location.h"

namespace cgq {

/// Injectable failure behavior of one directed link, for testing the
/// executor's recovery path. All fields default to a healthy link.
struct LinkFault {
  /// Probability that one send attempt over the link is lost (the sender
  /// times out and must retransmit, re-paying the start-up latency).
  double drop_probability = 0;
  /// Extra per-attempt latency in ms, added on top of the alpha/beta cost
  /// (a stalled or congested link).
  double extra_latency_ms = 0;
  /// Hard link failure: every attempt fails; retries cannot succeed.
  bool down = false;

  bool Healthy() const {
    return drop_probability == 0 && extra_latency_ms == 0 && !down;
  }
};

/// Message cost model for geo-distributed data transfer (§7.4, following
/// Deshpande & Hellerstein): shipping b bytes from site i to site j costs
/// `alpha(i,j) + beta(i,j) * b`, where alpha is the start-up (latency) cost
/// and beta the per-byte cost. Costs are in milliseconds. Intra-site
/// transfers are free.
class NetworkModel {
 public:
  /// Uniform model: same alpha/beta between any two distinct sites.
  NetworkModel(size_t num_locations, double alpha_ms, double beta_ms_per_byte);

  /// Fully specified matrices (must be num_locations^2, diagonal ignored).
  NetworkModel(std::vector<std::vector<double>> alpha,
               std::vector<std::vector<double>> beta);

  /// A 5+ site geography with asymmetric, realistic WAN numbers
  /// (inter-continental RTTs of 30-300 ms; 5-50 MB/s effective throughput).
  /// Sites beyond the 5 canonical regions reuse the pattern cyclically so
  /// the model extends to the 20-location experiments (Fig. 8).
  static NetworkModel DefaultGeo(size_t num_locations);

  double alpha(LocationId from, LocationId to) const;
  double beta(LocationId from, LocationId to) const;

  /// alpha + beta * bytes; 0 when from == to.
  double Cost(LocationId from, LocationId to, double bytes) const;

  /// Per-byte cost only (beta * bytes; 0 when from == to): the marginal
  /// cost of one more batch on a transfer whose start-up latency was
  /// already paid. The batched executor charges alpha once per ship edge
  /// and this for every subsequent batch.
  double MarginalCost(LocationId from, LocationId to, double bytes) const;

  size_t num_locations() const { return alpha_.size(); }

  /// Installs (or replaces) the fault model of the directed link
  /// `from -> to`. A Healthy() fault erases the entry. Configure faults
  /// before handing the model to an executor; the executors only read.
  void SetLinkFault(LocationId from, LocationId to, LinkFault fault);

  /// Removes all injected faults.
  void ClearLinkFaults();

  /// Fault model of a link, or nullptr for a healthy link. O(1) when no
  /// fault is installed anywhere (the executors' fast path).
  const LinkFault* link_fault(LocationId from, LocationId to) const {
    if (faults_.empty()) return nullptr;
    auto it = faults_.find(LinkKey(from, to));
    return it == faults_.end() ? nullptr : &it->second;
  }

  /// Lossy-WAN profile: every cross-site link drops each attempt with
  /// probability `drop_probability` and stalls `extra_latency_ms` extra.
  /// The bench harness's `--fault-profile=lossy`.
  void ApplyLossyProfile(double drop_probability, double extra_latency_ms);

 private:
  static uint64_t LinkKey(LocationId from, LocationId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  std::vector<std::vector<double>> alpha_;
  std::vector<std::vector<double>> beta_;
  std::unordered_map<uint64_t, LinkFault> faults_;
};

}  // namespace cgq

#endif  // CGQ_NET_NETWORK_MODEL_H_

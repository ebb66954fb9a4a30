#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "sim/resource.h"
#include "sim/simulation.h"

/// \file cluster.h
/// Modeled cluster of worker nodes.
///
/// Node parameters default to the paper's testbed: GCP `n1-standard-16`
/// VMs with 16 vcores, 64 GiB RAM, two local NVMe SSDs, and a
/// 2 Gbps-per-vcore virtual network (= 4 GB/s full duplex per VM).
///
/// Every node's channel deliveries, disk completions and operator
/// processing are events of the one discrete-event kernel the cluster
/// holds. Single-threaded, like everything in the simulator.

namespace rhino::sim {

/// What a network transfer carries. Fault policies distinguish the data
/// plane (record batches: reliable-transport semantics, delayable but
/// never silently lost) from state movement (replication chunks, catch-up
/// copies, handover tails: droppable, because the protocols above carry
/// their own retry/timeout machinery and surface permanent loss as an
/// error Status).
enum class TransferKind { kData, kState };

/// Verdict of a fault policy on one network transfer.
struct LinkFault {
  bool drop = false;          ///< swallow the transfer: `done` never fires
  SimTime extra_latency = 0;  ///< added one-way latency (microseconds)
};

/// Seam for injected network faults: consulted by `Cluster::Transfer` on
/// every send.
class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;
  virtual LinkFault OnTransfer(int src, int dst, uint64_t bytes,
                               TransferKind kind) = 0;
};

/// Hardware description of one node.
struct NodeSpec {
  int cores = 16;
  uint64_t memory_bytes = 64 * kGiB;
  double net_bytes_per_sec = 4.0e9;   // 32 Gbps full duplex
  SimTime net_latency = 200;          // us, propagation + framing
  int num_disks = 2;
  double disk_write_bytes_per_sec = 1.0e9;  // NVMe SSD
  double disk_read_bytes_per_sec = 2.0e9;
};

/// One local NVMe SSD with independent read and write service queues.
/// `penalty` (optional) is the owning node's injected per-op latency — a
/// fault injector models a degraded device by raising it for a while.
class Disk {
 public:
  Disk(Simulation* sim, const std::string& name, const NodeSpec& spec,
       const SimTime* penalty = nullptr)
      : read_(sim, name + "/read", spec.disk_read_bytes_per_sec),
        write_(sim, name + "/write", spec.disk_write_bytes_per_sec),
        penalty_(penalty) {}

  SimTime Read(uint64_t bytes, std::function<void()> done = nullptr) {
    return read_.Submit(bytes, std::move(done), PenaltyNow());
  }
  SimTime Write(uint64_t bytes, std::function<void()> done = nullptr) {
    return write_.Submit(bytes, std::move(done), PenaltyNow());
  }

  QueueResource& read_queue() { return read_; }
  QueueResource& write_queue() { return write_; }

 private:
  SimTime PenaltyNow() const { return penalty_ == nullptr ? 0 : *penalty_; }

  QueueResource read_;
  QueueResource write_;
  const SimTime* penalty_;
};

/// One modeled VM: full-duplex NIC, disks, memory budget, liveness flag.
class Node {
 public:
  Node(Simulation* sim, int id, const NodeSpec& spec)
      : id_(id),
        spec_(spec),
        tx_(sim, "node" + std::to_string(id) + "/tx", spec.net_bytes_per_sec),
        rx_(sim, "node" + std::to_string(id) + "/rx", spec.net_bytes_per_sec) {
    for (int d = 0; d < spec.num_disks; ++d) {
      disks_.push_back(std::make_unique<Disk>(
          sim, "node" + std::to_string(id) + "/disk" + std::to_string(d), spec,
          &disk_penalty_us_));
    }
  }

  int id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }
  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  QueueResource& tx() { return tx_; }
  QueueResource& rx() { return rx_; }
  Disk& disk(int i) { return *disks_[static_cast<size_t>(i) % disks_.size()]; }
  int num_disks() const { return static_cast<int>(disks_.size()); }

  /// Injected per-operation latency on this node's disks (slow-disk
  /// faults). 0 = healthy.
  void set_disk_penalty_us(SimTime penalty) { disk_penalty_us_ = penalty; }
  SimTime disk_penalty_us() const { return disk_penalty_us_; }

  /// Tracks modeled heap usage (Megaphone's in-memory state lives here).
  /// Returns false when the allocation would exceed the node's memory.
  bool AllocateMemory(uint64_t bytes) {
    if (memory_used_ + bytes > spec_.memory_bytes) return false;
    memory_used_ += bytes;
    return true;
  }
  void FreeMemory(uint64_t bytes) {
    memory_used_ = bytes > memory_used_ ? 0 : memory_used_ - bytes;
  }
  uint64_t memory_used() const { return memory_used_; }

  /// Cumulative modeled CPU busy time across all operator instances pinned
  /// to this node (filled in by the dataflow runtime).
  void AddCpuBusy(SimTime us) { cpu_busy_us_ += us; }
  SimTime cpu_busy_us() const { return cpu_busy_us_; }

 private:
  int id_;
  NodeSpec spec_;
  QueueResource tx_;
  QueueResource rx_;
  std::vector<std::unique_ptr<Disk>> disks_;
  SimTime disk_penalty_us_ = 0;
  bool alive_ = true;
  uint64_t memory_used_ = 0;
  SimTime cpu_busy_us_ = 0;
};

/// The modeled cluster: a set of nodes sharing one simulation kernel.
class Cluster {
 public:
  Cluster(Simulation* sim, int num_nodes, const NodeSpec& spec = NodeSpec())
      : sim_(sim) {
    for (int i = 0; i < num_nodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(sim, i, spec));
    }
  }

  /// The kernel every component of the cluster schedules on and reads the
  /// clock from.
  Simulation* sim() const { return sim_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int id) { return *nodes_[static_cast<size_t>(id)]; }

  /// Fail-stop failure of a node (paper §4.2.3 fault model).
  void FailNode(int id) { node(id).set_alive(false); }

  /// Installs (or clears, with nullptr) the fault policy consulted on
  /// every transfer. The policy must outlive the cluster or be cleared
  /// before destruction.
  void SetFaultPolicy(FaultPolicy* policy) { fault_policy_ = policy; }

  /// Transfers dropped by the fault policy (the `done` callback was
  /// swallowed; upper layers recover via their timeout/retry machinery).
  uint64_t dropped_transfers() const { return dropped_transfers_; }

  /// Transfers `bytes` between two nodes (or hands it to the local
  /// loopback, which is free, when src == dst). `done` runs when the bytes
  /// have arrived. `kind` tags the payload for the fault
  /// policy: kState transfers may be dropped (their protocols retry),
  /// kData transfers are at most delayed (reliable-transport semantics).
  SimTime Transfer(int src, int dst, uint64_t bytes,
                   std::function<void()> done = nullptr,
                   TransferKind kind = TransferKind::kData) {
    SimTime extra = 0;
    if (FaultPolicy* policy = fault_policy_) {
      LinkFault fault = policy->OnTransfer(src, dst, bytes, kind);
      if (fault.drop) {
        dropped_transfers_ += 1;
        return sim_->Now();
      }
      extra = fault.extra_latency;
    }
    if (src == dst) {
      SimTime end = sim_->Now() + extra;
      if (done) sim_->ScheduleAt(end, std::move(done));
      return end;
    }
    Node& s = node(src);
    Node& d = node(dst);
    return NetworkTransfer(&s.tx(), &d.rx(), bytes,
                           s.spec().net_latency + extra, std::move(done));
  }

 private:
  Simulation* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  FaultPolicy* fault_policy_ = nullptr;
  uint64_t dropped_transfers_ = 0;
};

}  // namespace rhino::sim

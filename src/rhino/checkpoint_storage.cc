#include "rhino/checkpoint_storage.h"

#include "common/logging.h"
#include "dataflow/source.h"

namespace rhino::rhino {

std::map<uint32_t, state::VnodeImage> CaptureImages(
    dataflow::StatefulInstance* instance) {
  std::vector<uint32_t> owned(instance->owned_vnodes().begin(),
                              instance->owned_vnodes().end());
  auto images = instance->ReadImages(owned);
  RHINO_CHECK(images.ok()) << images.status().ToString();
  std::map<uint32_t, state::VnodeImage> by_vnode;
  for (state::VnodeImage& image : *images) {
    by_vnode.emplace(image.vnode, std::move(image));
  }
  return by_vnode;
}

void RhinoCheckpointStorage::Persist(dataflow::OperatorInstance* instance,
                                     const state::CheckpointDescriptor& desc,
                                     std::function<void(Status)> done) {
  auto* stateful = dynamic_cast<dataflow::StatefulInstance*>(instance);
  if (stateful == nullptr) {
    // Source snapshots are offsets only; the coordinator records them.
    done(Status::OK());
    return;
  }
  auto images = CaptureImages(stateful);
  int node_id = instance->node_id();
  std::string op = instance->op_name();
  auto subtask = static_cast<uint32_t>(instance->subtask());
  obs::Observability* o = instance->engine()->obs();
  o->metrics()
      .GetCounter("rhino_checkpoint_ship_bytes_total")
      ->Increment(desc.DeltaBytes());
  uint64_t span = o->trace().BeginSpan(
      "checkpoint", "ship", op + "#" + std::to_string(subtask),
      desc.checkpoint_id,
      {{"bytes", static_cast<int64_t>(desc.DeltaBytes())}});
  done = [o, span, inner = std::move(done)](Status st) {
    o->trace().EndSpan(span, {{"ok", st.ok() ? 1 : 0}});
    inner(std::move(st));
  };
  // The delta is spooled to the local disk (the primary copy)...
  sim::Node& node = cluster_->node(node_id);
  int disk = disk_cursor_[node_id]++ % node.num_disks();
  node.disk(disk).Write(
      desc.DeltaBytes(),
      [this, o, op, subtask, node_id, desc, images = std::move(images),
       done = std::move(done)]() mutable {
        // ...then replicated asynchronously down the chain (§4.2.2), with
        // transient replication failures retried before surfacing.
        auto retrier = std::make_shared<runtime::Retrier>(
            cluster_->sim()->Now(), retry_, 0xC4E ^ desc.checkpoint_id,
            "checkpoint_persist", o);
        ReplicateWithRetry(
            std::move(op), subtask, node_id, desc, std::move(retrier),
            std::make_shared<const std::map<uint32_t, state::VnodeImage>>(
                std::move(images)),
            std::move(done));
      });
}

void RhinoCheckpointStorage::ReplicateWithRetry(
    std::string op, uint32_t subtask, int node_id,
    state::CheckpointDescriptor desc,
    std::shared_ptr<runtime::Retrier> retrier,
    std::shared_ptr<const std::map<uint32_t, state::VnodeImage>> images,
    std::function<void(Status)> done) {
  // Each attempt consumes its own copy of the images (ReplicateCheckpoint
  // takes them by value); the shared snapshot feeds every retry.
  runtime_->ReplicateCheckpoint(
      op, subtask, node_id, desc, *images,
      [this, op, subtask, node_id, desc, retrier, images,
       done = std::move(done)](Status st) mutable {
        if (st.ok() || !runtime::IsTransientStatus(st)) {
          // Success, or a permanent fault (Aborted = fail-stop): surface
          // as-is. The periodic checkpoint cadence re-replicates later.
          done(std::move(st));
          return;
        }
        SimTime backoff = 0;
        if (!retrier->NextBackoff(cluster_->sim()->Now(), &backoff)) {
          done(retrier->Exhausted(cluster_->sim()->Now(), st));
          return;
        }
        RHINO_LOG(Warn) << "replication of " << op << "#" << subtask
                        << " ckpt " << desc.checkpoint_id
                        << " failed transiently (" << st.ToString()
                        << "); retry " << retrier->retries() << " in "
                        << backoff << "us";
        cluster_->sim()->Schedule(
            backoff, [this, op = std::move(op), subtask, node_id, desc,
                      retrier = std::move(retrier), images = std::move(images),
                      done = std::move(done)]() mutable {
              ReplicateWithRetry(std::move(op), subtask, node_id, desc,
                                 std::move(retrier), std::move(images),
                                 std::move(done));
            });
      });
}

void DfsCheckpointStorage::Persist(dataflow::OperatorInstance* instance,
                                   const state::CheckpointDescriptor& desc,
                                   std::function<void(Status)> done) {
  auto* stateful = dynamic_cast<dataflow::StatefulInstance*>(instance);
  if (stateful == nullptr) {
    done(Status::OK());
    return;
  }
  std::string key = Key(instance->op_name(),
                        static_cast<uint32_t>(instance->subtask()));
  std::string path =
      "/checkpoints/" + key + "/delta-" + std::to_string(desc.checkpoint_id);
  paths_[key].push_back(path);
  // The entry holds exactly this checkpoint's images: a vnode the instance
  // gave away since its last checkpoint is its new owner's.
  ReplicaState& rep = latest_[key];
  rep.latest_checkpoint_id = desc.checkpoint_id;
  rep.latest_descriptor = desc;
  rep.images = CaptureImages(stateful);
  obs::Observability* o = instance->engine()->obs();
  o->metrics()
      .GetCounter("rhino_checkpoint_dfs_upload_bytes_total")
      ->Increment(desc.DeltaBytes());
  uint64_t span = o->trace().BeginSpan(
      "checkpoint", "dfs_upload", key, desc.checkpoint_id,
      {{"bytes", static_cast<int64_t>(desc.DeltaBytes())}});
  done = [o, span, inner = std::move(done)](Status st) {
    o->trace().EndSpan(span, {{"ok", st.ok() ? 1 : 0}});
    inner(std::move(st));
  };
  dfs_->WriteFile(path, desc.DeltaBytes(), instance->node_id(), std::move(done));
}

std::vector<std::string> DfsCheckpointStorage::PathsFor(const std::string& op,
                                                        uint32_t subtask) const {
  auto it = paths_.find(Key(op, subtask));
  if (it == paths_.end()) return {};
  return it->second;
}

const ReplicaState* DfsCheckpointStorage::LatestFor(const std::string& op,
                                                    uint32_t subtask) const {
  auto it = latest_.find(Key(op, subtask));
  return it == latest_.end() ? nullptr : &it->second;
}

std::map<uint32_t, state::VnodeImage> DfsCheckpointStorage::LatestImages(
    const std::string& op) const {
  std::map<uint32_t, state::VnodeImage> images;
  std::map<uint32_t, uint64_t> checkpoint_of;
  const std::string prefix = op + "#";
  for (auto it = latest_.lower_bound(prefix);
       it != latest_.end() && it->first.starts_with(prefix); ++it) {
    const ReplicaState& rep = it->second;
    for (const auto& [vnode, image] : rep.images) {
      auto [at, fresh] = checkpoint_of.try_emplace(vnode, 0);
      if (!fresh && at->second >= rep.latest_checkpoint_id) continue;
      at->second = rep.latest_checkpoint_id;
      images[vnode] = image;
    }
  }
  return images;
}

void DfsCheckpointStorage::SeedCheckpoint(
    const std::string& op, uint32_t subtask, int home_node,
    const state::CheckpointDescriptor& desc,
    std::map<uint32_t, state::VnodeImage> images) {
  std::string key = Key(op, subtask);
  std::string path =
      "/checkpoints/" + key + "/delta-" + std::to_string(desc.checkpoint_id);
  dfs_->RegisterFile(path, desc.TotalBytes(), home_node);
  paths_[key].push_back(path);
  ReplicaState& rep = latest_[key];
  rep.latest_checkpoint_id = desc.checkpoint_id;
  rep.latest_descriptor = desc;
  rep.images = std::move(images);
}

}  // namespace rhino::rhino

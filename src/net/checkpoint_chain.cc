#include "net/checkpoint_chain.h"

#include <cstring>

#include "common/serde.h"
#include "lsm/log_format.h"

namespace rhino::net {

void AppendChainRecord(const ChainRecord& record, std::string* out) {
  std::string payload;
  payload.reserve(32 + record.body.size());
  BinaryWriter w(&payload);
  w.PutU8(static_cast<uint8_t>(record.kind));
  w.PutVarint(record.checkpoint_id);
  w.PutVarint(record.nominal_bytes);
  w.PutVarint(record.watermarks.size());
  for (const auto& [source, offset] : record.watermarks) {
    w.PutVarint(static_cast<uint64_t>(static_cast<int64_t>(source)));
    w.PutVarint(offset);
  }
  // The body runs to the end of the payload: the frame's length bounds it.
  payload.append(record.body);
  lsm::AppendLogRecord(out, payload);
}

Result<VnodeChain> ParseChain(std::string_view chain) {
  VnodeChain parsed;
  size_t pos = 0;
  std::string_view payload;
  // kEnd and kTorn both end the complete prefix: a torn tail loses only
  // the record it tore.
  while (lsm::ReadLogRecord(chain, &pos, &payload) == lsm::LogRead::kRecord) {
    BinaryReader r(payload);
    uint8_t kind = 0;
    uint64_t id = 0, nominal = 0, marks = 0;
    RHINO_RETURN_NOT_OK(r.GetU8(&kind));
    if (kind > static_cast<uint8_t>(ChainRecord::Kind::kKeys)) {
      return Status::Corruption("unknown chain record kind");
    }
    RHINO_RETURN_NOT_OK(r.GetVarint(&id));
    RHINO_RETURN_NOT_OK(r.GetVarint(&nominal));
    RHINO_RETURN_NOT_OK(r.GetVarint(&marks));
    std::map<int, uint64_t> watermarks;
    for (uint64_t i = 0; i < marks; ++i) {
      uint64_t source = 0, offset = 0;
      RHINO_RETURN_NOT_OK(r.GetVarint(&source));
      RHINO_RETURN_NOT_OK(r.GetVarint(&offset));
      watermarks[static_cast<int>(static_cast<int64_t>(source))] = offset;
    }
    if (kind == static_cast<uint8_t>(ChainRecord::Kind::kWhole)) {
      parsed.runs.clear();  // a whole record restarts the vnode
    } else if (parsed.records == 0) {
      return Status::Corruption("checkpoint chain starts with a key record");
    }
    parsed.runs.emplace_back(payload.substr(r.position()));
    parsed.nominal_bytes = nominal;
    parsed.watermarks = std::move(watermarks);
    parsed.checkpoint_id = id;
    ++parsed.records;
    parsed.valid_bytes = pos;
  }
  if (parsed.records == 0) {
    return Status::Corruption("checkpoint chain holds no complete record");
  }
  return parsed;
}

Result<VnodeChain> ReadChain(lsm::Env* env, const std::string& path) {
  std::string chain;
  RHINO_RETURN_NOT_OK(env->ReadFile(path, &chain));
  return ParseChain(chain);
}

Status RestoreChain(const VnodeChain& chain, uint32_t vnode,
                    state::StateBackend* backend) {
  for (const std::string& run : chain.runs) {
    RHINO_RETURN_NOT_OK(backend->WriteVnodeEntries(vnode, run));
  }
  return Status::OK();
}

Result<uint64_t> ChainBaseBytes(lsm::Env* env, const std::string& path) {
  constexpr size_t kFrameHeader = 8;  // u32 checksum | u32 length
  std::string header;
  RHINO_RETURN_NOT_OK(env->ReadFileRange(path, 0, kFrameHeader, &header));
  if (header.size() < kFrameHeader) {
    return Status::Corruption("checkpoint chain shorter than a frame header");
  }
  uint32_t length = 0;
  std::memcpy(&length, header.data() + 4, sizeof(length));
  return kFrameHeader + length;
}

std::string ChainFileName(const std::string& op, uint32_t vnode) {
  return op + "-" + std::to_string(vnode) + ".chain";
}

}  // namespace rhino::net

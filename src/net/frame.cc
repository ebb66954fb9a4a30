#include "net/frame.h"

#include <cstring>

#include "lsm/log_format.h"

namespace rhino::net {

Status WriteFrame(Socket& sock, std::string_view payload) {
  std::string framed;
  framed.reserve(8 + payload.size());
  lsm::AppendLogRecord(&framed, payload);
  return sock.WriteAll(framed);
}

Status ReadFrame(Socket& sock, std::string* payload,
                 uint32_t max_frame_bytes) {
  char header[8];
  RHINO_RETURN_NOT_OK(sock.ReadExact(header, 8));
  uint32_t crc = 0, len = 0;
  std::memcpy(&crc, header, 4);
  std::memcpy(&len, header + 4, 4);
  if (len > max_frame_bytes) {
    return Status::Corruption("oversized frame: length prefix " +
                              std::to_string(len) + " exceeds limit " +
                              std::to_string(max_frame_bytes));
  }
  payload->resize(len);
  if (len > 0) {
    RHINO_RETURN_NOT_OK(
        sock.ReadExact(payload->data(), len, /*mid_message=*/true));
  }
  if (lsm::LogChecksum(*payload) != crc) {
    return Status::Corruption("frame checksum mismatch (" +
                              std::to_string(len) + " bytes)");
  }
  return Status::OK();
}

}  // namespace rhino::net

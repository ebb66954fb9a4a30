#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/socket.h"

/// \file frame.h
/// Length + checksum message framing over a socket — the WAL record idiom
/// (`lsm/log_format.h`) applied to the wire.
///
/// A frame is `u32 checksum | u32 length | payload`, little endian, with
/// the checksum taken over the payload (FNV-1a folded to 32 bits). Framing
/// makes every failure mode an explicit error `Status` instead of a parser
/// surprise:
///
///  * oversized length prefix  -> `Corruption` (rejected BEFORE the reader
///    allocates or waits for the claimed bytes);
///  * checksum mismatch        -> `Corruption`;
///  * peer disconnect mid-frame-> `IOError` (from the socket layer);
///  * clean close between frames -> `Aborted` (a normal end of stream);
///  * receive timeout          -> `TimedOut`.
///
/// No failure hangs: reads inherit the socket's receive timeout, and the
/// length prefix is validated against `max_frame_bytes` up front.

namespace rhino::net {

/// Upper bound on one frame's payload. Vnode images dominate frame sizes;
/// 256 MiB comfortably fits any test/bench shard while still rejecting
/// garbage length prefixes immediately.
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;

/// Frames `payload` and writes it to `sock`.
Status WriteFrame(Socket& sock, std::string_view payload);

/// Reads one frame into `*payload`. See file comment for the error
/// contract.
Status ReadFrame(Socket& sock, std::string* payload,
                 uint32_t max_frame_bytes = kMaxFrameBytes);

}  // namespace rhino::net

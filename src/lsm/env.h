#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

/// \file env.h
/// Filesystem abstraction for the LSM store.
///
/// Two implementations: `MemEnv` (in-memory, content shared between hard
/// links — the default for tests and simulations) and `PosixEnv` (real
/// filesystem, for the examples). Hard links are first-class because
/// Rhino's incremental checkpoints hard-link immutable SSTs instead of
/// copying them (paper §5.2.1: "local state fetching, which involves
/// hard-linking instead of network transfer").

namespace rhino::lsm {

/// Read-only positional handle to one file's content. The handle pins the
/// content it was opened on: like a POSIX file descriptor, it keeps serving
/// the original bytes even after the name is deleted, renamed, or replaced
/// by a fresh WriteFile. This is what makes long-lived SSTable readers (and
/// the iterators holding them) immune to concurrent compaction deletes.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes starting at `offset` into `*out`. Reads that
  /// extend past EOF are clamped (short read); reads starting at or past
  /// EOF return OK with an empty `*out`.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;

  /// Size of the pinned content in bytes.
  virtual uint64_t Size() const = 0;
};

/// Buffered, append-only writable handle to one file. The handle is opened
/// once and appended to many times — the write-ahead log and streaming
/// SSTable builds hold one of these instead of re-resolving the path per
/// record. Appends accumulate in an internal buffer; `Flush` pushes them to
/// the file's content (where readers and other handles see them) and
/// `Sync` additionally asks the platform for durability. The destructor
/// flushes (normal close), so only a crash — modeled by a fault-injecting
/// Env — loses buffered bytes.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Buffers `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  /// Pushes buffered bytes into the file content.
  virtual Status Flush() = 0;

  /// Flush + durability barrier (fsync on real filesystems).
  virtual Status Sync() = 0;

  /// Total bytes appended through this handle plus the size the file had
  /// when the handle was opened (i.e. the file size once flushed).
  virtual uint64_t Size() const = 0;
};

/// Abstract filesystem. All paths are '/'-separated and absolute within
/// the Env's namespace.
class Env {
 public:
  virtual ~Env() = default;

  /// Atomically writes (creates or replaces) a whole file. Replacement
  /// creates fresh content (a new inode): existing hard links keep the old
  /// bytes, exactly like write-temp-then-rename on a POSIX filesystem.
  virtual Status WriteFile(const std::string& path, std::string_view data) = 0;

  /// Appends to a file, creating it if absent. Appends go to the file's
  /// content (all hard links observe them) — used by the write-ahead log,
  /// which is never hard-linked.
  virtual Status AppendFile(const std::string& path, std::string_view data) = 0;

  /// Reads a whole file into `*out`.
  virtual Status ReadFile(const std::string& path, std::string* out) = 0;

  /// Positional partial read: up to `n` bytes of `path` starting at
  /// `offset`. Same EOF-clamping semantics as RandomAccessFile::Read. This
  /// is the one-shot form; block-granular readers that issue many reads
  /// against the same file should hold a NewRandomAccessFile handle.
  virtual Status ReadFileRange(const std::string& path, uint64_t offset,
                               size_t n, std::string* out) = 0;

  /// Opens a pinned positional-read handle on `path`.
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  /// Opens a buffered append-only handle. `append == false` truncates
  /// (creating fresh content, like WriteFile); `append == true` keeps
  /// existing bytes and positions at the end, creating the file if absent.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) = 0;

  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;

  /// Creates a directory (and parents). Succeeds if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;

  /// Creates a hard link `dst` to existing file `src`: both names refer to
  /// the same immutable content, no bytes are copied.
  virtual Status LinkFile(const std::string& src, const std::string& dst) = 0;

  virtual Status RenameFile(const std::string& src, const std::string& dst) = 0;

  /// Lists file names (not paths) directly inside `dir`.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
};

/// In-memory Env. Hard links share the underlying `shared_ptr` content.
///
/// Thread safety: one internal mutex guards the name→content catalog, so
/// DBs on different threads can share an Env (as the nodes of an
/// in-process loopback cluster do). Content buffers themselves are not
/// locked: a file's bytes mutate only through its owning DB's handles
/// (serialized by the DB's own lock), and cross-DB sharing via LinkFile
/// only ever covers immutable content (finished SSTs, checkpoint
/// manifests).
class MemEnv : public Env {
 public:
  Status WriteFile(const std::string& path, std::string_view data) override;
  Status AppendFile(const std::string& path, std::string_view data) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status ReadFileRange(const std::string& path, uint64_t offset, size_t n,
                       std::string* out) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status LinkFile(const std::string& src, const std::string& dst) override;
  Status RenameFile(const std::string& src, const std::string& dst) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;

  /// Total bytes of unique content (hard links counted once). Used by
  /// tests to prove that checkpoints do not duplicate bytes.
  uint64_t UniqueContentBytes() const;

 private:
  struct Impl;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<std::string>> files_;
  std::set<std::string> dirs_{"/"};
};

/// Real-filesystem Env rooted at a directory.
class PosixEnv : public Env {
 public:
  Status WriteFile(const std::string& path, std::string_view data) override;
  Status AppendFile(const std::string& path, std::string_view data) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status ReadFileRange(const std::string& path, uint64_t offset, size_t n,
                       std::string* out) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status LinkFile(const std::string& src, const std::string& dst) override;
  Status RenameFile(const std::string& src, const std::string& dst) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
};

}  // namespace rhino::lsm

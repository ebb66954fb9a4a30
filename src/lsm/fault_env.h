#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/random.h"
#include "lsm/env.h"

/// \file fault_env.h
/// Fault-injecting decorator over any `Env` (MemEnv or PosixEnv).
///
/// Generalizes the test-local FailingEnv idiom into a reusable,
/// thread-safe wrapper: a crash-sweep budget (the Nth write-class
/// operation fails and every later one keeps failing — the machine
/// died), a seeded probabilistic fault rate for transient-I/O chaos, and
/// injected per-operation latency for slow-disk scenarios under real
/// threads. A failing handle append *tears*: half of the record's bytes
/// reach the file before the error — the torn-tail shape the WAL framing
/// exists to detect, now reproducible on a real filesystem too.
///
/// Thread safety: all mutable fault state sits behind one mutex, so the
/// DBs of several nodes, and their background threads, can share a
/// FaultEnv. The wrapper must outlive every handle it opened.

namespace rhino::lsm {

class FaultEnv : public Env {
 public:
  explicit FaultEnv(Env* base, uint64_t seed = 42) : base_(base), rng_(seed) {}

  /// Crash sweep: the next `n` write-class operations (handle appends and
  /// flushes, whole-file writes, renames) succeed, then every later one
  /// fails. -1 disables the budget (heals a "crashed" Env).
  void SetWriteBudget(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    budget_ = n;
  }

  /// Transient chaos: each write-class operation independently fails with
  /// probability `p` (seeded, deterministic sequence). 0 disables.
  void SetWriteFailProbability(double p) {
    std::lock_guard<std::mutex> lock(mu_);
    write_fail_prob_ = p;
  }

  /// Each read-class operation independently fails with probability `p`.
  void SetReadFailProbability(double p) {
    std::lock_guard<std::mutex> lock(mu_);
    read_fail_prob_ = p;
  }

  /// Busy-waits are wrong under TSan and sleeps are wall-clock: injected
  /// latency is applied with std::this_thread::sleep_for on every file
  /// operation. 0 disables. Only meaningful in wall-clock runs (the
  /// networked runtime's tests): simulated time does not advance while
  /// sleeping.
  void SetLatencyUs(int64_t us) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_us_ = us;
  }

  /// Whether a failing Append tears (default) or fails cleanly.
  void SetTornAppends(bool torn) {
    std::lock_guard<std::mutex> lock(mu_);
    torn_appends_ = torn;
  }

  /// Clears all fault state (budget, probabilities, latency).
  void Heal() {
    std::lock_guard<std::mutex> lock(mu_);
    budget_ = -1;
    write_fail_prob_ = 0;
    read_fail_prob_ = 0;
    latency_us_ = 0;
  }

  /// Total faults injected so far (reads + writes + tears).
  uint64_t injected_faults() const {
    return injected_faults_.load(std::memory_order_relaxed);
  }

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

 private:
  friend class FaultWritableFile;

  /// Decides the fate of one write-class operation and decrements the
  /// budget. Returns true when the operation must fail.
  bool ShouldFailWrite();
  bool ShouldFailRead();
  /// True while torn appends are enabled (sampled under the lock).
  bool TornAppends();
  void MaybeDelay();

  Env* base_;
  mutable std::mutex mu_;
  Random rng_;
  int budget_ = -1;
  double write_fail_prob_ = 0;
  double read_fail_prob_ = 0;
  int64_t latency_us_ = 0;
  bool torn_appends_ = true;
  std::atomic<uint64_t> injected_faults_{0};
};

}  // namespace rhino::lsm

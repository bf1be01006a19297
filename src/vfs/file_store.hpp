// File stores: where simulation output bytes actually live.
//
// The DV itself only needs metadata (names, sizes, quotas; see
// StorageArea), but simulators and analyses in live mode read and write
// real content. MemFileStore backs tests and DES runs; DiskFileStore backs
// the daemon-mode examples under a scratch directory, standing in for the
// parallel file system (Lustre in the paper).
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"

#include <array>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simfs::vfs {

/// Per-file metadata.
struct FileInfo {
  std::string name;
  Bytes size = 0;
  std::uint64_t checksum = 0;  // FNV-1a of content, maintained on put
};

/// Abstract content store keyed by flat file names.
///
/// Thread-safe: DVLib clients and simulator threads share one store.
/// MemFileStore serializes every call; DiskFileStore serializes per file
/// name and rewrites files in place (see DiskFileStore).
class FileStore {
 public:
  virtual ~FileStore() = default;

  /// Creates or replaces a file with the given content.
  [[nodiscard]] virtual Status put(const std::string& name,
                                   std::string content) = 0;

  /// Reads the whole file.
  [[nodiscard]] virtual Result<std::string> read(const std::string& name) const = 0;

  /// True if the file exists.
  [[nodiscard]] virtual bool exists(const std::string& name) const = 0;

  /// Metadata for one file.
  [[nodiscard]] virtual Result<FileInfo> stat(const std::string& name) const = 0;

  /// Deletes a file; kNotFound if absent.
  [[nodiscard]] virtual Status remove(const std::string& name) = 0;

  /// All file names, sorted.
  [[nodiscard]] virtual std::vector<std::string> list() const = 0;

  /// Sum of all file sizes.
  [[nodiscard]] virtual Bytes totalBytes() const = 0;
};

/// In-memory store (tests, DES integration).
class MemFileStore final : public FileStore {
 public:
  [[nodiscard]] Status put(const std::string& name, std::string content) override;
  [[nodiscard]] Result<std::string> read(const std::string& name) const override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  [[nodiscard]] Result<FileInfo> stat(const std::string& name) const override;
  [[nodiscard]] Status remove(const std::string& name) override;
  [[nodiscard]] std::vector<std::string> list() const override;
  [[nodiscard]] Bytes totalBytes() const override;

 private:
  struct Entry {
    std::string content;
    std::uint64_t checksum;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> files_;
};

/// Directory-backed store. File names map to paths under `root`; names may
/// not contain '/' or ".." (flat namespace, as output steps are flat files
/// within a context's storage area).
///
/// put() rewrites an existing file in place (pwrite, then ftruncate to the
/// new size) instead of truncating it first. Calls on one name exclude each
/// other through a lock stripe picked by the name's hash; calls on different
/// names run in parallel unless their names share a stripe. Because a
/// re-simulation reproduces a step bit for bit, a reader that opens a step
/// while it is being rewritten, through this store or directly, sees its
/// full bytes: never a short or empty file. list() and totalBytes() take no
/// lock and see the directory as it is at that moment.
class DiskFileStore final : public FileStore {
 public:
  /// Creates the root directory if needed.
  explicit DiskFileStore(std::string root);

  [[nodiscard]] Status put(const std::string& name, std::string content) override;
  [[nodiscard]] Result<std::string> read(const std::string& name) const override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  [[nodiscard]] Result<FileInfo> stat(const std::string& name) const override;
  [[nodiscard]] Status remove(const std::string& name) override;
  [[nodiscard]] std::vector<std::string> list() const override;
  [[nodiscard]] Bytes totalBytes() const override;

  [[nodiscard]] const std::string& root() const noexcept { return root_; }

 private:
  static constexpr std::size_t kLockStripes = 64;

  [[nodiscard]] Result<std::string> pathFor(const std::string& name) const;
  [[nodiscard]] std::mutex& stripeFor(const std::string& name) const;

  std::string root_;
  mutable std::array<std::mutex, kLockStripes> stripes_;
};

}  // namespace simfs::vfs

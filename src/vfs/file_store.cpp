#include "vfs/file_store.hpp"

#include "common/checksum.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <functional>

namespace simfs::vfs {

namespace fs = std::filesystem;

namespace {
/// Owns one file descriptor; close() reports the error the destructor
/// would have to drop.
class Fd {
 public:
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool close() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return ::close(fd) == 0;
  }

 private:
  int fd_;
};
}  // namespace

// ---------------------------------------------------------------- MemFileStore

Status MemFileStore::put(const std::string& name, std::string content) {
  std::lock_guard lock(mutex_);
  const auto sum = fnv1a64(content);
  files_[name] = Entry{std::move(content), sum};
  return Status::ok();
}

Result<std::string> MemFileStore::read(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = files_.find(name);
  if (it == files_.end()) return errNotFound("mem: no file " + name);
  return it->second.content;
}

bool MemFileStore::exists(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return files_.count(name) > 0;
}

Result<FileInfo> MemFileStore::stat(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = files_.find(name);
  if (it == files_.end()) return errNotFound("mem: no file " + name);
  return FileInfo{name, it->second.content.size(), it->second.checksum};
}

Status MemFileStore::remove(const std::string& name) {
  std::lock_guard lock(mutex_);
  if (files_.erase(name) == 0) return errNotFound("mem: no file " + name);
  return Status::ok();
}

std::vector<std::string> MemFileStore::list() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [k, _] : files_) out.push_back(k);
  return out;
}

Bytes MemFileStore::totalBytes() const {
  std::lock_guard lock(mutex_);
  Bytes total = 0;
  for (const auto& [_, e] : files_) total += e.content.size();
  return total;
}

// --------------------------------------------------------------- DiskFileStore

DiskFileStore::DiskFileStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

Result<std::string> DiskFileStore::pathFor(const std::string& name) const {
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find("..") != std::string::npos) {
    return errInvalidArgument("disk: invalid file name: " + name);
  }
  return root_ + "/" + name;
}

std::mutex& DiskFileStore::stripeFor(const std::string& name) const {
  return stripes_[std::hash<std::string>{}(name) % kLockStripes];
}

Status DiskFileStore::put(const std::string& name, std::string content) {
  auto path = pathFor(name);
  if (!path) return path.status();
  std::lock_guard lock(stripeFor(name));
  // In place, not O_TRUNC: truncating a file to zero and refilling it
  // triggers ext4's replace-via-truncate flush (auto_da_alloc), 10-25x
  // the cost of overwriting the blocks and trimming the tail.
  Fd fd(::open(path->c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666));
  if (!fd.valid()) return errIoError("disk: cannot open for write: " + *path);
  std::size_t done = 0;
  while (done < content.size()) {
    const ssize_t n = ::pwrite(fd.get(), content.data() + done,
                               content.size() - done, static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return errIoError("disk: short write: " + *path);
    done += static_cast<std::size_t>(n);
  }
  if (::ftruncate(fd.get(), static_cast<off_t>(content.size())) != 0) {
    return errIoError("disk: cannot truncate: " + *path);
  }
  if (!fd.close()) return errIoError("disk: close failed: " + *path);
  return Status::ok();
}

Result<std::string> DiskFileStore::read(const std::string& name) const {
  auto path = pathFor(name);
  if (!path) return path.status();
  std::lock_guard lock(stripeFor(name));
  Fd fd(::open(path->c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) return errNotFound("disk: no file " + name);
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) return errIoError("disk: cannot stat: " + *path);
  std::string out(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd.get(), out.data() + done, out.size() - done,
                              static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return errIoError("disk: read failed: " + *path);
    if (n == 0) break;  // shrunk since fstat by a writer outside this store
    done += static_cast<std::size_t>(n);
  }
  out.resize(done);
  return out;
}

bool DiskFileStore::exists(const std::string& name) const {
  auto path = pathFor(name);
  if (!path) return false;
  std::lock_guard lock(stripeFor(name));
  std::error_code ec;
  return fs::exists(*path, ec);
}

Result<FileInfo> DiskFileStore::stat(const std::string& name) const {
  auto content = read(name);
  if (!content) return content.status();
  return FileInfo{name, content->size(), fnv1a64(*content)};
}

Status DiskFileStore::remove(const std::string& name) {
  auto path = pathFor(name);
  if (!path) return path.status();
  std::lock_guard lock(stripeFor(name));
  std::error_code ec;
  if (!fs::remove(*path, ec)) return errNotFound("disk: no file " + name);
  return Status::ok();
}

std::vector<std::string> DiskFileStore::list() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (entry.is_regular_file()) out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Bytes DiskFileStore::totalBytes() const {
  Bytes total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (entry.is_regular_file()) {
      total += static_cast<Bytes>(entry.file_size(ec));
    }
  }
  return total;
}

}  // namespace simfs::vfs

#include "core/file_io.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "core/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LDPM_HAVE_FSYNC 1
#endif

namespace ldpm {

namespace {

std::string ErrnoMessage() {
  return std::strerror(errno);
}

/// Owns the staged temp file until the rename commits it: every error
/// return between creation and promotion — including failpoint-injected
/// ones — unlinks the temp file, so a failed write never strands orphan
/// `*.tmp.*` files next to the target.
class TempFileGuard {
 public:
  explicit TempFileGuard(std::string path) : path_(std::move(path)) {}
  ~TempFileGuard() {
    if (!committed_) std::remove(path_.c_str());
  }
  void Commit() { committed_ = true; }

 private:
  std::string path_;
  bool committed_ = false;
};

}  // namespace

StatusOr<std::vector<uint8_t>> ReadBinaryFile(const std::string& path) {
  LDPM_FAILPOINT("file_io.read");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " + ErrnoMessage());
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Internal("read of " + path + " failed: " + ErrnoMessage());
  }
  return bytes;
}

Status WriteBinaryFileAtomic(const std::string& path, const uint8_t* data,
                             size_t size) {
  // Unique temp name per call: concurrent writers to the same target (e.g.
  // two Collector::CheckpointTo calls from different threads) each stage
  // their own temp file; whichever renames last wins, and both renames
  // install a complete file.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  LDPM_FAILPOINT("file_io.open");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create " + tmp + ": " + ErrnoMessage());
  }
  // From here every error path — real or failpoint-injected — must unlink
  // the temp file; the guard's destructor is that single cleanup point.
  TempFileGuard guard(tmp);
  bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  ok = ok && std::fflush(f) == 0;
  Status injected;
  LDPM_FAILPOINT_STATUS("file_io.write", injected);
#ifdef LDPM_HAVE_FSYNC
  // Flush user-space and kernel buffers before the rename so a crash after
  // the rename cannot leave the new name pointing at unwritten blocks.
  ok = ok && fsync(fileno(f)) == 0;
#endif
  if (injected.ok()) LDPM_FAILPOINT_STATUS("file_io.fsync", injected);
  const std::string write_error = ok ? "" : ErrnoMessage();
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    return Status::Internal("write of " + tmp + " failed: " +
                            (write_error.empty() ? ErrnoMessage()
                                                 : write_error));
  }
  if (!injected.ok()) {
    return Status(injected.code(),
                  "write of " + tmp + " failed: " + injected.message());
  }
  LDPM_FAILPOINT("file_io.rename");
  // std::filesystem::rename has POSIX semantics everywhere: an existing
  // destination is replaced atomically (plain std::rename would fail on
  // an existing target on Windows).
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed: " +
                            ec.message());
  }
  guard.Commit();
#ifdef LDPM_HAVE_FSYNC
  // Persist the directory entry as well: the rename itself lives in the
  // parent directory, and without this a power failure after we return OK
  // could roll the rename back. Open failure is tolerated (not every
  // filesystem permits reading a directory); a failed fsync on an opened
  // directory is a real durability error and is reported.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dir_fd =
      open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    const bool synced = fsync(dir_fd) == 0;
    close(dir_fd);
    if (!synced) {
      return Status::Internal("fsync of directory " +
                              (dir.empty() ? std::string(".") : dir) +
                              " failed: " + ErrnoMessage());
    }
  }
#endif
  return Status::OK();
}

}  // namespace ldpm

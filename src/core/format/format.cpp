#include "core/format/format.hpp"

#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define NUMAPROF_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#else
#include <fstream>
#include <sstream>
#endif

namespace numaprof::core::format {

std::string_view to_string(SectionId id) noexcept {
  switch (id) {
    case SectionId::kMeta: return "meta";
    case SectionId::kFrames: return "frames";
    case SectionId::kCct: return "cct";
    case SectionId::kVariables: return "variables";
    case SectionId::kThreads: return "threads";
    case SectionId::kMetrics: return "metrics";
    case SectionId::kAddrCentric: return "addrcentric";
    case SectionId::kFirstTouch: return "firsttouch";
    case SectionId::kTrace: return "trace";
    case SectionId::kDegradations: return "degradations";
  }
  return "unknown";
}

bool looks_binary(std::string_view prefix) noexcept {
  return prefix.starts_with(std::string_view(
      reinterpret_cast<const char*>(kBinaryMagic), sizeof(kBinaryMagic)));
}

namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw Error(ErrorKind::kProfile, path, "file", 0, what + path);
}

}  // namespace

MappedFile::MappedFile(const std::string& path) {
#ifdef NUMAPROF_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open for read: ");
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mem != MAP_FAILED) {
      mapped_ = mem;
      mapped_size_ = size;
      view_ = std::string_view(static_cast<const char*>(mem), size);
    }
  }
  // Not a regular file (a pipe or FIFO can be read only once), empty, or
  // not mappable: read the bytes this open yields.
  char chunk[1 << 16];
  ssize_t got = 0;
  while (!mapped_ && (got = ::read(fd, chunk, sizeof(chunk))) != 0) {
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
    } else if (errno != EINTR) {
      ::close(fd);
      fail(path, "cannot read: ");
    }
  }
  ::close(fd);
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) fail(path, "cannot open for read: ");
  std::ostringstream contents;
  contents << is.rdbuf();
  buffer_ = std::move(contents).str();
#endif
  if (!mapped_) view_ = buffer_;
}

MappedFile::~MappedFile() {
#ifdef NUMAPROF_HAVE_MMAP
  if (mapped_ != nullptr) ::munmap(mapped_, mapped_size_);
#endif
}

}  // namespace numaprof::core::format

#include "support/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace numaprof::support {

void write_file(const std::string& path, std::string_view bytes,
                ErrorKind kind, std::string_view what) {
  const auto fail = [&] {
    throw Error(kind, path, "file", 0,
                "cannot write " + std::string(what) + " '" + path +
                    "': " + std::strerror(errno));
  };
  errno = 0;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) fail();
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
      std::fflush(file) == 0;
  const int saved = errno;
  const bool closed = std::fclose(file) == 0;
  if (!written) errno = saved;
  if (!written || !closed) fail();
}

}  // namespace numaprof::support

#include "monitor/term.hpp"

#include <charconv>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/ioctl.h>
#include <termios.h>
#include <unistd.h>
#define NUMAPROF_MONITOR_HAS_TTY 1
#else
#define NUMAPROF_MONITOR_HAS_TTY 0
#endif

namespace numaprof::monitor {

TermSize detect_term_size(int fd) noexcept {
  TermSize size;
#if NUMAPROF_MONITOR_HAS_TTY
  winsize ws{};
  if (::isatty(fd) && ::ioctl(fd, TIOCGWINSZ, &ws) == 0 && ws.ws_col > 0 &&
      ws.ws_row > 0) {
    size.width = ws.ws_col;
    size.height = ws.ws_row;
  }
#else
  (void)fd;
#endif
  return size;
}

std::optional<TermSize> parse_term_size(std::string_view text) noexcept {
  const char* const end = text.data() + text.size();
  TermSize size;
  const auto w = std::from_chars(text.data(), end, size.width);
  if (w.ec != std::errc() || w.ptr == end || *w.ptr != 'x') return std::nullopt;
  const auto h = std::from_chars(w.ptr + 1, end, size.height);
  if (h.ec != std::errc() || h.ptr != end || size.width == 0 ||
      size.height == 0) {
    return std::nullopt;
  }
  return size;
}

std::string ansi_frame(std::string_view frame) {
  // Home the cursor, then clear to end-of-line after each painted line so
  // shorter lines fully overwrite their predecessors without a whole-screen
  // clear (which flickers).
  std::string out = "\x1b[H";
  out.reserve(frame.size() + frame.size() / 16 + 8);
  for (const char c : frame) {
    if (c == '\n') out += "\x1b[K";
    out += c;
  }
  out += "\x1b[J";
  return out;
}

std::string_view ansi_enter() noexcept { return "\x1b[?1049h\x1b[?25l"; }
std::string_view ansi_leave() noexcept { return "\x1b[?25h\x1b[?1049l"; }

std::string paint_frame(const MonitorModel& model, TermSize size, bool ansi,
                        std::size_t n) {
  const std::string frame = model.render(size.width, size.height);
  if (ansi) return std::string(n == 1 ? ansi_enter() : "") + ansi_frame(frame);
  return "== frame " + std::to_string(n) + " (" + std::to_string(size.width) +
         "x" + std::to_string(size.height) + ") ==\n" + frame;
}

Key decode_key_bytes(std::string_view bytes) noexcept {
  if (bytes.empty()) return Key::kNone;
  if (bytes[0] == '\x1b') {
    if (bytes.size() >= 3 && bytes[1] == '[') {
      if (bytes[2] == 'A') return Key::kUp;
      if (bytes[2] == 'B') return Key::kDown;
    }
    return Key::kNone;
  }
  switch (bytes[0]) {
    case 'q': return Key::kQuit;
    case 't': return Key::kThreads;
    case 'd': return Key::kDomains;
    case 'p': return Key::kPages;
    case 'v': return Key::kVars;
    case 's': return Key::kSortNext;
    case 'r': return Key::kReverse;
    case 'b': return Key::kBack;
    case 'k': return Key::kUp;
    case 'j': return Key::kDown;
    case '\r':
    case '\n': return Key::kEnter;
    case '\x7f': return Key::kBack;
    default: return Key::kNone;
  }
}

RawTerminal::RawTerminal(int fd) noexcept : fd_(fd) {
#if NUMAPROF_MONITOR_HAS_TTY
  static_assert(sizeof(saved_) >= sizeof(struct termios),
                "termios state does not fit the opaque buffer");
  struct termios tio{};
  if (!::isatty(fd_) || ::tcgetattr(fd_, &tio) != 0) return;
  std::memcpy(saved_, &tio, sizeof(tio));
  tio.c_lflag &= ~static_cast<tcflag_t>(ICANON | ECHO);
  tio.c_cc[VMIN] = 0;
  tio.c_cc[VTIME] = 0;
  if (::tcsetattr(fd_, TCSANOW, &tio) == 0) active_ = true;
#endif
}

RawTerminal::~RawTerminal() {
#if NUMAPROF_MONITOR_HAS_TTY
  if (active_) {
    struct termios tio;
    std::memcpy(&tio, saved_, sizeof(tio));
    ::tcsetattr(fd_, TCSANOW, &tio);
  }
#endif
}

Key poll_key(int fd, int timeout_ms) noexcept {
#if NUMAPROF_MONITOR_HAS_TTY
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  if (::poll(&pfd, 1, timeout_ms) <= 0 || !(pfd.revents & POLLIN)) {
    return Key::kNone;
  }
  char buf[8];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return Key::kNone;
  return decode_key_bytes(std::string_view(buf, static_cast<size_t>(n)));
#else
  (void)fd;
  (void)timeout_ms;
  return Key::kNone;
#endif
}

}  // namespace numaprof::monitor

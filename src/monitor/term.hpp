// Terminal plumbing for live numa_top: size detection, raw-mode input,
// and the thin ANSI wrapper around the pure frames from monitor/frame.hpp.
//
// Everything stateful and platform-touching lives here so the frame model
// stays deterministic. decode_key_bytes() is pure (bytes -> Key) and unit
// tested; RawTerminal/poll_key are the only pieces that need a real tty.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "monitor/model.hpp"

namespace numaprof::monitor {

struct TermSize {
  std::size_t width = 80;
  std::size_t height = 24;
};

/// Size of the terminal attached to `fd`, or 80x24 when `fd` is not a
/// tty (pipes, CI).
TermSize detect_term_size(int fd) noexcept;

/// Parses a `WxH` frame size such as "80x24": decimal digits, 'x',
/// decimal digits, both non-zero. nullopt for anything else (signs,
/// spaces, overflow).
std::optional<TermSize> parse_term_size(std::string_view text) noexcept;

/// Wraps a finished frame in cursor-home + clear-to-end codes so a
/// repaint replaces the previous frame without scrollback spam.
std::string ansi_frame(std::string_view frame);

/// Enter/leave the alternate screen (and hide/show the cursor). Emitted
/// once around a live session; no-ops for the scripted mode.
std::string_view ansi_enter() noexcept;
std::string_view ansi_leave() noexcept;

/// Frame `n` (1-based) of `model` at `size`, the one painter behind
/// record_app --top, numa_top and the script's `frame` command. With
/// `ansi`: a repaint in place, preceded by ansi_enter() for frame 1.
/// Without: a plain block headed `== frame <n> (<W>x<H>) ==` (pipes, CI
/// logs, goldens).
std::string paint_frame(const MonitorModel& model, TermSize size, bool ansi,
                        std::size_t n);

/// Decodes one keypress from raw input bytes: arrow-key CSI sequences
/// (ESC [ A/B), the letter commands (q t d p v s r b), vi-style j/k,
/// Enter (\r or \n), and backspace (0x7f -> kBack). Unknown bytes decode
/// to kNone. Pure; exercised directly by tests.
Key decode_key_bytes(std::string_view bytes) noexcept;

/// Puts `fd` into raw (non-canonical, no-echo) mode for the object's
/// lifetime; restores the previous termios state on destruction. Safe to
/// construct on a non-tty fd (becomes a no-op).
class RawTerminal {
 public:
  explicit RawTerminal(int fd) noexcept;
  ~RawTerminal();
  RawTerminal(const RawTerminal&) = delete;
  RawTerminal& operator=(const RawTerminal&) = delete;

  bool active() const noexcept { return active_; }

 private:
  int fd_;
  bool active_ = false;
  char saved_[64];  // opaque termios storage (keeps <termios.h> out of here)
};

/// Waits up to `timeout_ms` for a keypress on `fd` and decodes it.
/// Returns Key::kNone on timeout or when `fd` has no pending input.
Key poll_key(int fd, int timeout_ms) noexcept;

}  // namespace numaprof::monitor

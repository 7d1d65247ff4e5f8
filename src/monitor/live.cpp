#include "monitor/live.hpp"

#include <algorithm>

#include "monitor/frame.hpp"
#include "monitor/term.hpp"
#include "simrt/thread.hpp"

namespace numaprof::monitor {

void LiveTop::on_exec(const simrt::SimThread& thread, std::uint64_t count) {
  retire(thread, count);
}

void LiveTop::on_access(const simrt::SimThread& thread,
                        const simrt::AccessEvent& /*event*/) {
  retire(thread, 1);  // a memory access retires one instruction
}

void LiveTop::retire(const simrt::SimThread& thread, std::uint64_t count) {
  since_paint_ += count;
  last_time_ =
      std::max(last_time_, static_cast<std::uint64_t>(thread.now()));
  if (config_.interval_instructions > 0 &&
      since_paint_ >= config_.interval_instructions) {
    paint(last_time_);
  }
}

void LiveTop::flush(std::uint64_t time) {
  if (painted_ > 0 && since_paint_ == 0) return;
  paint(std::max(time, last_time_));
}

void LiveTop::paint(std::uint64_t time) {
  since_paint_ = 0;
  model_.feed(hub_->snapshot(time));
  ++painted_;
  if (config_.out == nullptr) return;
  const std::string frame = model_.render(config_.width, config_.height);
  if (config_.ansi) {
    if (painted_ == 1) *config_.out << ansi_enter();
    *config_.out << ansi_frame(frame);
  } else {
    *config_.out << "== frame " << painted_ << " (" << config_.width << "x"
                 << config_.height << ") ==\n"
                 << frame;
  }
  config_.out->flush();
}

}  // namespace numaprof::monitor

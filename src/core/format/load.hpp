// The load skeleton both profile loaders share (internal to
// src/core/format): text_reader.cpp and binary_reader.cpp each derive
// their loader from LoadState, which states once the rules that do not
// depend on the encoding:
//  - the result being built, the options and the merge's StructureLink;
//  - the lenient step: damage is a ProfileError in strict mode and a
//    Diagnostic in lenient mode (damage(), recover());
//  - the CCT size node ids are validated against;
//  - the guard on publishing the structure to a merge;
//  - finish(): finalize() repairs the invariants, then `complete` is set.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "core/format/format.hpp"
#include "core/profile_io.hpp"

namespace numaprof::core::format {

class LoadState {
 protected:
  LoadState(const LoadOptions& options, StructureLink* link)
      : options_(options), link_(link) {}

  SessionData& data() noexcept { return result_.data; }

  /// The CCT size node ids validate against: the reference's when the
  /// structure is shared.
  std::size_t cct_size() const noexcept {
    return link_ && link_->shared ? link_->reference->cct_nodes
                                  : result_.data.cct.size();
  }

  /// `line` is the 1-based line (text) or the byte offset (binary).
  void diagnose(std::size_t line, std::string field, std::string message) {
    result_.diagnostics.push_back(
        Diagnostic{line, std::move(field), std::move(message)});
  }

  /// Damage the load can step over: a ProfileError in strict mode, a
  /// Diagnostic (`message` then `lenient_note`) in lenient mode.
  void damage(std::size_t line, std::string field, const std::string& message,
              std::string_view lenient_note = {}) {
    if (!options_.lenient) throw ProfileError(std::move(field), line, message);
    diagnose(line, std::move(field), message + std::string(lenient_note));
  }

  /// Runs `parse`; a ProfileError it throws propagates in strict mode and
  /// becomes a Diagnostic in lenient mode. False when it threw.
  template <typename Fn>
  bool recover(Fn&& parse) {
    try {
      parse();
      return true;
    } catch (const ProfileError& e) {
      if (!options_.lenient) throw;
      diagnose(e.line(), e.field(), e.what());
      return false;
    }
  }

  /// True when the structure just decoded may be handed to the merge:
  /// there is a publish callback and no diagnostic so far.
  bool may_publish() const noexcept {
    return link_ && link_->publish && result_.diagnostics.empty();
  }

  /// Hands `bytes`, the structure's encoding, to the publish callback
  /// with the counts it decoded to.
  void publish(ProfileFormat format, std::string bytes) {
    link_->publish(SharedStructure{.format = format,
                                   .bytes = std::move(bytes),
                                   .frames = data().frames.size(),
                                   .cct_nodes = data().cct.size(),
                                   .variables = data().variables.size()});
  }

  /// Repairs the invariants and returns the result; `complete` when the
  /// input reached its end with no diagnostics.
  LoadResult finish(bool reached_end) {
    finalize();
    result_.complete = reached_end && result_.diagnostics.empty();
    return std::move(result_);
  }

  const LoadOptions options_;
  StructureLink* const link_;

 private:
  /// Lenient loads can lose whole sections; restore the invariants the
  /// analyzer relies on (totals and stores the same length, per-domain
  /// vectors sized to the machine).
  void finalize() {
    while (data().stores.size() < data().totals.size()) {
      data().stores.emplace_back(data().domain_count);
    }
    while (data().totals.size() < data().stores.size()) {
      ThreadTotals t;
      t.per_domain.assign(data().domain_count, 0);
      data().totals.push_back(std::move(t));
    }
    for (ThreadTotals& t : data().totals) {
      t.per_domain.resize(data().domain_count, 0);
    }
  }

  LoadResult result_;
};

}  // namespace numaprof::core::format

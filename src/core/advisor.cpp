#include "core/advisor.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace numaprof::core {

std::string_view to_string(PatternKind k) noexcept {
  switch (k) {
    case PatternKind::kUnsampled: return "unsampled";
    case PatternKind::kSingleThread: return "single-thread";
    case PatternKind::kBlocked: return "blocked";
    case PatternKind::kStaggeredOverlap: return "staggered-overlap";
    case PatternKind::kFullRange: return "full-range";
    case PatternKind::kIrregular: return "irregular";
  }
  return "?";
}

std::string_view to_string(Action a) noexcept {
  switch (a) {
    case Action::kNone: return "none";
    case Action::kBlockwiseFirstTouch: return "blockwise-first-touch";
    case Action::kInterleave: return "interleave";
    case Action::kRegroupAos: return "regroup-AoS+parallel-init";
    case Action::kColocate: return "colocate-single-domain";
    case Action::kPadAlign: return "pad-align-to-cache-line";
  }
  return "?";
}

std::string_view to_string(LintKind k) noexcept {
  switch (k) {
    case LintKind::kSerialFirstTouch: return "serial-first-touch";
    case LintKind::kFalseSharing: return "false-sharing-layout";
    case LintKind::kStackEscape: return "stack-escape";
    case LintKind::kInterleaveMisuse: return "interleave-misuse";
    case LintKind::kCrossSerialInit: return "cross-fn-serial-first-touch";
    case LintKind::kScheduleMismatch: return "schedule-mismatch";
    case LintKind::kAliasHiddenInit: return "alias-hidden-first-touch";
    case LintKind::kReadMostly: return "read-mostly-replicable";
  }
  return "?";
}

std::string_view to_string(FusionConfidence c) noexcept {
  switch (c) {
    case FusionConfidence::kConfirmed: return "confirmed";
    case FusionConfidence::kStaticOnly: return "static-only";
    case FusionConfidence::kDynamicOnly: return "dynamic-only";
  }
  return "?";
}

PatternAnalysis Advisor::classify(VariableId variable,
                                  simrt::FrameId context) const {
  const SessionData& d = analyzer_->data();
  const Variable& var = d.variables.at(variable);
  auto ranges = d.address_centric.thread_ranges(var, context);

  // Drop threads with negligible traffic (below 2% of the busiest thread):
  // a master thread touching one element shouldn't distort the pattern.
  std::uint64_t max_count = 0;
  for (const ThreadRange& r : ranges) max_count = std::max(max_count, r.count);
  std::erase_if(ranges, [&](const ThreadRange& r) {
    return r.count * 50 < max_count;
  });

  PatternAnalysis p;
  p.threads = static_cast<std::uint32_t>(ranges.size());
  if (ranges.empty()) return p;
  if (ranges.size() == 1) {
    p.kind = PatternKind::kSingleThread;
    p.mean_width = ranges[0].hi - ranges[0].lo;
    p.coverage = p.mean_width;
    p.monotonic_fraction = 1.0;
    return p;
  }

  // Ranges arrive sorted by tid. Compute widths, adjacent overlap, and
  // midpoint monotonicity.
  double width_sum = 0.0;
  for (const ThreadRange& r : ranges) width_sum += r.hi - r.lo;
  p.mean_width = width_sum / static_cast<double>(ranges.size());

  double overlap_sum = 0.0;
  std::uint32_t ascending = 0;
  for (std::size_t i = 0; i + 1 < ranges.size(); ++i) {
    const ThreadRange& a = ranges[i];
    const ThreadRange& b = ranges[i + 1];
    const double inter =
        std::max(0.0, std::min(a.hi, b.hi) - std::max(a.lo, b.lo));
    const double smaller = std::max(1e-9, std::min(a.hi - a.lo, b.hi - b.lo));
    overlap_sum += std::min(1.0, inter / smaller);
    const double mid_a = (a.lo + a.hi) / 2;
    const double mid_b = (b.lo + b.hi) / 2;
    if (mid_b >= mid_a - 1e-9) ++ascending;
  }
  const auto pairs = static_cast<double>(ranges.size() - 1);
  p.mean_overlap = overlap_sum / pairs;
  p.monotonic_fraction = static_cast<double>(ascending) / pairs;

  // Coverage: union of [lo,hi] intervals.
  auto sorted = ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const ThreadRange& a, const ThreadRange& b) {
              return a.lo < b.lo;
            });
  double covered = 0.0;
  double cursor = 0.0;
  for (const ThreadRange& r : sorted) {
    const double lo = std::max(r.lo, cursor);
    if (r.hi > lo) {
      covered += r.hi - lo;
      cursor = r.hi;
    }
  }
  p.coverage = covered;

  // Midpoint spread separates staggered wide ranges (Blackscholes: every
  // thread wide but consistently shifted, Fig. 8) from true full-range
  // access (every thread the same span).
  const double mid_first = (ranges.front().lo + ranges.front().hi) / 2;
  const double mid_last = (ranges.back().lo + ranges.back().hi) / 2;
  const double spread = mid_last - mid_first;

  if (p.mean_width >= 0.8 && spread < 0.05) {
    p.kind = PatternKind::kFullRange;
  } else if (p.monotonic_fraction >= 0.8 && p.mean_overlap <= 0.35 &&
             (p.coverage >= 0.5 || spread >= 0.5)) {
    // Disjoint ascending blocks. Sparse sampling can leave each thread's
    // observed range a sliver of its true block (low coverage), but the
    // midpoints still span the variable — spread rescues that case.
    p.kind = PatternKind::kBlocked;
  } else if (p.monotonic_fraction >= 0.8 && p.mean_overlap > 0.35 &&
             spread >= 0.05) {
    p.kind = PatternKind::kStaggeredOverlap;
  } else if (p.mean_width >= 0.8) {
    p.kind = PatternKind::kFullRange;  // wide but unordered
  } else {
    p.kind = PatternKind::kIrregular;
  }
  return p;
}

double Advisor::variable_context_weight(VariableId variable,
                                        simrt::FrameId context) const {
  const SessionData& d = analyzer_->data();
  double latency = 0.0;
  double count = 0.0;
  d.address_centric.for_each_of(variable, [&](const BinKey& key,
                                              const BinStats& stats) {
    if (key.context != context) return;
    latency += stats.latency;
    count += static_cast<double>(stats.count);
  });
  // Latency-weighted when the mechanism reports latency (§5.2: "use
  // aggregate latency measurements attributed to a context as a guide");
  // sample counts otherwise (MRK, Soft-IBS).
  return latency > 0.0 ? latency : count;
}

std::pair<simrt::FrameId, double> Advisor::guiding_context(
    VariableId variable, double min_share) const {
  const PatternAnalysis whole = classify(variable, kWholeProgram);
  // Blocked / single-thread whole-program patterns are already maximally
  // actionable. Anything weaker may be a *mixture* of per-region patterns
  // (Fig. 4 vs Fig. 5): a blocked hot region smeared by a cheap
  // full-range region looks full-range (or staggered) overall, so drill
  // into contexts and adopt a pattern only if it is strictly stronger.
  if (whole.kind == PatternKind::kBlocked ||
      whole.kind == PatternKind::kSingleThread) {
    return {kWholeProgram, 1.0};
  }
  const bool accept_staggered = whole.kind != PatternKind::kStaggeredOverlap;

  // Drill into the calling contexts, heaviest first, and adopt the first
  // strongly-actionable pattern carrying at least `min_share` of the
  // variable's cost (Fig. 5 / Fig. 7).
  const SessionData& d = analyzer_->data();
  const double total = variable_context_weight(variable, kWholeProgram);
  if (total <= 0.0) return {kWholeProgram, 1.0};

  std::map<simrt::FrameId, double> weights;
  d.address_centric.for_each_of(variable, [&](const BinKey& key,
                                              const BinStats& stats) {
    if (key.context == kWholeProgram) return;
    weights[key.context] += stats.latency > 0.0
                                ? stats.latency
                                : static_cast<double>(stats.count);
  });
  std::vector<std::pair<simrt::FrameId, double>> ordered(weights.begin(),
                                                         weights.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [context, weight] : ordered) {
    const double share = weight / total;
    if (share < min_share) break;  // ordered descending: no later context fits
    // Skip frames that are just enclosing wrappers with the same smeared
    // mix; adopt the first context whose pattern is strongly actionable.
    const PatternAnalysis p = classify(variable, context);
    if (p.kind == PatternKind::kBlocked ||
        p.kind == PatternKind::kSingleThread ||
        (accept_staggered && p.kind == PatternKind::kStaggeredOverlap)) {
      return {context, share};
    }
  }
  return {kWholeProgram, 1.0};
}

Recommendation Advisor::recommend(VariableId variable) const {
  const SessionData& d = analyzer_->data();
  Recommendation rec;
  rec.variable = variable;
  rec.variable_name = d.variables.at(variable).name;
  rec.whole_program = classify(variable, kWholeProgram);
  rec.severity_warrants = analyzer_->program().warrants_optimization;
  rec.first_touch_sites = d.first_touch_sites(variable);

  const auto [context, share] = guiding_context(variable);
  rec.guiding_context = context;
  rec.guiding_context_share = share;
  rec.guiding =
      context == kWholeProgram ? rec.whole_program : classify(variable, context);

  std::ostringstream why;
  switch (rec.guiding.kind) {
    case PatternKind::kBlocked:
      rec.action = Action::kBlockwiseFirstTouch;
      why << "threads access disjoint ascending blocks; distribute the "
             "variable block-wise by adjusting the first-touch code";
      break;
    case PatternKind::kStaggeredOverlap:
      rec.action = Action::kRegroupAos;
      why << "per-thread ranges ascend but overlap heavily, indicating "
             "interleaved per-thread sections; regroup into an array of "
             "structures and parallelize the initialization loop";
      break;
    case PatternKind::kFullRange:
      rec.action = Action::kInterleave;
      why << "every thread touches (nearly) the whole variable; interleaved "
             "page allocation balances requests across domains";
      break;
    case PatternKind::kSingleThread:
      rec.action = Action::kColocate;
      why << "a single thread performs the accesses; co-locate the variable "
             "with that thread's NUMA domain";
      break;
    case PatternKind::kIrregular:
      rec.action = Action::kInterleave;
      why << "no regular pattern even per calling context; interleaving "
             "avoids concentrating requests on one domain (low confidence)";
      break;
    case PatternKind::kUnsampled:
      rec.action = Action::kNone;
      why << "no samples for this variable";
      break;
  }
  if (context != kWholeProgram) {
    why << " (pattern taken from context '" << d.frame_name(context)
        << "', carrying " << static_cast<int>(share * 100)
        << "% of this variable's NUMA cost)";
  }
  if (!rec.severity_warrants) {
    why << "; NOTE: program lpi_NUMA is below the 0.1 threshold, so this "
           "optimization is unlikely to improve end-to-end performance";
  }
  rec.rationale = why.str();
  return rec;
}

std::vector<Recommendation> Advisor::recommend_all(std::size_t top_n) const {
  std::vector<Recommendation> recs;
  for (const VariableReport& report : analyzer_->variables()) {
    if (recs.size() >= top_n) break;
    recs.push_back(recommend(report.id));
  }
  return recs;
}

namespace {

/// AMG decorates per-level variables "x_vec_L2"; they join their base
/// name's static finding (same source line, another coarsening level).
std::string strip_level_suffix(std::string_view name) {
  const std::size_t pos = name.rfind("_L");
  if (pos == std::string_view::npos || pos + 2 >= name.size()) {
    return std::string(name);
  }
  for (std::size_t i = pos + 2; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::string(name);
  }
  return std::string(name.substr(0, pos));
}

/// Kind priority when several static findings name one variable: the
/// first-touch bug class carries the actionable fix, layout issues next.
int lint_kind_rank(LintKind k) noexcept {
  switch (k) {
    case LintKind::kSerialFirstTouch: return 0;
    case LintKind::kCrossSerialInit: return 1;
    case LintKind::kAliasHiddenInit: return 2;
    case LintKind::kScheduleMismatch: return 3;
    case LintKind::kStackEscape: return 4;
    case LintKind::kInterleaveMisuse: return 5;
    case LintKind::kFalseSharing: return 6;
    case LintKind::kReadMostly: return 7;
  }
  return 8;
}

const StaticFinding& representative(const std::vector<StaticFinding>& group) {
  const StaticFinding* best = &group.front();
  for (const StaticFinding& f : group) {
    if (lint_kind_rank(f.kind) < lint_kind_rank(best->kind)) best = &f;
  }
  return *best;
}

}  // namespace

std::vector<FusedFinding> fuse_findings(const Advisor& advisor,
                                        const std::vector<StaticFinding>& statics,
                                        const FusionOptions& options) {
  // Group static findings by variable, preserving source order.
  std::vector<std::string> static_order;
  std::map<std::string, std::vector<StaticFinding>> by_name;
  for (const StaticFinding& f : statics) {
    auto [it, inserted] = by_name.try_emplace(f.variable);
    if (inserted) static_order.push_back(f.variable);
    it->second.push_back(f);
  }

  std::vector<FusedFinding> fused;
  std::map<std::string, bool> static_used;

  for (const Recommendation& rec : advisor.recommend_all(options.top_n)) {
    FusedFinding f;
    f.variable = rec.variable_name;
    f.dynamic_evidence = rec;
    f.severity_warrants = rec.severity_warrants;

    auto it = by_name.find(rec.variable_name);
    if (it == by_name.end()) it = by_name.find(strip_level_suffix(rec.variable_name));

    std::ostringstream why;
    if (it != by_name.end()) {
      // Static + dynamic witnesses for the same variable.
      static_used[it->first] = true;
      f.confidence = FusionConfidence::kConfirmed;
      f.static_evidence = it->second;
      const StaticFinding& rep = representative(it->second);
      f.patterns_agree = rep.suggested == rec.action ||
                         rep.expected == rec.guiding.kind;
      // The run's observed pattern is ground truth for WHERE the data
      // should live; the source is ground truth for WHERE to apply the
      // edit — except when the run only ever saw one thread (or nothing
      // actionable), where the static structure fills the gap.
      const bool dynamic_actionable =
          rec.action != Action::kNone &&
          rec.guiding.kind != PatternKind::kSingleThread;
      f.action = dynamic_actionable ? rec.action : rep.suggested;
      why << to_string(rep.kind) << " at " << rep.file << ":" << rep.line
          << " corroborated by the profile (observed "
          << to_string(rec.guiding.kind) << ")";
      if (f.patterns_agree) {
        why << "; static and dynamic evidence agree on "
            << to_string(f.action);
      } else if (dynamic_actionable) {
        why << "; dynamic evidence prefers " << to_string(rec.action)
            << " over the static suggestion " << to_string(rep.suggested);
      } else {
        why << "; run saw too little to act on, using the static suggestion "
            << to_string(rep.suggested);
      }
    } else {
      f.confidence = FusionConfidence::kDynamicOnly;
      if (rec.guiding.kind == PatternKind::kSingleThread) {
        // A single observed thread with no static evidence of sharing is
        // not worth a placement fix: first touch already homed the pages
        // with their only user.
        f.action = Action::kNone;
        why << "only one thread observed and no static finding names this "
               "variable; no fix recommended";
      } else {
        f.action = rec.action;
        why << "profile-only evidence (observed "
            << to_string(rec.guiding.kind)
            << "); no static finding names this variable";
      }
    }
    if (!f.severity_warrants) {
      why << "; program lpi_NUMA is below the " << kLpiThreshold
          << " threshold, fix unlikely to pay off";
    }
    f.rationale = why.str();
    fused.push_back(std::move(f));
  }

  // Static findings the profile never corroborated, in source order.
  for (const std::string& name : static_order) {
    if (static_used[name]) continue;
    const std::vector<StaticFinding>& group = by_name[name];
    FusedFinding f;
    f.variable = name;
    f.confidence = FusionConfidence::kStaticOnly;
    f.static_evidence = group;
    const StaticFinding& rep = representative(group);
    f.action = rep.suggested;
    std::ostringstream why;
    why << to_string(rep.kind) << " at " << rep.file << ":" << rep.line
        << " not corroborated by the profile (variable unsampled or below "
           "the top-" << options.top_n << " NUMA cost cut)";
    f.rationale = why.str();
    fused.push_back(std::move(f));
  }
  // Confidence-rank: confirmed, then dynamic-only, then static-only; the
  // stable sort preserves dynamic rank / source order within each band.
  const auto band = [](const FusedFinding& f) {
    switch (f.confidence) {
      case FusionConfidence::kConfirmed: return 0;
      case FusionConfidence::kDynamicOnly: return 1;
      case FusionConfidence::kStaticOnly: return 2;
    }
    return 3;
  };
  std::stable_sort(fused.begin(), fused.end(),
                   [&](const FusedFinding& a, const FusedFinding& b) {
                     return band(a) < band(b);
                   });
  return fused;
}

}  // namespace numaprof::core

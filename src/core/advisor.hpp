// Optimization advisor: turns address-centric patterns into the concrete
// NUMA fixes the paper's case studies apply (§8).
//
// The paper's tool surfaces the per-thread access-range plot and leaves the
// inference to the analyst; this module encodes that inference:
//  - blocked, disjoint, tid-ascending ranges  -> block-wise distribution at
//    the first-touch site (LULESH z/nodelist, AMG RAP_diag_* in their hot
//    parallel region);
//  - ascending but heavily overlapping ranges -> the data is an SoA layout
//    interleaving per-thread sections; regroup into an array of structures
//    and parallelize initialization (Blackscholes buffer, UMT STime);
//  - every thread spanning the whole range    -> interleaved allocation
//    (the two remaining AMG variables);
//  - irregular whole-program pattern          -> re-classify inside the
//    dominant calling context (the Fig. 4 vs Fig. 5 insight);
//  - severity gate: recommendations are tagged not-worthwhile when
//    lpi_NUMA is below the 0.1 threshold (Blackscholes, §8.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"

namespace numaprof::core {

enum class PatternKind : std::uint8_t {
  kUnsampled,
  kSingleThread,      // one thread does (nearly) all accesses
  kBlocked,           // disjoint ascending blocks, one per thread
  kStaggeredOverlap,  // ascending but heavily overlapping ranges
  kFullRange,         // every thread touches ~the whole variable
  kIrregular,
};

std::string_view to_string(PatternKind k) noexcept;

enum class Action : std::uint8_t {
  kNone,                 // below severity threshold or nothing to do
  kBlockwiseFirstTouch,  // distribute blocks via a parallel first touch
  kInterleave,           // numactl-style page interleaving
  kRegroupAos,           // regroup sections into an array-of-structures,
                         // then parallel first touch
  kColocate,             // bind the variable to its single user's domain
  kPadAlign,             // pad/align per-thread data to cache-line size
                         // (false-sharing layouts; static-analysis only)
};

std::string_view to_string(Action a) noexcept;

struct PatternAnalysis {
  PatternKind kind = PatternKind::kUnsampled;
  std::uint32_t threads = 0;
  double mean_width = 0.0;       // avg normalized range width
  double mean_overlap = 0.0;     // avg adjacent-pair overlap fraction
  double coverage = 0.0;         // union of ranges / full extent
  double monotonic_fraction = 0.0;  // adjacent pairs ascending by midpoint
};

struct Recommendation {
  VariableId variable = 0;
  std::string variable_name;
  PatternAnalysis whole_program;
  PatternAnalysis guiding;          // the pattern the advice is based on
  simrt::FrameId guiding_context = kWholeProgram;
  double guiding_context_share = 1.0;  // its share of the variable's cost
  Action action = Action::kNone;
  bool severity_warrants = false;   // program lpi over threshold (§4.2)
  std::string rationale;
  std::vector<FirstTouchSite> first_touch_sites;  // where to edit (§6)
};

class Advisor {
 public:
  explicit Advisor(const Analyzer& analyzer) : analyzer_(&analyzer) {}

  /// Classifies the per-thread access pattern of (variable, context).
  PatternAnalysis classify(VariableId variable,
                           simrt::FrameId context = kWholeProgram) const;

  /// Full recommendation with automatic context selection.
  Recommendation recommend(VariableId variable) const;

  /// Recommendations for the top-N variables by NUMA cost.
  std::vector<Recommendation> recommend_all(std::size_t top_n = 10) const;

  /// The context whose pattern should guide optimization: the whole
  /// program when its pattern is regular; otherwise the most expensive
  /// calling context whose pattern IS regular and whose cost share is at
  /// least `min_share` (the §8.2 drill-down). Returns context + its share.
  std::pair<simrt::FrameId, double> guiding_context(
      VariableId variable, double min_share = 0.5) const;

 private:
  double variable_context_weight(VariableId variable,
                                 simrt::FrameId context) const;

  const Analyzer* analyzer_;
};

// --- Static findings + fusion with dynamic evidence (numalint) ----------
//
// The numalint static pass (src/lint) discovers NUMA antipatterns in the
// source before any profiling run; the fusion layer below joins those
// findings with the data-centric dynamic evidence by variable name so the
// advisor can rank a recommendation by how many independent witnesses
// support it. Static findings reuse the Action/PatternKind vocabulary so
// that "what the source says should happen" and "what the run observed"
// are directly comparable.

/// The static antipattern catalog (see docs/lint.md). L1-L4 come from the
/// per-file query over numalint's IR; L5-L8 come from the interprocedural
/// dataflow engine (src/lint/dataflow) and can cross function and file
/// boundaries.
enum class LintKind : std::uint8_t {
  kSerialFirstTouch,   // L1: serial init, parallel consumption (§6, §8.1/8.2)
  kFalseSharing,       // L2: per-thread-written fields packed in one line
  kStackEscape,        // L3: stack array escapes into a parallel region (§6)
  kInterleaveMisuse,   // L4: interleaving an array with natural block
                       //     locality (the §8.1 POWER7 regression)
  kCrossSerialInit,    // L5: serial first touch reached through a call
                       //     chain or another translation unit
  kScheduleMismatch,   // L6: parallel init and parallel consumption
                       //     partition iterations differently, so the
                       //     first-touch thread != the consuming thread
  kAliasHiddenInit,    // L7: first touch through a pointer alias/wrapper,
                       //     invisible at the allocation site
  kReadMostly,         // L8: written once serially, read by all threads
                       //     across the whole extent: replication or
                       //     interleaving candidate
};

/// Number of LintKind enumerators.
inline constexpr int kLintKindCount = 8;

std::string_view to_string(LintKind k) noexcept;

/// One statically-discovered antipattern instance.
struct StaticFinding {
  std::string file;
  std::uint32_t line = 0;       // anchor: the serial first-touch site (L1),
                                // the escaping access (L3), else the decl
  std::uint32_t decl_line = 0;  // where the variable is declared/bound
  std::string variable;         // source-level name ("x", "RAP_diag_i")
  LintKind kind = LintKind::kSerialFirstTouch;
  /// The per-thread access pattern the source structure predicts a
  /// profiling run would observe for this variable.
  PatternKind expected = PatternKind::kIrregular;
  Action suggested = Action::kNone;
  std::string message;
};

/// How strongly a fused recommendation is supported.
enum class FusionConfidence : std::uint8_t {
  kConfirmed,    // static finding + dynamic evidence agree on the variable
  kStaticOnly,   // in the source, but the profile never sampled it
  kDynamicOnly,  // in the profile, but no static finding names it
};

/// Number of FusionConfidence enumerators.
inline constexpr int kFusionConfidenceCount = 3;

std::string_view to_string(FusionConfidence c) noexcept;

/// One confidence-ranked, fused recommendation.
struct FusedFinding {
  std::string variable;
  FusionConfidence confidence = FusionConfidence::kStaticOnly;
  Action action = Action::kNone;
  /// Program lpi_NUMA over the 0.1 threshold (§4.2); always false for
  /// static-only findings (no run to judge severity from).
  bool severity_warrants = false;
  /// Static expected pattern/action matches what the run observed.
  bool patterns_agree = false;
  std::vector<StaticFinding> static_evidence;
  std::optional<Recommendation> dynamic_evidence;
  std::string rationale;
};

struct FusionOptions {
  std::size_t top_n = 10;  // dynamic recommendations considered
};

/// Joins static findings with the advisor's dynamic recommendations by
/// variable name (AMG level-decorated names like "x_vec_L2" join their
/// base name). Confirmed findings come first in dynamic rank order, then
/// dynamic-only, then static-only in source order. Strictly additive: the
/// plain Advisor output is not consulted differently than recommend_all.
std::vector<FusedFinding> fuse_findings(const Advisor& advisor,
                                        const std::vector<StaticFinding>& statics,
                                        const FusionOptions& options = {});

}  // namespace numaprof::core

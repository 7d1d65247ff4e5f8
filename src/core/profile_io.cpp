#include "core/profile_io.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/format/format.hpp"
#include "core/format/writer.hpp"
#include "support/file.hpp"
#include "support/parallel.hpp"

namespace numaprof::core {

ProfileError::ProfileError(std::string field, std::size_t line,
                           const std::string& message)
    : Error(ErrorKind::kProfile, /*file=*/{}, field, line,
            "profile parse error: " + field + " (line " +
                std::to_string(line) + "): " + message) {}

// --- ProfileReader / ProfileWriter -----------------------------------

namespace {

/// The one dispatch every profile read goes through: `bytes` is the
/// whole profile, loaded by the loader of the encoding it begins with.
LoadResult load_profile(std::string_view bytes, const LoadOptions& options,
                        format::StructureLink* link) {
  const ProfileFormat encoding = ProfileReader::detect(bytes);
  LoadResult result = encoding == ProfileFormat::kBinary
                          ? format::load_binary_profile(bytes, options, link)
                          : format::load_text_profile(bytes, options, link);
  result.format = encoding;
  return result;
}

}  // namespace

ProfileFormat ProfileReader::detect(std::string_view prefix) noexcept {
  return format::looks_binary(prefix) ? ProfileFormat::kBinary
                                      : ProfileFormat::kText;
}

LoadResult ProfileReader::read(std::string_view bytes) const {
  return load_profile(bytes, options_, nullptr);
}

LoadResult ProfileReader::read(std::istream& is) const {
  std::ostringstream buffered;
  buffered << is.rdbuf();
  return read(std::move(buffered).str());
}

LoadResult ProfileReader::read_file(const std::string& path) const {
  const format::MappedFile file(path);
  return read(file.bytes());
}

namespace {

void encode(const format::WritePlan& plan, ProfileFormat profile_format,
            const format::ProfileSink& sink) {
  if (profile_format == ProfileFormat::kBinary) {
    format::encode_binary(plan, sink);
  } else {
    format::encode_text(plan, sink);
  }
}

}  // namespace

void ProfileWriter::write(const SessionData& data, std::ostream& os) const {
  const std::string out = bytes(data);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::string ProfileWriter::bytes(const SessionData& data) const {
  std::string out;
  encode(format::WritePlan::whole(data), format_,
         [&](std::string profile) { out = std::move(profile); });
  return out;
}

void ProfileWriter::write_file(const SessionData& data,
                               const std::string& path) const {
  support::write_file(path, bytes(data), ErrorKind::kProfile, "profile");
}

// --- per-thread shards and the analyzer merge ------------------------

std::vector<std::string> ProfileWriter::thread_shards(
    const SessionData& data) const {
  std::vector<std::string> shards;
  encode(format::WritePlan::thread_shards(data), format_,
         [&](std::string shard) { shards.push_back(std::move(shard)); });
  return shards;
}

std::vector<std::string> ProfileWriter::write_thread_shards(
    const SessionData& data, const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  // Each shard is written as soon as it is encoded, so only one is held.
  std::vector<std::string> paths;
  encode(format::WritePlan::thread_shards(data), format_,
         [&](std::string shard) {
           const std::string name =
               "thread_" + std::to_string(paths.size()) + ".prof";
           paths.push_back((fs::path(directory) / name).string());
           support::write_file(paths.back(), shard, ErrorKind::kProfile,
                               "profile shard");
         });
  return paths;
}

namespace {

/// Non-empty reason when `other` cannot be merged into `base`. A shard
/// whose structure was taken from the merge's reference (the base) has
/// the base's frame, CCT and variable counts by construction.
std::string incompatibility(const SessionData& base, const SessionData& other,
                            bool shared_structure) {
  const auto mismatch = [](const char* what, auto a, auto b) {
    return std::string(what) + " mismatch (" + std::to_string(a) + " vs " +
           std::to_string(b) + ")";
  };
  if (other.domain_count != base.domain_count) {
    return mismatch("domain count", base.domain_count, other.domain_count);
  }
  if (!shared_structure) {
    if (other.frames.size() != base.frames.size()) {
      return mismatch("frame count", base.frames.size(), other.frames.size());
    }
    if (other.cct.size() != base.cct.size()) {
      return mismatch("cct size", base.cct.size(), other.cct.size());
    }
    if (other.variables.size() != base.variables.size()) {
      return mismatch("variable count", base.variables.size(),
                      other.variables.size());
    }
  }
  if (other.mechanism != base.mechanism) {
    return "mechanism mismatch (" + std::string(to_string(base.mechanism)) +
           " vs " + std::string(to_string(other.mechanism)) + ")";
  }
  return {};
}

void merge_totals(ThreadTotals& into, const ThreadTotals& from,
                  std::uint32_t domain_count) {
  into.samples += from.samples;
  into.memory_samples += from.memory_samples;
  into.match += from.match;
  into.mismatch += from.mismatch;
  into.remote_latency += from.remote_latency;
  into.total_latency += from.total_latency;
  into.l3_miss_samples += from.l3_miss_samples;
  into.remote_l3_miss_samples += from.remote_l3_miss_samples;
  into.instructions += from.instructions;
  into.memory_instructions += from.memory_instructions;
  into.per_domain.resize(domain_count, 0);
  for (std::size_t d = 0; d < from.per_domain.size() && d < domain_count;
       ++d) {
    into.per_domain[d] += from.per_domain[d];
  }
}

void merge_session(SessionData& base, SessionData&& other) {
  const std::size_t threads =
      std::max(base.totals.size(), other.totals.size());
  {
    ThreadTotals zero;
    zero.per_domain.assign(base.domain_count, 0);
    base.totals.resize(threads, zero);
  }
  while (base.stores.size() < threads) {
    base.stores.emplace_back(base.domain_count);
  }
  for (std::size_t tid = 0; tid < other.totals.size(); ++tid) {
    merge_totals(base.totals[tid], other.totals[tid], base.domain_count);
  }
  for (std::size_t tid = 0;
       tid < other.stores.size() && tid < base.stores.size(); ++tid) {
    base.stores[tid].merge(std::move(other.stores[tid]));
  }
  base.address_centric.merge_from(other.address_centric);
  base.first_touches.insert(base.first_touches.end(),
                            other.first_touches.begin(),
                            other.first_touches.end());
  base.trace.insert(base.trace.end(), other.trace.begin(),
                    other.trace.end());
  base.pebs_ll_events += other.pebs_ll_events;
  // Collection history is carried by the first shard only (shards of one
  // run replicate it); incompatible histories were already screened out.
}

/// Fails the merge on a quorum shortfall (checked in both modes).
void check_quorum(const MergeSummary& summary,
                  const PipelineOptions& options) {
  const double fraction = static_cast<double>(summary.files_merged) /
                          static_cast<double>(summary.files_total);
  if (fraction < options.quorum) {
    throw ProfileError(
        "quorum", 0,
        "only " + std::to_string(summary.files_merged) + " of " +
            std::to_string(summary.files_total) +
            " profiles merged, below the required quorum");
  }
}

/// Surfaces skipped inputs as degradation events in the merged data.
void record_skips(MergeResult& result) {
  for (const SkippedProfile& skip : result.summary.skipped) {
    result.data.degradations.push_back(
        DegradationEvent{.kind = DegradationKind::kProfileFileSkipped,
                         .mechanism = result.data.mechanism,
                         .value = 0,
                         .detail = skip.path + ": " + skip.reason});
  }
}

}  // namespace

/// One code path for every `jobs` value (§7.2 at scale). parallel_for_each
/// runs one index per path (indices start in position order): parse that
/// file into its slot, then under the fold lock mark the slot ready and
/// fold every consecutive ready slot from `next_fold`.
/// Screening (skips, diagnostics, base selection, compatibility) and the
/// fold therefore run strictly in input order, so the bytes, the summary
/// and the strict-mode error (always the first failing file BY POSITION)
/// match a serial in-order loop — which is exactly what jobs 1 runs. A
/// parsed shard lives only until every shard before it has parsed, so
/// with shards of similar cost about `jobs` of them are alive at once.
///
/// Shards of one run repeat the program structure (frames, CCT,
/// variables) byte for byte, so it is decoded once per call. Shard 0's
/// loader publishes its structure bytes as soon as they decode; the other
/// shards wait for that, and one whose structure bytes equal them skips
/// decoding them. Equal bytes decode to exactly shard 0's structure, so
/// the result, the summary and every error are the same as a full
/// decode's. Shard 0 is the reference only if it then loads with no
/// diagnostics and defines no more structure; otherwise the shards that
/// skipped are decoded again in full when folded.
MergeResult merge_profile_files(const std::vector<std::string>& paths,
                                const PipelineOptions& options) {
  if (paths.empty()) {
    throw ProfileError("merge", 0, "no input profiles");
  }
  MergeResult result;
  MergeSummary& summary = result.summary;
  summary.files_total = paths.size();
  const ProfileReader reader(options);

  struct LoadSlot {
    std::unique_ptr<format::MappedFile> file;  // opened once, kept to fold
    LoadResult loaded;
    bool shared = false;  // structure taken from the reference
    std::exception_ptr error;
    bool ready = false;  // guarded by fold_mutex
  };
  std::vector<LoadSlot> slots(paths.size());
  std::atomic<bool> stopped{false};  // a strict failure: parse no more
  std::mutex fold_mutex;
  std::size_t next_fold = 0;   // guarded by fold_mutex
  bool have_base = false;      // guarded by fold_mutex
  std::exception_ptr failure;  // guarded by fold_mutex

  // Shard 0's published structure; `settled` once it is published or
  // shard 0 has loaded without one. Never changes after that.
  std::optional<format::SharedStructure> published;
  std::mutex publish_mutex;
  std::condition_variable publish_cv;
  bool settled = false;  // guarded by publish_mutex
  const auto settle = [&](std::optional<format::SharedStructure> structure) {
    const std::lock_guard<std::mutex> lock(publish_mutex);
    if (settled) return;
    published = std::move(structure);
    settled = true;
    publish_cv.notify_all();
  };
  // Written by shard 0's claimer before slot 0 is ready; read by folds.
  bool reference_valid = false;

  // Parses path i into its slot, opening the file on the first call. A
  // shard that defines more structure after sharing the reference's is
  // parsed again in full.
  const auto parse = [&](std::size_t i, format::StructureLink link) {
    LoadSlot& slot = slots[i];
    slot.shared = false;
    slot.error = nullptr;
    try {
      if (!slot.file) {
        slot.file = std::make_unique<format::MappedFile>(paths[i]);
      }
      const std::string_view bytes = slot.file->bytes();
      try {
        slot.loaded = load_profile(bytes, reader.options(), &link);
        slot.shared = link.shared;
      } catch (const format::StructureConflict&) {
        slot.loaded = load_profile(bytes, reader.options(), nullptr);
      }
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  // Screens and folds slot i; throws in strict mode on the first failure.
  const auto fold = [&](std::size_t i) {
    const std::string& path = paths[i];
    LoadSlot& slot = slots[i];
    if (slot.shared && !reference_valid) parse(i, {});
    if (slot.error) {
      try {
        std::rethrow_exception(slot.error);
      } catch (const ProfileError& e) {
        if (!options.lenient) {
          throw ProfileError(e.field(), e.line(), path + ": " + e.what());
        }
        summary.skipped.push_back(SkippedProfile{path, e.what()});
      } catch (const std::exception& e) {
        if (!options.lenient) {
          throw ProfileError("file", 0, path + ": " + e.what());
        }
        summary.skipped.push_back(SkippedProfile{path, e.what()});
      }
      return;
    }
    for (Diagnostic& d : slot.loaded.diagnostics) {
      summary.diagnostics.push_back(
          Diagnostic{d.line, path + ": " + d.field, std::move(d.message)});
    }
    if (!have_base) {
      result.data = std::move(slot.loaded.data);
      have_base = true;
      ++summary.files_merged;
      return;
    }
    const std::string reason =
        incompatibility(result.data, slot.loaded.data, slot.shared);
    if (!reason.empty()) {
      if (!options.lenient) {
        throw ProfileError("merge", 0, path + ": " + reason);
      }
      summary.skipped.push_back(SkippedProfile{path, reason});
      return;
    }
    merge_session(result.data, std::move(slot.loaded.data));
    ++summary.files_merged;
  };

  // Marks slot i ready and folds every consecutive ready slot.
  const auto finish = [&](std::size_t i) {
    // Declared before the lock, so the folded shards and their files are
    // freed after it is released instead of inside the critical section.
    std::vector<LoadSlot> folded;
    const std::lock_guard<std::mutex> lock(fold_mutex);
    slots[i].ready = true;
    while (!failure && next_fold < slots.size() && slots[next_fold].ready) {
      try {
        fold(next_fold);
      } catch (...) {
        failure = std::current_exception();
        stopped = true;
      }
      folded.push_back(std::move(slots[next_fold++]));
    }
  };

  support::parallel_for_each(options.jobs, paths.size(), [&](std::size_t i) {
    if (stopped) return;
    // Slot i belongs to its claimer until `ready` is set under the lock.
    if (i == 0) {
      parse(0, {.publish = settle});
      settle(std::nullopt);
      const LoadSlot& slot = slots[0];
      const SessionData& data = slot.loaded.data;
      reference_valid = published && !slot.error &&
                        slot.loaded.diagnostics.empty() &&
                        data.frames.size() == published->frames &&
                        data.cct.size() == published->cct_nodes &&
                        data.variables.size() == published->variables;
    } else {
      std::unique_lock<std::mutex> lock(publish_mutex);
      publish_cv.wait(lock, [&] { return settled; });
      lock.unlock();
      parse(i, {.publish = nullptr,
                .reference = published ? &*published : nullptr});
    }
    finish(i);
  });
  if (failure) std::rethrow_exception(failure);

  if (!have_base) {
    throw ProfileError(
        "merge", 0,
        "no loadable profile among " + std::to_string(paths.size()) +
            " input files");
  }
  check_quorum(summary, options);
  record_skips(result);
  return result;
}

}  // namespace numaprof::core

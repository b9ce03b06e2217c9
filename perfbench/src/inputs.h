// Seeded inputs for the serving benchmark, drawn from the collected suite.
//
// The server receives only bytes made here. Every profile and model comes
// from the repository's own 27-workload suite (`workloads::hpc_suite()`)
// collected on the simulated core with the default sampler, as
// `spire_cli collect --cycles 8000000` collects one member: one sample per
// metric per 50k-cycle window, 85 metrics, 13 to 160 windows a member
// (about 7.5k samples and 317 KB of CSV on average). Profiles take the
// members in turn, in suite order; the seed draws which windows of its
// member each profile holds: a circular run of consecutive windows
// that leaves out at most an eighth of them (at most two of a member
// shorter than 24 windows). A model is an Ensemble trained on such draws
// of the 23 training members, so it has the trained suite ensemble's 85
// rooflines and size.
//
// Collecting the suite takes tens of seconds of simulation, so it is done
// once per build and kept on disk; no timed figure includes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sampling/dataset.h"
#include "spire/ensemble.h"

namespace perfbench {

/// Cycle budget per suite member, as the repository's reproduction
/// collects it.
inline constexpr std::uint64_t kSuiteCycles = 8'000'000;

/// The collected suite: one dataset per member, in `hpc_suite()` order.
struct Suite {
  std::vector<spire::sampling::Dataset> members;
  std::vector<bool> training;  // the member belongs to the training set
};

/// Collects the first `count` suite members (all when 0) on `threads`
/// threads, `cycles` each. Deterministic: the result does not depend on
/// the thread count.
Suite collect_suite(std::size_t threads, std::uint64_t cycles = kSuiteCycles,
                    std::size_t count = 0);

/// The whole suite, loaded from `dir` when a previous run saved it there
/// and collected (then saved) otherwise. `tag` names the collecting build,
/// so that a rebuilt simulator never reads another build's suite.
Suite load_or_collect_suite(const std::string& dir, const std::string& tag,
                            std::size_t threads);

/// Which windows of which member a profile is made of.
struct WindowDraw {
  std::uint32_t member = 0;
  std::uint32_t start = 0;   // first window
  std::uint32_t windows = 0; // consecutive windows, wrapping at the end

  auto operator<=>(const WindowDraw&) const = default;
};

/// `count` distinct draws, seeded by `seed`; draw i is of member i mod the
/// suite's size.
/// Throws std::invalid_argument when a member has too few distinct draws.
std::vector<WindowDraw> draw_profiles(const Suite& suite, std::uint64_t seed,
                                      std::size_t count);

/// The samples of `draw`: for every metric, the draw's windows in order.
spire::sampling::Dataset make_profile(const Suite& suite, const WindowDraw& draw);

/// Model `index` of the stream seeded by `seed`: an Ensemble trained on one
/// window draw of every training member.
spire::model::Ensemble make_model(const Suite& suite, std::uint64_t seed,
                                  std::size_t index);

/// The text CSV a client sends for `data` (what `spire_cli estimate
/// --server` reads from disk and ships).
std::string to_csv(const spire::sampling::Dataset& data);

}  // namespace perfbench

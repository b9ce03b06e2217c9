// Batch estimation over workload files — the "many CSVs in, one verdict
// per CSV out" serving front end used by `spire_cli estimate` and the
// pipeline engine's estimate_batch stage — plus the pre-parsed view batch
// a serve::Shard pump evaluates.
//
// MappedModel::estimate throws when its workload is bad. A service run
// must instead keep going when one file is unreadable or shares no metric
// with the model, so EstimationService isolates failures per item: every
// input gets a BatchResult in input order carrying either the Estimate or
// the error string, never both.
//
// The service serves one MappedModel, shared: a registry mapping, a file
// mapped by from_file, or an ensemble compiled in memory.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sampling/dataset_view.h"
#include "serve/mapped_model.h"
#include "spire/ensemble.h"
#include "util/thread_pool.h"

namespace spire::serve {

class ModelRegistry;

/// One workload file's outcome. Exactly one of estimate/error is set.
struct BatchResult {
  std::string source;     // the input path
  std::size_t samples = 0;  // samples loaded (0 when loading failed)
  std::optional<model::Estimate> estimate;
  std::string error;      // why estimation failed, "" on success
  /// True when the item's deadline expired before estimate_views evaluated
  /// it; distinguishes "out of time" from "bad input" so callers can
  /// report the two with different status codes.
  bool deadline_expired = false;

  bool ok() const { return estimate.has_value(); }
};

/// One pre-parsed workload for estimate_views. `view` points at a
/// caller-owned DatasetView (a zero-copy profile_bin::ProfileView or a
/// ProfileCache hit) that must stay alive for the call — no parse happens,
/// the view's spans feed the kernel directly. `deadline` (when
/// has_deadline) is checked immediately before this item is evaluated, so
/// an item that ran out of budget — also while earlier items of the same
/// call were evaluated — reports expiry instead of being evaluated past
/// its deadline.
struct ViewJob {
  const sampling::DatasetView* view = nullptr;
  model::Merge merge = model::Merge::kTimeWeighted;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
};

struct BatchOptions {
  util::ExecOptions exec{};
  model::Merge merge = model::Merge::kTimeWeighted;
};

class EstimationService {
 public:
  explicit EstimationService(MappedModel model);
  /// Throws std::invalid_argument on a null model.
  explicit EstimationService(std::shared_ptr<const MappedModel> model);

  /// Loads a model from `path`: a binary v4 image maps zero-copy; text v1
  /// loads the ensemble and compiles it into an in-memory image. Either
  /// way estimates are bit-identical. A binary file of another version is
  /// rejected (model::unsupported_binary_version).
  static EstimationService from_file(const std::string& path);

  /// Resolves a content-addressed id through `registry` (a still-live
  /// mapping is shared). Throws when the id is malformed or unknown.
  static EstimationService from_registry(ModelRegistry& registry,
                                         const std::string& id);

  std::size_t metric_count() const { return model_->metric_count(); }

  /// Estimates every workload CSV, one pool task per file (load + estimate
  /// both inside the task; serial when exec.threads <= 1). Results come
  /// back in input order and are bit-identical at any thread count; a file
  /// that cannot be loaded or estimated yields a BatchResult with `error`
  /// set instead of aborting the batch.
  std::vector<BatchResult> estimate_files(std::span<const std::string> paths,
                                          const BatchOptions& options = {}) const;

  /// Evaluates pre-parsed workloads in the caller's thread — the
  /// coalesced inner loop of a serve::Shard pump, which already owns a
  /// pool worker. Every job arrives as a view (a zero-copy binary-profile
  /// view or a parsed-profile cache hit), so each item is one
  /// serve::estimate call (serve/model_eval.h) with no Dataset
  /// materialization and no string copies. Results come back in input
  /// order with per-item error isolation (an error carries the text
  /// serve::estimate would throw); an item whose deadline has passed when
  /// its turn comes gets `deadline_expired` set and is never evaluated.
  /// Results are bit-identical to parsing the same samples from CSV (the
  /// kernel sees the same doubles either way).
  std::vector<BatchResult> estimate_views(std::span<const ViewJob> jobs) const;

 private:
  std::shared_ptr<const MappedModel> model_;
};

}  // namespace spire::serve

#include "serve/profile_cache.h"

#include <utility>

namespace spire::serve {

std::shared_ptr<const ParsedProfile> ParsedProfile::make(
    sampling::Dataset data) {
  auto profile = std::make_shared<ParsedProfile>();
  profile->data = std::move(data);
  // The view snapshots series addresses, so it is taken only once the
  // Dataset sits at its final (shared_ptr-owned) location.
  profile->view = sampling::DatasetView(profile->data);
  return profile;
}

}  // namespace spire::serve

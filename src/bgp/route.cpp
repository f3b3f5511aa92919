#include "bgp/route.hpp"

#include <algorithm>

namespace bgpintent::bgp {

bool Route::has_community(Community c) const noexcept {
  return std::find(communities.begin(), communities.end(), c) !=
         communities.end();
}

void Route::canonicalize_communities() {
  std::sort(communities.begin(), communities.end());
  communities.erase(std::unique(communities.begin(), communities.end()),
                    communities.end());
  std::sort(large_communities.begin(), large_communities.end());
  large_communities.erase(
      std::unique(large_communities.begin(), large_communities.end()),
      large_communities.end());
  std::sort(ext_communities.begin(), ext_communities.end());
  ext_communities.erase(
      std::unique(ext_communities.begin(), ext_communities.end()),
      ext_communities.end());
}

}  // namespace bgpintent::bgp

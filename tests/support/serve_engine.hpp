// The engine a `bgpintent serve` daemon runs — a non-expiring window —
// fed RIB entries and settled, for the serve tier's tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "bgp/route.hpp"
#include "stream/engine.hpp"
#include "topo/org_map.hpp"

namespace bgpintent::test_support {

/// serve's window config: nothing ever expires.
inline stream::WindowConfig serve_window() {
  stream::WindowConfig config;
  config.window_epochs = UINT32_MAX;
  return config;
}

/// A serve engine that announced `entries` and ran one reclassification.
inline std::unique_ptr<stream::StreamEngine> serve_engine(
    std::span<const bgp::RibEntry> entries = {},
    const topo::OrgMap* orgs = nullptr) {
  auto engine = std::make_unique<stream::StreamEngine>(serve_window(), orgs);
  for (const bgp::RibEntry& entry : entries) engine->announce(entry);
  engine->reclassify();
  return engine;
}

}  // namespace bgpintent::test_support

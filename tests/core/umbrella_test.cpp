// Compile-and-link check of the umbrella header: everything the README
// advertises is reachable through one include.
#include "paraio.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, PublicApiReachable) {
  paraio::sim::Engine engine;
  paraio::hw::Machine machine(
      engine, paraio::hw::MachineConfig::paragon_xps(2, 1));
  paraio::pfs::Pfs pfs(machine);
  paraio::io::CaptureFs fs(pfs, engine);
  paraio::pablo::Trace trace;
  fs.add_sink(trace);
  EXPECT_EQ(machine.compute_nodes(), 2u);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(paraio::analysis::SizeClassHistogram::class_of(1), 0u);
}

}  // namespace

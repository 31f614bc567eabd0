// The paper's production envelopes (§5, §6), reached from the calibrated
// presets with no per-scale re-tuning:
//
//  * ESCAT: "Production data sets generate similar behavior, but with ten
//    to twenty hour executions on 512 processors" — 512 nodes with a 5x
//    quadrature data set (260 iterations);
//  * RENDER: "Full production runs consist of 5000 or more frames and
//    execute for approximately thirty minutes", streaming to the HiPPi
//    frame buffer with the production-tuned renderer (0.2 s per frame).
//
// "Approximately thirty minutes" is checked as 30 min +- 20%: [24, 36] min
// for the render phase (25.9 min today).
#include <gtest/gtest.h>

#include <variant>

#include "core/experiment.hpp"

namespace paraio::core {
namespace {

TEST(ProductionEnvelope, EscatAt512NodesRunsTenToTwentyHours) {
  ExperimentConfig cfg = escat_experiment();
  cfg.machine = hw::MachineConfig::paragon_xps(512, 16);
  auto& app = std::get<apps::EscatConfig>(cfg.app);
  app.nodes = 512;
  app.iterations = 260;
  const ExperimentResult r = run_experiment(cfg);
  const double hours = (r.run_end - r.run_start) / 3600.0;
  EXPECT_GE(hours, 10.0);
  EXPECT_LE(hours, 20.0);
}

TEST(ProductionEnvelope, Render5000FramesToFrameBufferInAboutThirtyMinutes) {
  ExperimentConfig cfg = render_experiment();
  auto& app = std::get<apps::RenderConfig>(cfg.app);
  app.frames = 5000;
  app.to_framebuffer = true;
  app.frame_compute = 0.2;
  const ExperimentResult r = run_experiment(cfg);
  const double render_minutes =
      (r.run_end - r.phases.end_of("initialization")) / 60.0;
  EXPECT_GE(render_minutes, 24.0);
  EXPECT_LE(render_minutes, 36.0);
}

}  // namespace
}  // namespace paraio::core

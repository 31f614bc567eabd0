// The benchmark's own tests: each workload's pipeline at reduced size, with
// every output check holding, counts that repeat exactly, and each check
// shown to fire on damaged output.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "pipeline.hpp"

namespace perfbench {
namespace {

const Check* find_check(const RepResult& rep, const std::string& name) {
  for (const Check& c : rep.checks) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

bool check_failed(const RepResult& rep, const std::string& name) {
  const Check* c = find_check(rep, name);
  return c != nullptr && !c->ok;
}

class ReducedPipeline : public ::testing::TestWithParam<Workload> {
 protected:
  Plan plan_ = make_plan(GetParam(), Scale::kReduced, 1);
};

TEST_P(ReducedPipeline, EveryCheckHolds) {
  const RepResult rep = run_pipeline(plan_);
  for (const Check& c : rep.checks) {
    EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
  }
  EXPECT_NE(find_check(rep, "sddf_round_trip"), nullptr);
  EXPECT_EQ(rep.io_failed, 0u);
  EXPECT_GT(rep.counts.io_events, 0u);
  EXPECT_GT(rep.counts.kernel_events, 0u);
  EXPECT_GT(rep.wall_s, 0.0);
  EXPECT_GT(rep.sim_s, 0.0);
}

TEST_P(ReducedPipeline, RepetitionsGiveIdenticalCounts) {
  RunOptions traced;
  traced.traced = true;
  const RepResult a = run_pipeline(plan_, traced);
  const RepResult b = run_pipeline(plan_, traced);
  const RepResult untraced = run_pipeline(plan_);
  EXPECT_TRUE(a.counts == b.counts);
  EXPECT_TRUE(a.counts == untraced.counts)
      << "attaching the registry changed the simulation";
  EXPECT_EQ(a.registry, b.registry);
  EXPECT_FALSE(a.registry.empty());
  EXPECT_TRUE(untraced.registry.empty());
}

TEST_P(ReducedPipeline, TracedSpansNestUnderOneRoot) {
  RunOptions traced;
  traced.traced = true;
  const RepResult rep = run_pipeline(plan_, traced);
  ASSERT_FALSE(rep.spans.empty());
  EXPECT_EQ(rep.spans.front().name, "pipeline");
  EXPECT_EQ(rep.spans.front().parent, -1);
  const Span& root = rep.spans.front();
  for (std::size_t i = 1; i < rep.spans.size(); ++i) {
    const Span& s = rep.spans[i];
    EXPECT_EQ(s.parent, 0) << s.name;
    EXPECT_LE(root.start_s, s.start_s) << s.name;
    EXPECT_LE(s.start_s, s.end_s) << s.name;
    EXPECT_LE(s.end_s, root.end_s) << s.name;
  }
  EXPECT_TRUE(run_pipeline(plan_).spans.empty());
}

TEST_P(ReducedPipeline, WrongPinsFail) {
  const RepResult good = run_pipeline(plan_);
  RunOptions pinned;
  pinned.expect_signature = good.counts.logical_signature ^ 1u;
  pinned.expect_kernel_events = good.counts.kernel_events + 1;
  const RepResult bad = run_pipeline(plan_, pinned);
  EXPECT_TRUE(check_failed(bad, "logical_signature"));
  EXPECT_TRUE(check_failed(bad, "kernel_events"));

  pinned.expect_signature = good.counts.logical_signature;
  pinned.expect_kernel_events = good.counts.kernel_events;
  EXPECT_EQ(run_pipeline(plan_, pinned).failed_checks(), 0u);
}

TEST_P(ReducedPipeline, FlippedSddfByteFailsTheRoundTrip) {
  RunOptions options;
  options.sabotage = Sabotage::kFlipSddfByte;
  const RepResult rep = run_pipeline(plan_, options);
  EXPECT_TRUE(check_failed(rep, "sddf_round_trip"));
  EXPECT_GT(rep.failed_checks(), 0u);
}

std::string param_name(const ::testing::TestParamInfo<Workload>& param) {
  std::string name = name_of(param.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReducedPipeline,
                         ::testing::ValuesIn(kWorkloads), param_name);

TEST(Checks, TruncatedCheckpointLogFailsRecovery) {
  const Plan plan = make_plan(Workload::kHtfCkpt, Scale::kReduced, 1);
  RunOptions options;
  options.sabotage = Sabotage::kTruncateCkptLog;
  const RepResult rep = run_pipeline(plan, options);
  EXPECT_TRUE(check_failed(rep, "ckpt_recover"));
  EXPECT_GT(rep.counts.checkpoint.epochs_committed, 1u);
  EXPECT_LT(rep.counts.recovered_epoch, rep.counts.checkpoint.committed_epoch);
}

TEST(Checks, ReplayAndRecoveryRunWhereTheWorkloadHasThem) {
  const RepResult escat =
      run_pipeline(make_plan(Workload::kEscatStudy, Scale::kReduced, 1));
  EXPECT_NE(find_check(escat, "replay_operations"), nullptr);
  EXPECT_EQ(escat.counts.replay_ops, escat.counts.io_events);
  const RepResult htf =
      run_pipeline(make_plan(Workload::kHtfCkpt, Scale::kReduced, 1));
  EXPECT_NE(find_check(htf, "ckpt_recover"), nullptr);
  EXPECT_EQ(htf.counts.faults_injected, 2u);
  EXPECT_GT(htf.counts.recovery.retries, 0u);
}

TEST(Workloads, NamesRoundTrip) {
  for (const Workload w : kWorkloads) {
    EXPECT_EQ(workload_from_name(name_of(w)), w);
  }
  EXPECT_FALSE(workload_from_name("escat").has_value());
}

}  // namespace
}  // namespace perfbench

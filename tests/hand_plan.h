// Runs a hand-built logical plan through the optimizer and the physical
// compiler on an instance's cluster. AQL never translates to a left-outer
// join, so tests that need one build the plan directly.

#ifndef ASTERIX_TESTS_HAND_PLAN_H_
#define ASTERIX_TESTS_HAND_PLAN_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algebricks/physical.h"
#include "algebricks/rules.h"
#include "api/asterix.h"

namespace asterix {
namespace testing_util {

struct HandPlanRun {
  std::vector<adm::Value> values;  // sorted by the ADM total order
  std::string logical_plan;
  std::string job_plan;
};

// No secondary indexes: selects stay selects.
class NoIndexCatalog : public algebricks::RuleCatalog {
 public:
  const algebricks::CatalogDataset* FindDataset(
      const std::string&) const override {
    return nullptr;
  }
};

inline Result<HandPlanRun> RunHandPlan(
    api::AsterixInstance* inst, const algebricks::LogicalOpPtr& plan,
    const algebricks::OptimizerOptions& options) {
  NoIndexCatalog catalog;
  ASTERIX_ASSIGN_OR_RETURN(algebricks::LogicalOpPtr optimized,
                           algebricks::Optimize(plan, catalog, options));
  algebricks::PhysicalCompiler compiler(
      inst->cluster(), inst->txns(),
      [inst](const std::string& q) { return inst->FindDataset(q); },
      [](const std::string&, const std::function<Status(const adm::Value&)>&) {
        return Status::NotImplemented("no subplan scans in hand-built plans");
      },
      options);
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  ASTERIX_ASSIGN_OR_RETURN(hyracks::JobSpec job,
                           compiler.Compile(optimized, sink));
  auto stats = inst->cluster()->ExecuteJob(job);
  if (!stats.ok()) return stats.status();
  HandPlanRun run;
  run.logical_plan = optimized->ToString();
  run.job_plan = job.ToString();
  for (auto& t : *sink) run.values.push_back(std::move(t[0]));
  std::sort(run.values.begin(), run.values.end(),
            [](const adm::Value& a, const adm::Value& b) {
              return a.Compare(b) < 0;
            });
  return run;
}

}  // namespace testing_util
}  // namespace asterix

#endif  // ASTERIX_TESTS_HAND_PLAN_H_

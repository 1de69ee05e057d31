#ifndef ASTERIX_ALGEBRICKS_RULES_H_
#define ASTERIX_ALGEBRICKS_RULES_H_

#include <string>
#include <vector>

#include "algebricks/logical.h"

namespace asterix {
namespace algebricks {

/// What the optimizer knows about datasets when choosing access paths —
/// kept data-model-neutral (no storage dependency) per the Algebricks
/// layering.
struct CatalogIndex {
  enum class Kind { kBTree, kRTree, kKeyword, kNgram };
  std::string name;
  Kind kind = Kind::kBTree;
  std::vector<std::string> fields;
  size_t gram_length = 3;
};

struct CatalogDataset {
  std::string qualified_name;  // "Dataverse.Dataset"
  std::vector<std::string> pk_fields;
  std::vector<CatalogIndex> indexes;
};

class RuleCatalog {
 public:
  virtual ~RuleCatalog() = default;
  virtual const CatalogDataset* FindDataset(const std::string& qualified) const = 0;
};

/// The paper: AsterixDB has no cost-based optimizer; instead a set of
/// "safe" rules — (a) always use index-based access for selections when an
/// index exists, (b) always pick parallel hash joins for equijoins — plus
/// user hints for overrides. These switches expose the rules for the
/// ablation benches. Rule (b) still holds: every equijoin without a hint
/// is one hybrid hash join. The physical generator only picks which input
/// it hashes, the one with the clearly smaller row estimate.
struct OptimizerOptions {
  bool use_indexes = true;
  bool rewrite_group_aggregation = true;  // avoid materializing groups
  bool push_selects_down = true;
  bool fold_constants = true;
  /// Consulted by the physical generator (not a logical rewrite): split
  /// aggregates into local/global pairs (Figure 6).
  bool split_aggregation = true;
  /// Paper: "AsterixDB does not push limits into sort operations yet".
  bool push_limit_into_sort = false;
  /// Record the set of referenced record fields (and sargable constant
  /// ranges) on each data-source scan so columnar datasets materialize
  /// only the touched column pages. Never changes results.
  bool push_projection_into_scan = true;
  /// Consulted by the physical generator: lower filter/aggregate pipelines
  /// over columnar scans to typed-batch vector operators when every
  /// expression has a kernel. Semantics are interpreter-exact; turning this
  /// off forces the row-at-a-time operators everywhere.
  bool vectorized_execution = true;
};

/// Runs the rewrite pipeline over (a copy of) the plan.
Result<LogicalOpPtr> Optimize(const LogicalOpPtr& plan,
                              const RuleCatalog& catalog,
                              const OptimizerOptions& options);

/// Names of the rewrite rules, in application order (EXPLAIN/debugging).
std::vector<std::string> RuleNames();

}  // namespace algebricks
}  // namespace asterix

#endif  // ASTERIX_ALGEBRICKS_RULES_H_

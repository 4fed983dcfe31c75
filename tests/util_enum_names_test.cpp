#include "util/enum_names.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "app/barrier.hpp"
#include "check/scenario.hpp"
#include "cluster/policy.hpp"
#include "core/scenarios.hpp"
#include "hetero/setups.hpp"
#include "obs/decision_log.hpp"
#include "obs/rebalance_log.hpp"
#include "obs/share_log.hpp"
#include "obs/tuning_log.hpp"
#include "perturb/fault_injection.hpp"
#include "perturb/timeline.hpp"
#include "serve/dispatch.hpp"
#include "serve/server.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "topo/domains.hpp"
#include "util/log.hpp"
#include "workload/arrivals.hpp"

namespace speedbal {
namespace {

/// The contract of one table: every enumerator has a unique, non-empty
/// name that maps back to it; a value past the end prints "?"; an unknown
/// name is not found, and parsing it names every valid value in order.
template <class E, std::size_t N>
void check_table(const EnumNames<E, N>& table) {
  SCOPED_TRACE(table.what);
  EXPECT_NE(std::string(table.what), "");
  std::set<std::string> seen;
  std::string listed;
  for (std::size_t i = 0; i < N; ++i) {
    const auto e = static_cast<E>(i);
    const std::string name = table[e];
    EXPECT_NE(name, "");
    EXPECT_NE(name, "?");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(table.find(name), std::optional<E>(e)) << name;
    EXPECT_EQ(table.parse(name), e) << name;
    listed += (i == 0 ? "" : ", ") + name;
  }
  EXPECT_STREQ(table[static_cast<E>(N)], "?");
  EXPECT_EQ(table.find("no-such-name"), std::nullopt);
  EXPECT_EQ(table.joined(), listed);
  try {
    table.parse("no-such-name");
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_EQ(std::string(err.what()), "unknown " + std::string(table.what) +
                                           ": no-such-name (available: " +
                                           listed + ")");
  }
}

TEST(EnumNames, EveryTableRoundTripsAndListsItsNames) {
  check_table(obs::kPullReasonNames);
  check_table(obs::kRebalanceOutcomeNames);
  check_table(obs::kShareOutcomeNames);
  check_table(obs::kTuningOutcomeNames);
  check_table(kMigrationCauseNames);
  check_table(kTaskStateNames);
  check_table(kWaitModeNames);
  check_table(kWaitPolicyNames);
  check_table(kPolicyNames);
  check_table(scenarios::kSetupNames);
  check_table(hetero::kHeteroPolicyNames);
  check_table(kDomainLevelNames);
  check_table(perturb::kPerturbKindNames);
  check_table(perturb::kFaultOpNames);
  check_table(serve::kDispatchPolicyNames);
  check_table(serve::kIdleModeNames);
  check_table(workload::kArrivalKindNames);
  check_table(workload::kServiceKindNames);
  check_table(cluster::kClusterDispatchNames);
  check_table(check::kModeNames);
  check_table(check::kBrokenModeNames);
  check_table(kLogLevelNames);
}

TEST(EnumNames, ParseErrorNamesTheNounAndEveryValue) {
  try {
    serve::kDispatchPolicyNames.parse("fastest");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(),
                 "unknown dispatch policy: fastest (available: rr, "
                 "least-loaded, jsq, weighted)");
  }
}

}  // namespace
}  // namespace speedbal

#ifndef DCG_TESTS_COMMIT_HELPER_H_
#define DCG_TESTS_COMMIT_HELPER_H_

#include <functional>
#include <utility>

#include "server/command_service.h"

namespace dcg::test {

/// Adapts a `done(committed)` callback (null = none) to the WriteOutcome
/// callback `ReplicaSet::CommitWrite` takes. Tests that drive a bare
/// replica set commit straight on its primary with
/// `rs->CommitWrite(rs->primary_index(), c, body, concern, /*retry=*/{},
/// /*cost_scale=*/1.0, OnCommitted(done))` — no client, no network hop.
/// The adapter is never null, so a w:majority write always registers its
/// majority waiter.
inline std::function<void(const server::WriteOutcome&)> OnCommitted(
    std::function<void(bool committed)> done = nullptr) {
  return [done = std::move(done)](const server::WriteOutcome& outcome) {
    if (done) done(outcome.ok && outcome.committed);
  };
}

}  // namespace dcg::test

#endif  // DCG_TESTS_COMMIT_HELPER_H_

// Lint fixture: seeded `unknown-suppression` findings (3 active): allow()
// ids that are not in the check catalog suppress nothing.
#include <chrono>

namespace fixture {

inline double clocks() {
  int retired = 0;  // paraio-lint: allow(discarded-task)
  int typo = 0;     // paraio-lint: allow(wall-clok)
  // The known id still suppresses; only the misspelled one is reported.
  const auto a = std::chrono::steady_clock::now();  // paraio-lint: allow(wall-clock, lock-ordr)
  // Prose that spells the syntax is not a suppression: allow(id, ...)
  (void)retired;
  (void)typo;
  (void)a;
  return 0.0;
}

}  // namespace fixture

// Linked into every test executable: arms the engine's invariant auditor
// from COBRA_AUDIT before any test runs, as the benches do at startup, so
// `COBRA_AUDIT=2 ctest -L 'unit|integration'` checks every engine round of
// the suites (canonical order, bitmap health). Unset, nothing is armed
// and the suites run exactly as before. A test that sets its own level
// and resets it to 0 disarms the rest of its executable.

#include "core/audit.hpp"

namespace {

[[maybe_unused]] const int kAuditLevelFromEnv =
    cobra::core::audit::arm_from_env();

}  // namespace

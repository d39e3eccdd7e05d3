// The benchmark's workloads. Each builds its inputs from Options::seed,
// measures for about Options::seconds, checks the library's outputs and
// returns every metric it measured.
#pragma once

#include "common.h"

namespace perfbench {

/// `configure-geoi`: the paper's define -> sweep -> fit -> invert case
/// study, in-process, on the seeded 600-cab fleet.
[[nodiscard]] Result run_configure(const Options& opt);

/// `serve-steady` (churn = false) and `serve-churn` (churn = true): a
/// two-shard fleet over unix sockets driven by an open-loop generator.
[[nodiscard]] Result run_serve(const Options& opt, bool churn);

}  // namespace perfbench

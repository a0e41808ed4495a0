// The benchmark's workloads. Each fills `res` with its metrics, counts
// every operation it attempts and records run metadata in res.meta.
#pragma once

#include "perfbench/src/common.hpp"

namespace perfbench {

void run_solve(const Context& ctx, Result& res);
void run_serve(const Context& ctx, Result& res);
void run_dist(const Context& ctx, Result& res);

}  // namespace perfbench

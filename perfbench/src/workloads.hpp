#pragma once
// The benchmark's workloads.  Each checks every answer it gets, counts
// operations into the report, and adds the end-to-end metrics
// (Args::trace false) or the per-layer metrics (Args::trace true).

#include "common.hpp"

namespace perfbench {

/// designed-broadcast and designed-gossip (designed.cpp).
void run_designed(const Args& args, Report* report);

/// serve-mix (serve_mix.cpp).
void run_serve_mix(const Args& args, Report* report);

}  // namespace perfbench

// Umbrella header: the full public API of the paraio toolkit.
//
// Fine-grained headers remain available (and are preferred inside the
// library itself); this is the convenience include for applications.
#pragma once

// Simulation substrate.
#include "sim/channel.hpp"      // IWYU pragma: export
#include "sim/engine.hpp"       // IWYU pragma: export
#include "sim/random.hpp"       // IWYU pragma: export
#include "sim/sync.hpp"         // IWYU pragma: export
#include "sim/task.hpp"         // IWYU pragma: export
#include "sim/task_group.hpp"   // IWYU pragma: export

// Hardware models.
#include "hw/machine.hpp"       // IWYU pragma: export

// File systems.
#include "io/file.hpp"          // IWYU pragma: export
#include "pfs/pfs.hpp"          // IWYU pragma: export
#include "ppfs/ppfs.hpp"        // IWYU pragma: export

// Instrumentation and trace tooling.
#include "pablo/filter.hpp"     // IWYU pragma: export
#include "pablo/sddf.hpp"       // IWYU pragma: export
#include "pablo/summary.hpp"    // IWYU pragma: export

// Analysis.
#include "analysis/histogram.hpp"  // IWYU pragma: export
#include "analysis/op_stats.hpp"   // IWYU pragma: export
#include "analysis/pattern.hpp"    // IWYU pragma: export
#include "analysis/phases.hpp"     // IWYU pragma: export
#include "analysis/report.hpp"     // IWYU pragma: export
#include "analysis/survival.hpp"   // IWYU pragma: export
#include "analysis/tables.hpp"     // IWYU pragma: export
#include "analysis/timeline.hpp"   // IWYU pragma: export

// Applications and experiments.
#include "apps/escat.hpp"       // IWYU pragma: export
#include "apps/htf.hpp"         // IWYU pragma: export
#include "apps/render.hpp"      // IWYU pragma: export
#include "core/experiment.hpp"  // IWYU pragma: export
#include "core/report.hpp"      // IWYU pragma: export

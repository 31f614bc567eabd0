// Trace event records — the unit of data the whole characterization
// pipeline operates on.
//
// The record is made at the io::File boundary (io/event.hpp, the one
// capture point); these are its names on the Pablo side of the pipeline.
#pragma once

#include "io/event.hpp"

namespace paraio::pablo {

using io::IoEvent;
using io::kOpCount;
using io::Op;
using io::to_string;
using io::TraceSink;

}  // namespace paraio::pablo

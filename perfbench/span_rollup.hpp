// Per-span-name self-time rollup of the events buffered in obs::Trace.
//
// obs::Trace exposes its buffers only through the Chrome trace-event
// export, so the rollup parses that export as it is written (one event per
// line) instead of materializing the whole JSON document.  A span's self
// time is its duration minus the durations of the spans nested directly in
// it on the same thread.
#pragma once

#include <map>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

struct SpanTotals {
  long count = 0;       ///< Completed spans of this name.
  double self_s = 0.0;  ///< Summed self time, seconds.
};

/// Rolls up every completed span in `trace`; throws std::runtime_error on
/// an event line it cannot parse or an end without a matching begin.
[[nodiscard]] std::map<std::string, SpanTotals> rollup_spans(
    const ww::obs::Trace& trace);

}  // namespace perfbench

// Live-heap meter: the program's global operator new/delete are replaced
// (heap_meter.cpp) by versions that count live bytes, so the benchmark can
// read the peak heap of one scenario. Unlike the process's peak resident
// set, the figure does not depend on how the allocator reuses or returns
// pages, so it is the same for the same scenario in any process.
#pragma once

#include <cstddef>

namespace perfbench {

/// Starts a new peak: the peak is set to the bytes live now.
void heap_reset_peak();

/// Most bytes live at once since the last heap_reset_peak().
std::size_t heap_peak_bytes();

}  // namespace perfbench

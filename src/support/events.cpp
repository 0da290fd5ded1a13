#include "support/events.hpp"

namespace fhp::perf {

std::string_view event_name(Event e) noexcept {
  switch (e) {
    case Event::kCycles: return "PAPI_TOT_CYC";
    case Event::kInstructions: return "PAPI_TOT_INS";
    case Event::kVectorOps: return "PAPI_VEC_INS";
    case Event::kDtlbMisses: return "PAPI_TLB_DM";
    case Event::kTlbWalkCycles: return "TLB_WALK_CYC";
    case Event::kBytesRead: return "MEM_BYTES_RD";
    case Event::kBytesWritten: return "MEM_BYTES_WR";
    case Event::kL1Misses: return "PAPI_L1_DCM";
    case Event::kL2Misses: return "PAPI_L2_DCM";
    case Event::kWallNanos: return "WALL_NS";
  }
  return "UNKNOWN";
}

}  // namespace fhp::perf

/// \file lane.hpp
/// \brief Lane identity and the parallel-region capability model.
///
/// Two primitives live here, at the bottom of the layering DAG, so that
/// every layer above — the span reduction, obs span rings, the worker
/// pool itself — can share one notion of "which lane am I" and one
/// statically checkable notion of "am I allowed to write lane-private
/// data right now":
///
///   1. `lane_id()` / `kMaxLanes`: the executing thread's lane. Workers
///      of the fhp::par pool set it once at startup; every other thread
///      (including the region's caller, which participates as lane 0)
///      reads the default of 0. `par::lane()` is a forwarding alias.
///
///   2. The *region capability* (`region_cap`): a phantom capability for
///      Clang's `-Wthread-safety` analysis that models the per-lane
///      writer role. Functions that write lane-private state — span-ring
///      pushes, block kernels — are annotated FHP_REQUIRES_REGION;
///      readers that are only safe when the lanes are quiescent, and the
///      counters, which only the serial replay writes — snapshot(),
///      publish(), timeline export, sampler drains — are annotated
///      FHP_EXCLUDES_REGION.
///      `par::parallel_for` itself is FHP_EXCLUDES_REGION, which turns a
///      nested region into a compile-time error instead of a runtime
///      ConfigError.
///
/// The capability is deliberately *phantom*: no runtime object backs it
/// and RegionWitness compiles to nothing. Who legitimately holds the
/// writer role:
///   - pool lanes inside a `parallel_for` region (the pool's RegionGuard
///     acquires the capability for the region's lambda bodies);
///   - the single driver thread *between* regions — it is lane 0 and the
///     only thread running, so serial single-writer sites (a SpanScope
///     closing on the driver thread, the serial flux-correction loop)
///     assert the role with a local RegionWitness plus a comment
///     justifying the claim. A witness without such a justification is a bug.
///
/// See DESIGN.md "Static analysis model" for the full capability table.

#pragma once

#include "support/thread_annotations.hpp"

namespace fhp {

/// Hard ceiling on the number of lanes (and thus span rings and per-lane
/// scratch). `par::kMaxLanes` aliases this.
inline constexpr int kMaxLanes = 64;

namespace detail {
/// Lane of the executing thread. Pool workers overwrite this once at
/// startup; every other thread keeps the default of 0. `constinit` is
/// load-bearing: it lets every TU access the TLS slot directly instead of
/// going through the Itanium-ABI thread wrapper for possibly-dynamically-
/// initialized externs (whose weak `_ZTH` dance UBSan flags as a null
/// load when the wrapper is elided across TUs).
extern thread_local constinit int t_lane;

/// Bind the calling thread to \p lane for its lifetime (pool workers
/// only; the driver thread stays lane 0).
void bind_lane(int lane) noexcept;
}  // namespace detail

/// Lane of the calling thread: 0 for the driver thread (and all serial
/// code), `1..lanes-1` inside pool workers during a region.
[[nodiscard]] inline int lane_id() noexcept { return detail::t_lane; }

/// The phantom capability type behind FHP_REQUIRES_REGION /
/// FHP_EXCLUDES_REGION (see file comment). Carries no state; exists only
/// for the thread-safety analysis.
class FHP_CAPABILITY("region") RegionCap {};

/// The single program-wide region capability object. Named in
/// annotations; never touched at runtime.
inline RegionCap region_cap;

/// Function writes lane-private data: caller must hold the per-lane
/// writer role (be a region lambda body, or a justified serial witness).
#define FHP_REQUIRES_REGION FHP_REQUIRES(::fhp::region_cap)

/// Function reads across lanes (or reconfigures them): caller must NOT
/// hold the writer role — lanes have to be quiescent.
#define FHP_EXCLUDES_REGION FHP_EXCLUDES(::fhp::region_cap)

/// RAII assertion of the per-lane writer role, visible to the
/// thread-safety analysis and free at runtime. Construct as the first
/// statement of a parallel-region lambda body; every serial use must
/// carry a comment justifying why the calling thread is the sole writer.
class FHP_SCOPED_CAPABILITY RegionWitness {
 public:
  RegionWitness() FHP_ACQUIRE(region_cap) {}
  ~RegionWitness() FHP_RELEASE() {}
  RegionWitness(const RegionWitness&) = delete;
  RegionWitness& operator=(const RegionWitness&) = delete;
};

}  // namespace fhp

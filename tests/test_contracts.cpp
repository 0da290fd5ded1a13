/// \file test_contracts.cpp
/// \brief The debug contract layer: FHP_PRECONDITION / FHP_ASSERT and
/// their use at the mem/mesh API boundaries.
///
/// Contract violations throw (fhp::ContractViolation / fhp::AssertionError)
/// instead of aborting, so these are exception-based "death tests".

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>

#include "mem/allocator.hpp"
#include "mem/mapped_region.hpp"
#include "mem/page_size.hpp"
#include "mesh/config.hpp"
#include "mesh/unk.hpp"
#include "rt/runtime.hpp"
#include "support/contracts.hpp"
#include "tlb/machine.hpp"
#include "tlb/trace.hpp"

namespace fhp {
namespace {

// ------------------------------------------------------------- the macros

TEST(Contracts, PreconditionPassesWhenTrue) {
  EXPECT_NO_THROW(FHP_PRECONDITION(1 + 1 == 2, "arithmetic works"));
  EXPECT_NO_THROW(FHP_ASSERT(true, "trivially fine"));
}

TEST(Contracts, PreconditionThrowsContractViolation) {
  EXPECT_THROW(FHP_PRECONDITION(false, "boom"), ContractViolation);
  // A ContractViolation is a ConfigError: the caller misused the API.
  EXPECT_THROW(FHP_PRECONDITION(false, "boom"), ConfigError);
}

TEST(Contracts, AssertThrowsAssertionError) {
  EXPECT_THROW(FHP_ASSERT(false, "boom"), AssertionError);
  // An AssertionError is an InternalError: flashhp itself is buggy.
  EXPECT_THROW(FHP_ASSERT(false, "boom"), InternalError);
}

TEST(Contracts, MessageCarriesExpressionAndContext) {
  try {
    FHP_PRECONDITION(2 + 2 == 5, "ingsoc arithmetic");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("ingsoc arithmetic"), std::string::npos);
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos);
  }
}

#if FHP_CONTRACTS_ENABLED
TEST(Contracts, EnabledInThisBuild) {
  SUCCEED() << "contracts are on (FLASHHP_CONTRACTS=ON)";
}
#endif

// ------------------------------------------ HugeBuffer boundary contracts

// count * sizeof(T) must not overflow size_t into a tiny wrapped-around
// allocation. The check is always on.
TEST(HugeBufferContracts, OverflowThrows) {
  mem::PagePool pool;
  const std::size_t huge_count =
      std::numeric_limits<std::size_t>::max() / sizeof(double) + 1;
  EXPECT_THROW(
      mem::HugeBuffer<double>(huge_count, mem::HugePolicy::kNone, pool),
      ConfigError);
}

// --------------------------------------- mapped-region boundary contracts

TEST(MappedRegionContracts, ZeroBytesViolatesContract) {
  mem::MapRequest req;
  req.bytes = 0;
  EXPECT_THROW(mem::MappedRegion{req}, ContractViolation);
}

TEST(MappedRegionContracts, NonPowerOfTwoHugetlbPreferenceViolates) {
  mem::MapRequest req;
  req.bytes = 1u << 20;
  req.policy = mem::HugePolicy::kHugetlbfs;
  req.hugetlb_page = mem::kPage2M + 1;
  EXPECT_THROW(mem::MappedRegion{req}, ContractViolation);
  req.hugetlb_page = 0;  // a hugetlbfs request must name its page size
  EXPECT_THROW(mem::MappedRegion{req}, ContractViolation);
}

TEST(MappedRegionContracts, ContainsTracksTheMappedRange) {
  mem::MapRequest req;
  req.bytes = 1u << 20;
  req.policy = mem::HugePolicy::kNone;
  mem::MappedRegion region(req);
  const auto* base = static_cast<const std::byte*>(region.data());
  EXPECT_TRUE(region.contains(base, 1));
  EXPECT_TRUE(region.contains(base, region.size()));
  EXPECT_TRUE(region.contains(base + region.size() - 1, 1));
  EXPECT_FALSE(region.contains(base + region.size(), 1));
  EXPECT_FALSE(region.contains(base, region.size() + 1));
  EXPECT_FALSE(region.contains(base - 1, 1));
  mem::MappedRegion moved(std::move(region));
  EXPECT_FALSE(region.contains(base, 1));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.contains(base, 1));
}

// ----------------------------------------------- mesh boundary contracts

class UnkSweepContracts : public ::testing::Test {
 protected:
  UnkSweepContracts()
      : machine_(),
        tracer_(&machine_),
        unk_(config(), mem::HugePolicy::kNone, runtime_.layout(),
             runtime_.page_pool()) {}

  static mesh::MeshConfig config() {
    mesh::MeshConfig c;
    c.ndim = 2;
    c.nxb = 8;
    c.nyb = 8;
    c.maxblocks = 4;
    c.validate();
    return c;
  }

  rt::Runtime runtime_;
  tlb::Machine machine_;
  tlb::Tracer tracer_;
  mesh::UnkContainer unk_;
};

TEST_F(UnkSweepContracts, ValidSweepRuns) {
  const auto c = config();
  EXPECT_NO_THROW(unk_.trace_sweep(tracer_, 0, c.ilo(), c.ihi(), c.jlo(),
                                   c.jhi(), c.klo(), c.khi(), 4, 2));
}

TEST_F(UnkSweepContracts, BadAxisViolatesContract) {
  EXPECT_THROW(
      unk_.trace_sweep_axis(tracer_, 0, 3, 0, 1, 0, 1, 0, 1, 1, 0),
      ContractViolation);
}

TEST_F(UnkSweepContracts, BlockOutOfRangeViolatesContract) {
  EXPECT_THROW(unk_.trace_sweep(tracer_, 4, 0, 1, 0, 1, 0, 1, 1, 0),
               ContractViolation);
  EXPECT_THROW(unk_.trace_sweep(tracer_, -1, 0, 1, 0, 1, 0, 1, 1, 0),
               ContractViolation);
}

TEST_F(UnkSweepContracts, RangeBeyondBlockExtentViolatesContract) {
  EXPECT_THROW(
      unk_.trace_sweep(tracer_, 0, 0, unk_.ni() + 1, 0, 1, 0, 1, 1, 0),
      ContractViolation);
}

TEST_F(UnkSweepContracts, TooManyVariablesViolatesContract) {
  EXPECT_THROW(
      unk_.trace_sweep(tracer_, 0, 0, 1, 0, 1, 0, 1, unk_.nvar() + 1, 0),
      ContractViolation);
}

TEST_F(UnkSweepContracts, DisabledTracerSkipsContractChecks) {
  // The enabled() fast-path exits before the contracts: a disabled tracer
  // must stay free even when handed garbage.
  tlb::Tracer off;
  EXPECT_NO_THROW(unk_.trace_sweep_axis(off, -5, 7, 0, 99, 0, 99, 0, 99,
                                        1000, 1000));
}

}  // namespace
}  // namespace fhp

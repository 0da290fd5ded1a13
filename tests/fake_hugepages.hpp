/// \file fake_hugepages.hpp
/// \brief FakeHugepagesRoot: a temporary hugetlb sysfs tree for one test.

#pragma once

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "support/error.hpp"

namespace fhp::test {

/// A temporary directory laid out like /sys/kernel/mm/hugepages, holding
/// no pool until set() writes one: the tree a PagePool reads at each
/// hugetlbfs decision and the target of hugeadm's writes, so the tests
/// never read or resize the host's pools.
class FakeHugepagesRoot {
 public:
  FakeHugepagesRoot() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "fhp_hugepages_XXXXXX")
            .string();
    FHP_CHECK(::mkdtemp(templ.data()) != nullptr, "mkdtemp failed");
    root_ = templ;
  }
  ~FakeHugepagesRoot() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  FakeHugepagesRoot(const FakeHugepagesRoot&) = delete;
  FakeHugepagesRoot& operator=(const FakeHugepagesRoot&) = delete;

  /// Write the pool of \p page_bytes pages: its nr, free, resv and (zero)
  /// surplus counts. Calling it again rewrites them, the way the kernel's
  /// counts move under a running program.
  void set(std::size_t page_bytes, std::size_t nr, std::size_t free,
           std::size_t resv = 0) {
    const std::filesystem::path dir = pool_dir(page_bytes);
    std::filesystem::create_directories(dir);
    std::ofstream(dir / "nr_hugepages") << nr << '\n';
    std::ofstream(dir / "free_hugepages") << free << '\n';
    std::ofstream(dir / "resv_hugepages") << resv << '\n';
    std::ofstream(dir / "surplus_hugepages") << 0 << '\n';
  }

  /// The pool's nr_hugepages as the file reads now.
  [[nodiscard]] std::size_t nr_hugepages(std::size_t page_bytes) const {
    std::size_t n = 0;
    std::ifstream(pool_dir(page_bytes) / "nr_hugepages") >> n;
    return n;
  }

  [[nodiscard]] std::string root() const { return root_.string(); }

 private:
  [[nodiscard]] std::filesystem::path pool_dir(std::size_t page_bytes) const {
    return root_ / ("hugepages-" + std::to_string(page_bytes >> 10) + "kB");
  }
  std::filesystem::path root_;
};

}  // namespace fhp::test

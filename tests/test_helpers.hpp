// Shared fixtures: tiny hand-built designs for the db/legalizer tests, and
// a private scratch directory per test.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "db/design.hpp"

namespace mclg::testing {

/// 40x10 core, three types: T0 single (2x1), T1 double (3x2, parity 0),
/// T2 triple (4x3). No fences, rails, or edge spacing.
inline Design smallDesign() {
  Design d;
  d.name = "small";
  d.numSitesX = 40;
  d.numRows = 10;
  d.siteWidthFactor = 0.5;
  CellType single{"T0", 2, 1, -1, 0, 0, {}};
  CellType dbl{"T1", 3, 2, 0, 0, 0, {}};
  CellType triple{"T2", 4, 3, -1, 0, 0, {}};
  d.types = {single, dbl, triple};
  return d;
}

/// Add a movable cell with its GP; returns the id.
inline CellId addCell(Design& d, TypeId type, double gpX, double gpY,
                      FenceId fence = kDefaultFence) {
  Cell cell;
  cell.type = type;
  cell.gpX = gpX;
  cell.gpY = gpY;
  cell.fence = fence;
  d.cells.push_back(cell);
  return d.numCells() - 1;
}

/// Add a fixed blockage of the given type at (x, y); returns the id.
inline CellId addFixed(Design& d, TypeId type, std::int64_t x,
                       std::int64_t y) {
  Cell cell;
  cell.type = type;
  cell.fixed = true;
  cell.placed = true;
  cell.x = x;
  cell.y = y;
  cell.gpX = static_cast<double>(x);
  cell.gpY = static_cast<double>(y);
  d.cells.push_back(cell);
  return d.numCells() - 1;
}

/// An empty directory owned by the running test, under ::testing::TempDir().
/// gtest_discover_tests runs every test as its own process, so tests that
/// `ctest -j` runs side by side must not share file names in one directory.
inline std::string uniqueTestDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mclg_" + std::string(info->test_suite_name()) + "." + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace mclg::testing

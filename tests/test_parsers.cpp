#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gen/benchmark_gen.hpp"
#include "parsers/def_parser.hpp"
#include "parsers/lef_parser.hpp"
#include "parsers/simple_format.hpp"
#include "test_helpers.hpp"

namespace mclg {
namespace {

using testing::addCell;
using testing::smallDesign;

Design richDesign() {
  Design d = smallDesign();
  d.name = "rich";
  d.numEdgeClasses = 2;
  d.edgeSpacingTable = {0, 1, 1, 2};
  d.types[0].pins.push_back({1, {2, 1, 4, 3}});
  d.types[0].pins.push_back({2, {8, 2, 10, 4}});
  d.fences.push_back({"f1", {{10, 2, 20, 6}}});
  d.hRails.push_back({2, 30, 34});
  d.vRails.push_back({3, 79, 81});
  d.ioPins.push_back({1, {40, 8, 44, 12}});
  const CellId a = addCell(d, 0, 3.25, 4.5);
  const CellId b = addCell(d, 1, 12.0, 3.0, 1);
  d.cells[b].placed = true;
  d.cells[b].x = 12;
  d.cells[b].y = 2;
  Net net;
  net.conns = {{a, 0}, {b, 0}};
  // b is type 1 with no pins; use cell a twice instead for a valid net.
  net.conns = {{a, 0}, {a, 1}};
  d.nets.push_back(net);
  return d;
}

TEST(SimpleFormat, RoundTripPreservesEverything) {
  const Design d = richDesign();
  const std::string text = writeSimpleFormat(d);
  std::string error;
  const auto parsed = readSimpleFormat(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name, d.name);
  EXPECT_EQ(parsed->numSitesX, d.numSitesX);
  EXPECT_EQ(parsed->numRows, d.numRows);
  EXPECT_DOUBLE_EQ(parsed->siteWidthFactor, d.siteWidthFactor);
  EXPECT_EQ(parsed->numEdgeClasses, d.numEdgeClasses);
  EXPECT_EQ(parsed->edgeSpacingTable, d.edgeSpacingTable);
  ASSERT_EQ(parsed->numTypes(), d.numTypes());
  for (int t = 0; t < d.numTypes(); ++t) {
    EXPECT_EQ(parsed->types[t].name, d.types[t].name);
    EXPECT_EQ(parsed->types[t].width, d.types[t].width);
    EXPECT_EQ(parsed->types[t].height, d.types[t].height);
    EXPECT_EQ(parsed->types[t].parity, d.types[t].parity);
    ASSERT_EQ(parsed->types[t].pins.size(), d.types[t].pins.size());
    for (std::size_t p = 0; p < d.types[t].pins.size(); ++p) {
      EXPECT_EQ(parsed->types[t].pins[p].layer, d.types[t].pins[p].layer);
      EXPECT_EQ(parsed->types[t].pins[p].rect, d.types[t].pins[p].rect);
    }
  }
  ASSERT_EQ(parsed->numFences(), d.numFences());
  EXPECT_EQ(parsed->fences[1].rects, d.fences[1].rects);
  ASSERT_EQ(parsed->hRails.size(), d.hRails.size());
  EXPECT_EQ(parsed->hRails[0].yFineLo, d.hRails[0].yFineLo);
  ASSERT_EQ(parsed->vRails.size(), d.vRails.size());
  ASSERT_EQ(parsed->ioPins.size(), d.ioPins.size());
  EXPECT_EQ(parsed->ioPins[0].rect, d.ioPins[0].rect);
  ASSERT_EQ(parsed->numCells(), d.numCells());
  for (CellId c = 0; c < d.numCells(); ++c) {
    EXPECT_EQ(parsed->cells[c].type, d.cells[c].type);
    EXPECT_DOUBLE_EQ(parsed->cells[c].gpX, d.cells[c].gpX);
    EXPECT_DOUBLE_EQ(parsed->cells[c].gpY, d.cells[c].gpY);
    EXPECT_EQ(parsed->cells[c].fence, d.cells[c].fence);
    EXPECT_EQ(parsed->cells[c].placed, d.cells[c].placed);
    EXPECT_EQ(parsed->cells[c].x, d.cells[c].x);
  }
  ASSERT_EQ(parsed->nets.size(), d.nets.size());
  EXPECT_EQ(parsed->nets[0].conns.size(), d.nets[0].conns.size());
}

TEST(SimpleFormat, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(readSimpleFormat("", &error).has_value());
  EXPECT_FALSE(readSimpleFormat("MCLG 2\nEND\n", &error).has_value());
  EXPECT_FALSE(readSimpleFormat("MCLG 1\nBOGUS x\nEND\n", &error).has_value());
  EXPECT_FALSE(
      readSimpleFormat("MCLG 1\nCELL 0 0 0 0 0 0 0 0\nEND\n", &error)
          .has_value());  // cell before any TYPE
  EXPECT_FALSE(readSimpleFormat("MCLG 1\nCORE 10 10 0.5\n", &error)
                   .has_value());  // missing END
}

TEST(SimpleFormat, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "MCLG 1\n# a comment\n\nDESIGN x\nCORE 10 10 0.5\nEND\n";
  const auto parsed = readSimpleFormat(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "x");
}

// A minimal valid design; each table row below edits one line of it.
// Lines: 1 MCLG, 2 DESIGN, 3 CORE, 4 EDGECLASSES, 5 TYPE, 6 PIN, 7 CELL,
// 8 NET, 9 END.
const std::vector<std::string> kBaseLines = {
    "MCLG 1",
    "DESIGN t",
    "CORE 20 10 0.5",
    "EDGECLASSES 1",
    "TYPE A 2 1 -1 0 0 1",
    "PIN 1 0 0 1 1",
    "CELL 0 1.5 2.5 0 0 1 3 4",
    "NET 1 0 0",
    "END",
};

std::string joinLines(const std::vector<std::string>& lines,
                      const char* eol = "\n") {
  std::string text;
  for (const auto& line : lines) text += line + eol;
  return text;
}

/// The base text with line `lineNo` (1-based) replaced by `replacement`,
/// which may span several lines or be empty (the line is dropped).
std::string withLine(int lineNo, const std::string& replacement) {
  std::string text;
  for (int i = 0; i < static_cast<int>(kBaseLines.size()); ++i) {
    if (i + 1 == lineNo) {
      if (!replacement.empty()) text += replacement + "\n";
    } else {
      text += kBaseLines[i] + "\n";
    }
  }
  return text;
}

struct ReaderRow {
  const char* name;
  std::string text;
  bool accepted;
  int errorLine = 0;         // rejected rows: the reported line
  const char* message = "";  // rejected rows: ParseError::message
  std::function<void(const Design&)> check = {};  // accepted rows
};

// The reader's lexical rules, one row each. Recorded on the stream-based
// reader (std::getline + operator>>) that the one-pass reader replaced; the
// one-pass reader must agree row for row.
std::vector<ReaderRow> readerRows() {
  const auto cellY = [](std::int64_t y) {
    return [y](const Design& d) { EXPECT_EQ(d.cells[0].y, y); };
  };
  const auto cellGp = [](double x, double y) {
    return [x, y](const Design& d) {
      EXPECT_EQ(d.cells[0].gpX, x);
      EXPECT_EQ(d.cells[0].gpY, y);
    };
  };
  return {
      {"base", joinLines(kBaseLines), true},
      {"crlf line ends", joinLines(kBaseLines, "\r\n"), true, 0, "",
       cellY(4)},
      {"tabs between fields", withLine(7, "CELL\t0\t1.5\t2.5\t0\t0\t1\t3\t4"),
       true, 0, "", cellY(4)},
      {"vertical tab and form feed are spaces",
       withLine(7, "CELL 0\v1.5\f2.5 0 0 1 3 4"), true, 0, "",
       cellGp(1.5, 2.5)},
      {"leading spaces", withLine(7, "   CELL 0 1.5 2.5 0 0 1 3 4"), true},
      {"comment mid-line", withLine(7, "CELL 0 1.5 2.5 0 0 1 3 4 # note"),
       true},
      {"comment cuts fields", withLine(7, "CELL 0 1.5 2.5 0 0 1 3 # 4"),
       false, 7, "bad CELL"},
      {"comment and blank lines", withLine(4, "# c\n\n  \t\nEDGECLASSES 1"),
       true},
      {"extra tokens after the last field",
       withLine(7, "CELL 0 1.5 2.5 0 0 1 3 4 extra 99"), true, 0, "",
       cellY(4)},
      {"trailing garbage on the last field",
       withLine(7, "CELL 0 1.5 2.5 0 0 1 3 4xyz"), true, 0, "", cellY(4)},
      {"trailing garbage on a middle field",
       withLine(7, "CELL 0 1.5xyz 2.5 0 0 1 3 4"), false, 7, "bad CELL"},
      {"a number ends where it cannot continue",
       withLine(7, "CELL 0 1.5-2.5 0 0 1 3 4"), true, 0, "",
       cellGp(1.5, -2.5)},
      {"plus signs", withLine(7, "CELL +0 +1.5 2.5 0 0 +1 3 +4"), true, 0,
       "", [](const Design& d) {
         EXPECT_EQ(d.cells[0].gpX, 1.5);
         EXPECT_EQ(d.cells[0].y, 4);
         EXPECT_TRUE(d.cells[0].placed);
       }},
      {"plus then minus", withLine(7, "CELL 0 +-1.5 2.5 0 0 1 3 4"), false,
       7, "bad CELL"},
      {"lone sign", withLine(7, "CELL 0 - 2.5 0 0 1 3 4"), false, 7,
       "bad CELL"},
      {"decimal forms", withLine(7, "CELL 0 .5 5. 0 0 1 3 4"), true, 0, "",
       cellGp(0.5, 5.0)},
      {"exponent forms", withLine(7, "CELL 0 1e0 2.5E+0 0 0 1 3 4"), true, 0,
       "", cellGp(1.0, 2.5)},
      {"negative exponent", withLine(7, "CELL 0 25e-1 -0.0 0 0 1 3 4"), true,
       0, "", [](const Design& d) {
         EXPECT_EQ(d.cells[0].gpX, 2.5);
         EXPECT_TRUE(std::signbit(d.cells[0].gpY));
       }},
      {"underflow reads as zero", withLine(7, "CELL 0 1e-400 2.5 0 0 1 3 4"),
       true, 0, "", cellGp(0.0, 2.5)},
      {"overflow", withLine(7, "CELL 0 1e400 2.5 0 0 1 3 4"), false, 7,
       "bad CELL"},
      {"exponent without digits", withLine(7, "CELL 0 1e 2.5 0 0 1 3 4"),
       false, 7, "bad CELL"},
      {"lone decimal point", withLine(7, "CELL 0 . 2.5 0 0 1 3 4"), false, 7,
       "bad CELL"},
      {"inf", withLine(7, "CELL 0 inf 2.5 0 0 1 3 4"), false, 7, "bad CELL"},
      {"nan", withLine(7, "CELL 0 nan 2.5 0 0 1 3 4"), false, 7, "bad CELL"},
      {"hex float", withLine(7, "CELL 0 0x1p1 2.5 0 0 1 3 4"), false, 7,
       "bad CELL"},
      {"decimal in an int field", withLine(7, "CELL 0 1.5 2.5 3.0 0 1 3 4"),
       false, 7, "bad CELL"},
      {"int overflow", withLine(7, "CELL 0 1.5 2.5 2147483648 0 1 3 4"),
       false, 7, "bad CELL"},
      {"int64 overflow",
       withLine(7, "CELL 0 1.5 2.5 0 0 1 9223372036854775808 4"), false, 7,
       "bad CELL"},
      {"missing field", withLine(7, "CELL 0 1.5 2.5 0 0 1 3"), false, 7,
       "bad CELL"},
      // A negative count wraps to a huge one, so the reader takes the
      // next line for a PIN and rejects it there.
      {"negative pin count",
       withLine(5, "TYPE A 2 1 -1 0 0 -1\nCELL 0 1.5 2.5 0 0 1 3 4"), false,
       6, "bad PIN"},
      {"NET with a negative count", withLine(8, "NET -2 0 0"), false, 8,
       "truncated NET"},
      {"NET list short", withLine(8, "NET 2 0 0"), false, 8,
       "truncated NET"},
      {"DESIGN without a name", withLine(2, "DESIGN"), true, 0, "",
       [](const Design& d) { EXPECT_EQ(d.name, ""); }},
      {"text after END", joinLines(kBaseLines) + "garbage 1 2\nTYPE\n", true},
      {"no newline at the end",
       joinLines(kBaseLines).substr(0, joinLines(kBaseLines).size() - 1),
       true},
      {"comment line inside a PIN list",
       withLine(5, "TYPE A 2 1 -1 0 0 1\n# pins"), false, 6, "bad PIN"},
      {"PIN list cut by the end of the text", "MCLG 1\nTYPE A 2 1 -1 0 0 1",
       false, 2, "truncated PIN list"},
      {"unknown keyword", withLine(4, "EDGECLASES 1"), false, 4,
       "unknown keyword"},
      {"keyword with a NUL byte",
       withLine(4, std::string("EDGE\0CLASSES 1", 14)), false, 4,
       "unknown keyword"},
      {"version 2", withLine(1, "MCLG 2"), false, 1, "unsupported version"},
      {"version with a suffix", withLine(1, "MCLG 1abc"), true},
      {"missing header", withLine(1, ""), false, 1, "missing MCLG header"},
      {"missing END", withLine(9, ""), false, 8, "missing END"},
  };
}

TEST(SimpleFormat, ReaderLexicalRules) {
  for (const auto& row : readerRows()) {
    SCOPED_TRACE(row.name);
    ParseError error;
    const auto parsed = readSimpleFormat(row.text, &error);
    ASSERT_EQ(parsed.has_value(), row.accepted) << error.str();
    if (row.accepted) {
      if (row.check) row.check(*parsed);
    } else {
      EXPECT_EQ(error.line, row.errorLine) << error.str();
      EXPECT_EQ(error.message, row.message) << error.str();
    }
  }
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

GenSpec writerSpec(std::uint64_t seed) {
  GenSpec spec;
  spec.cellsPerHeight = {120, 20, 8, 4};
  spec.density = 0.6;
  spec.numFences = 2;
  spec.numBlockages = 2;
  spec.numIoPins = 40;
  spec.seed = seed;
  return spec;
}

/// `design` with every movable cell given a legal-looking position derived
/// from its GP, so the writer's placed-cell fields are exercised too.
Design withPositions(Design design) {
  for (auto& cell : design.cells) {
    if (cell.fixed) continue;
    const CellType& type = design.types[cell.type];
    cell.placed = true;
    cell.x = std::clamp<std::int64_t>(std::llround(cell.gpX), 0,
                                      design.numSitesX - type.width);
    cell.y = std::clamp<std::int64_t>(std::llround(cell.gpY), 0,
                                      design.numRows - type.height);
  }
  return design;
}

TEST(SimpleFormat, WriteReadWriteIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const Design generated = generate(writerSpec(seed));
    ASSERT_FALSE(generated.hRails.empty());
    ASSERT_FALSE(generated.ioPins.empty());
    ASSERT_GT(generated.numFences(), 1);
    for (const Design& design : {generated, withPositions(generated)}) {
      const std::string text = writeSimpleFormat(design);
      std::string error;
      const auto parsed = readSimpleFormat(text, &error);
      ASSERT_TRUE(parsed.has_value()) << error;
      EXPECT_EQ(writeSimpleFormat(*parsed), text);
    }
  }
}

TEST(SimpleFormat, WrittenBytesArePinned) {
  // Captured from the stream-based writer (precision 17) that the
  // to_chars writer replaced; any change to the written text fails here.
  const std::string text =
      writeSimpleFormat(withPositions(generate(writerSpec(11))));
  EXPECT_EQ(text.size(), 11523u);
  EXPECT_EQ(fnv1a(text), 5077757393109102816ull);
}

TEST(SimpleFormat, DoublesRoundTripBitExact) {
  const double values[] = {0.1,
                           1e-310,
                           -0.0,
                           9007199254740993.0,  // 2^53 + 1 rounds to 2^53
                           std::nextafter(9007199254740992.0, 1e300),
                           123456789.123456789,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    SCOPED_TRACE(v);
    Design d = testing::smallDesign();
    addCell(d, 0, v, -v);
    const std::string text = writeSimpleFormat(d);
    char expected[64];
    std::snprintf(expected, sizeof expected, "CELL 0 %.17g %.17g ", v, -v);
    EXPECT_NE(text.find(expected), std::string::npos) << text;
    std::string error;
    const auto parsed = readSimpleFormat(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->cells[0].gpX),
              std::bit_cast<std::uint64_t>(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->cells[0].gpY),
              std::bit_cast<std::uint64_t>(-v));
  }
}

// A pipe has no size to read up front, so loadDesign reads it to its end in
// growing chunks; the text here is larger than the first chunk.
TEST(SimpleFormat, LoadDesignReadsAPipe) {
  GenSpec spec = writerSpec(3);
  spec.cellsPerHeight = {1500, 100, 0, 0};
  const Design design = generate(spec);
  const std::string text = writeSimpleFormat(design);
  ASSERT_GT(text.size(), 1u << 17);
  const std::string path = testing::uniqueTestDir() + "/design.fifo";
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] { std::ofstream(path) << text; });
  std::string error;
  const auto loaded = loadDesign(path, &error);
  writer.join();
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(writeSimpleFormat(*loaded), text);
}

TEST(Lef, RoundTripLibrary) {
  const Design d = richDesign();
  const std::string lef = writeLef(d, 0.2);
  std::string error;
  const auto lib = readLef(lef, &error);
  ASSERT_TRUE(lib.has_value()) << error;
  EXPECT_NEAR(lib->siteWidthFactor(), d.siteWidthFactor, 1e-9);
  ASSERT_EQ(lib->types.size(), d.types.size());
  for (std::size_t t = 0; t < d.types.size(); ++t) {
    EXPECT_EQ(lib->types[t].name, d.types[t].name);
    EXPECT_EQ(lib->types[t].width, d.types[t].width);
    EXPECT_EQ(lib->types[t].height, d.types[t].height);
    ASSERT_EQ(lib->types[t].pins.size(), d.types[t].pins.size());
    for (std::size_t p = 0; p < d.types[t].pins.size(); ++p) {
      EXPECT_EQ(lib->types[t].pins[p].layer, d.types[t].pins[p].layer);
      EXPECT_EQ(lib->types[t].pins[p].rect, d.types[t].pins[p].rect)
          << "type " << t << " pin " << p;
    }
  }
  // Parity survives via the PROPERTY extension.
  EXPECT_EQ(lib->types[1].parity, d.types[1].parity);
}

TEST(Lef, RejectsMissingSite) {
  std::string error;
  EXPECT_FALSE(readLef("MACRO X\nSIZE 1 BY 1 ;\nEND X\nEND LIBRARY\n", &error)
                   .has_value());
}

TEST(Def, RoundTripDesign) {
  const Design d = richDesign();
  const std::string lefText = writeLef(d, 0.2);
  const std::string defText = writeDef(d, 0.2);
  std::string error;
  const auto lib = readLef(lefText, &error);
  ASSERT_TRUE(lib.has_value()) << error;
  const auto parsed = readDef(defText, *lib, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name, d.name);
  EXPECT_EQ(parsed->numSitesX, d.numSitesX);
  EXPECT_EQ(parsed->numRows, d.numRows);
  ASSERT_EQ(parsed->numCells(), d.numCells());
  for (CellId c = 0; c < d.numCells(); ++c) {
    EXPECT_EQ(parsed->cells[c].type, d.cells[c].type);
    EXPECT_NEAR(parsed->cells[c].gpX, d.cells[c].gpX, 0.01) << "cell " << c;
    EXPECT_NEAR(parsed->cells[c].gpY, d.cells[c].gpY, 0.01);
    EXPECT_EQ(parsed->cells[c].fence, d.cells[c].fence);
  }
  ASSERT_EQ(parsed->numFences(), d.numFences());
  EXPECT_EQ(parsed->fences[1].rects, d.fences[1].rects);
  EXPECT_EQ(parsed->ioPins.size(), d.ioPins.size());
  EXPECT_EQ(parsed->nets.size(), d.nets.size());
}

TEST(Def, GeneratedDesignSurvivesLefDefRoundTrip) {
  GenSpec spec;
  spec.cellsPerHeight = {200, 20, 0, 0};
  spec.numFences = 1;
  spec.seed = 9;
  const Design d = generate(spec);
  std::string error;
  const auto lib = readLef(writeLef(d, 0.2), &error);
  ASSERT_TRUE(lib.has_value()) << error;
  const auto parsed = readDef(writeDef(d, 0.2), *lib, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->numCells(), d.numCells());
  EXPECT_EQ(parsed->numFences(), d.numFences());
  int fenceCells = 0, fenceCellsParsed = 0;
  for (CellId c = 0; c < d.numCells(); ++c) {
    if (d.cells[c].fence != kDefaultFence) ++fenceCells;
    if (parsed->cells[c].fence != kDefaultFence) ++fenceCellsParsed;
  }
  EXPECT_EQ(fenceCells, fenceCellsParsed);
}

TEST(Def, RejectsUnknownMacro) {
  const std::string lef =
      "SITE core SIZE 0.2 BY 0.4 ; END core\n"
      "MACRO A SIZE 0.4 BY 0.4 ; END A\nEND LIBRARY\n";
  std::string error;
  const auto lib = readLef(lef, &error);
  ASSERT_TRUE(lib.has_value()) << error;
  const std::string def =
      "DESIGN t ;\nUNITS DISTANCE MICRONS 2000 ;\n"
      "DIEAREA ( 0 0 ) ( 8000 8000 ) ;\n"
      "COMPONENTS 1 ;\n - c0 NOPE + PLACED ( 0 0 ) N ;\nEND COMPONENTS\n"
      "END DESIGN\n";
  EXPECT_FALSE(readDef(def, *lib, &error).has_value());
  EXPECT_NE(error.find("NOPE"), std::string::npos);
}

}  // namespace
}  // namespace mclg

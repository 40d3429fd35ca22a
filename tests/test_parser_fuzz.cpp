// Parser robustness fuzz: truncated and byte-mutated .mclg, LEF, DEF and
// Bookshelf inputs must come back as structured ParseErrors (or as a
// consistent design), never as a crash or an abort.
#include <gtest/gtest.h>

#include <string>

#include "gen/benchmark_gen.hpp"
#include "parsers/bookshelf.hpp"
#include "parsers/def_parser.hpp"
#include "parsers/lef_parser.hpp"
#include "parsers/simple_format.hpp"
#include "util/random.hpp"

namespace mclg {
namespace {

/// A small but feature-complete design (fences, rails, nets, edge classes)
/// to serialize and then mangle.
Design fuzzSeedDesign() {
  GenSpec spec;
  spec.cellsPerHeight = {60, 10, 4, 2};
  spec.density = 0.5;
  spec.numFences = 1;
  spec.numBlockages = 1;
  spec.seed = 99;
  return generate(spec);
}

/// If the parser rejects the input, the diagnostic must be anchored: a
/// non-empty message and a plausible line number.
template <typename Parse>
void expectOrderlyOutcome(const Parse& parse, const std::string& text) {
  ParseError error;
  const auto result = parse(text, &error);
  if (!result) {
    EXPECT_FALSE(error.message.empty()) << error.str();
    EXPECT_GE(error.line, 0) << error.str();
    EXPECT_FALSE(error.str().empty());
  }
}

TEST(ParserFuzz, TruncatedInputsFailGracefully) {
  const Design design = fuzzSeedDesign();
  const std::string mclg = writeSimpleFormat(design);
  const std::string lef = writeLef(design);
  const std::string def = writeDef(design);
  const auto lib = readLef(lef);
  ASSERT_TRUE(lib.has_value());

  // Cut each serialization at a spread of offsets, including mid-token.
  for (std::size_t cut = 0; cut <= 40; ++cut) {
    const auto slice = [&](const std::string& text) {
      return text.substr(0, text.size() * cut / 40);
    };
    expectOrderlyOutcome(
        [](const std::string& t, ParseError* e) {
          return readSimpleFormat(t, e);
        },
        slice(mclg));
    expectOrderlyOutcome(
        [](const std::string& t, ParseError* e) { return readLef(t, e); },
        slice(lef));
    expectOrderlyOutcome(
        [&](const std::string& t, ParseError* e) {
          return readDef(t, *lib, e);
        },
        slice(def));
  }
}

TEST(ParserFuzz, MutatedInputsFailGracefully) {
  const Design design = fuzzSeedDesign();
  const std::string mclg = writeSimpleFormat(design);
  const std::string lef = writeLef(design);
  const std::string def = writeDef(design);
  const auto lib = readLef(lef);
  ASSERT_TRUE(lib.has_value());

  // Garbage bytes: digits swapped for junk, keywords clobbered, etc.
  const char junk[] = {'@', 'Z', '-', '9', ';', '(', '\0', '\n'};
  Rng rng(2024);
  for (int round = 0; round < 64; ++round) {
    auto mutate = [&](std::string text) {
      const int edits = static_cast<int>(rng.uniformInt(1, 6));
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const auto pos = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(text.size()) - 1));
        text[pos] = junk[rng.uniformInt(0, 7)];
      }
      return text;
    };
    expectOrderlyOutcome(
        [](const std::string& t, ParseError* e) {
          return readSimpleFormat(t, e);
        },
        mutate(mclg));
    expectOrderlyOutcome(
        [](const std::string& t, ParseError* e) { return readLef(t, e); },
        mutate(lef));
    expectOrderlyOutcome(
        [&](const std::string& t, ParseError* e) {
          return readDef(t, *lib, e);
        },
        mutate(def));
  }
}

TEST(ParserFuzz, TruncatedBookshelfFailsGracefully) {
  const Design design = fuzzSeedDesign();
  const BookshelfBundle bundle = writeBookshelf(design);
  for (std::size_t cut = 0; cut <= 20; ++cut) {
    BookshelfBundle mangled = bundle;
    // Truncate each member file in turn.
    for (std::string* file :
         {&mangled.nodes, &mangled.nets, &mangled.pl, &mangled.scl}) {
      const std::string original = *file;
      *file = original.substr(0, original.size() * cut / 20);
      ParseError error;
      const auto result = readBookshelf(mangled, &error);
      if (!result) {
        EXPECT_FALSE(error.message.empty()) << error.str();
      }
      *file = original;
    }
  }
}

TEST(ParserFuzz, GarbageIsNotADesign) {
  for (const char* text :
       {"", "\n\n\n", "MCLG", "MCLG one", "garbage everywhere",
        "MCLG 1\nDESIGN x\nCORE -5 -5 0\nEND\n",
        "MCLG 1\nDESIGN x\nCORE 10 10 0.5\nTYPE T 200 1 -1 0 0 0\n"
        "CELL T 0 0 0 0 1 0 0\nEND\n"}) {
    ParseError error;
    EXPECT_FALSE(readSimpleFormat(std::string(text), &error).has_value())
        << text;
    EXPECT_FALSE(error.message.empty()) << text;
  }
}

}  // namespace
}  // namespace mclg

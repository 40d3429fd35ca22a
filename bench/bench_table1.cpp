// Table 1 reproduction: our full flow vs the ICCAD-2017-champion proxy on
// the 16-design contest-style suite. Columns mirror the paper: average and
// maximum displacement, HPWL increase, pin violations, edge-spacing
// violations, score S (Eq. 10), runtime. Expected shape: ours wins avg/max
// displacement, has zero edge violations and far fewer pin violations;
// paper-normalized averages were 1st/ours = 1.18 (avg), 1.12 (max),
// 8.25 (pin), 1.26 (score).

#include <cstdio>
#include <string>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/score.hpp"
#include "gen/iccad17_suite.hpp"
#include "legal/pipeline.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace mclg;
  const double scale = bench::scaleFromEnv(0.02);
  const int limit = bench::designLimitFromEnv(16);
  std::printf("=== Table 1: ours vs ICCAD17-champion proxy (scale %.3f) ===\n",
              scale);

  Table table({"benchmark", "#cells", "dens", "avg.1st", "avg.ours",
               "max.1st", "max.ours", "hpwl.1st", "hpwl.ours", "pin.1st",
               "pin.ours", "edge.1st", "edge.ours", "S.1st", "S.ours",
               "t.1st", "t.ours"});
  std::vector<double> avg1, avgO, max1, maxO, pin1, pinO, s1, sO;

  auto suite = iccad17Suite(scale);
  if (static_cast<int>(suite.size()) > limit) suite.resize(limit);
  // One side's run: its score, wall clock, and the cells it left unplaced
  // (-1: every cell placed but the placement is illegal). Only a complete,
  // legal placement is scored.
  struct Side {
    ScoreBreakdown score;
    double seconds = 0.0;
    int movable = 0;
    int unplaced = 0;
    bool complete() const { return unplaced == 0; }
  };
  // An incomplete side's first column reads "incomplete" with its unplaced
  // count (or "illegal") and its other columns "-", instead of numbers
  // scored on a partial placement; the design then leaves the normalized
  // averages.
  const auto col = [](const Side& side, const std::string& value,
                      bool first = false) -> std::string {
    if (side.complete()) return value;
    if (!first) return "-";
    return side.unplaced > 0
               ? "incomplete: " + std::to_string(side.unplaced) + " unplaced"
               : "illegal";
  };
  int incomplete = 0;
  for (const auto& entry : suite) {
    const auto run = [&](auto&& legalizer) {
      Design design = generate(entry.spec);
      SegmentMap segments(design);
      PlacementState state(design);
      Side side;
      Timer timer;
      legalizer(state, segments);
      side.seconds = timer.seconds();
      side.score = evaluateScore(design, segments);
      for (const auto& cell : design.cells) {
        if (!cell.fixed) ++side.movable;
      }
      const LegalityReport& legality = side.score.legality;
      side.unplaced = legality.unplacedCells > 0 ? legality.unplacedCells
                      : legality.legal()         ? 0
                                                 : -1;
      return side;
    };
    const Side champ = run([](PlacementState& state, const SegmentMap& seg) {
      legalizeChampionProxy(state, seg);
    });
    const Side ours = run([](PlacementState& state, const SegmentMap& seg) {
      legalize(state, seg, PipelineConfig::contest());
    });
    table.addRow(
        {entry.spec.name, Table::fmt(static_cast<long long>(ours.movable)),
         Table::pct(entry.spec.density, 0),
         col(champ, Table::fmt(champ.score.displacement.average, 3), true),
         col(ours, Table::fmt(ours.score.displacement.average, 3), true),
         col(champ, Table::fmt(champ.score.displacement.maximum, 1)),
         col(ours, Table::fmt(ours.score.displacement.maximum, 1)),
         col(champ, Table::pct(champ.score.hpwlRatio, 2)),
         col(ours, Table::pct(ours.score.hpwlRatio, 2)),
         col(champ,
             Table::fmt(static_cast<long long>(champ.score.pins.total()))),
         col(ours, Table::fmt(static_cast<long long>(ours.score.pins.total()))),
         col(champ,
             Table::fmt(static_cast<long long>(champ.score.edgeSpacing))),
         col(ours, Table::fmt(static_cast<long long>(ours.score.edgeSpacing))),
         col(champ, Table::fmt(champ.score.score, 3)),
         col(ours, Table::fmt(ours.score.score, 3)),
         Table::fmt(champ.seconds, 2), Table::fmt(ours.seconds, 2)});
    std::fprintf(stderr, "[table1] %s done\n", entry.spec.name.c_str());
    if (!champ.complete() || !ours.complete()) {
      ++incomplete;
      continue;
    }
    avg1.push_back(champ.score.displacement.average);
    avgO.push_back(ours.score.displacement.average);
    max1.push_back(champ.score.displacement.maximum);
    maxO.push_back(ours.score.displacement.maximum);
    pin1.push_back(champ.score.pins.total());
    pinO.push_back(std::max(1, ours.score.pins.total()));
    s1.push_back(champ.score.score);
    sO.push_back(ours.score.score);
  }
  std::printf("%s", table.toString().c_str());
  std::printf(
      "Norm. avg (1st/ours) over the %zu complete designs (%d incomplete "
      "left out): avgDisp %.2f, maxDisp %.2f, pin %.2f, score %.2f\n",
      avg1.size(), incomplete, bench::normAvg(avg1, avgO),
      bench::normAvg(max1, maxO), bench::normAvg(pin1, pinO),
      bench::normAvg(s1, sO));
  std::printf(
      "Paper reference       : avgDisp 1.18, maxDisp 1.12, pin 8.25, "
      "score 1.26 (Table 1, champion normalized to ours)\n");
  bench::maybeWriteBenchReport(
      "table1", {{"norm_avg_disp", bench::normAvg(avg1, avgO)},
                 {"norm_max_disp", bench::normAvg(max1, maxO)},
                 {"norm_pin", bench::normAvg(pin1, pinO)},
                 {"norm_score", bench::normAvg(s1, sO)}});
  return 0;
}

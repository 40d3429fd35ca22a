// mclg_cli — command-line driver for the legalization flow.
//
//   mclg_cli generate --cells 20000 --density 0.6 --fences 2 --seed 7
//            [--gp quadratic] --out design.mclg
//   mclg_cli legalize --in design.mclg [--preset contest|totaldisp]
//            [--threads 4] [--no-maxdisp] [--no-mcf] [--delta0 10]
//            [--n0 4] [--ripup [--ripup-threshold 5]]
//            [--recover-hpwl [--hpwl-budget 2]] [--fillers]
//            [--config pipeline.conf]
//            --out legal.mclg
//   mclg_cli evaluate --in legal.mclg
//   mclg_cli violations --in legal.mclg [--limit 100]
//   mclg_cli stats --in design.mclg
//   mclg_cli convert --in design.mclg --lef out.lef --def out.def
//   mclg_cli convert --in design.mclg --bookshelf out        (out.aux + 4)
//   mclg_cli convert --in-lef lib.lef --in-def chip.def --out design.mclg
//   mclg_cli convert --in-aux chip.aux --out design.mclg
//   mclg_cli svg --in legal.mclg --out disp.svg [--type 3 | --density]
//
// Exit status (see `mclg_cli --help`):
//   0  success; for legalize/evaluate the placement is fully legal
//   1  usage / IO error (unknown flags, a flag without its value, a
//      malformed or out-of-range number, unreadable or unwritable files)
//   2  legalized, but only after guard degradation (retry/skip/fallback)
//   3  infeasible cells remain or the placement is not legal
//   4  structured parse error in an input file
//   5  internal error (unrecoverable stage failure or unexpected exception)

#include <climits>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "db/placement_state.hpp"
#include "db/segment_map.hpp"
#include "eval/report.hpp"
#include "eval/design_stats.hpp"
#include "eval/metrics.hpp"
#include "eval/violations.hpp"
#include "eval/score.hpp"
#include "gen/benchmark_gen.hpp"
#include "gen/global_placer.hpp"
#include "gen/fillers.hpp"
#include "legal/eco/eco_driver.hpp"
#include "legal/guard/guard.hpp"
#include "legal/pipeline.hpp"
#include "legal/pipeline_config.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "parsers/parse_error.hpp"
#include "parsers/bookshelf.hpp"
#include "parsers/def_parser.hpp"
#include "parsers/lef_parser.hpp"
#include "parsers/simple_format.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace {

using namespace mclg;

const char kHelp[] =
    "usage: mclg_cli <command> [options]\n"
    "\n"
    "commands:\n"
    "  generate    --cells N --density D --fences F --seed S [--gp quadratic]\n"
    "              [--blockages B] [--no-routability] --out design.mclg\n"
    "  legalize    --in design.mclg [--preset contest|totaldisp] [--threads N]\n"
    "              [--no-maxdisp] [--no-mcf] [--delta0 D] [--n0 N]\n"
    "              [--ripup [--ripup-threshold T]]\n"
    "              [--recover-hpwl [--hpwl-budget B]] [--fillers]\n"
    "              [--config pipeline.conf] [--out legal.mclg]\n"
    "              guard options (pipeline guard is ON by default):\n"
    "              [--no-guard]           run stages without transactions\n"
    "              [--guard-budget SECS]  wall-clock budget per stage attempt\n"
    "              [--guard-attempts N]   attempts per stage (default 2)\n"
    "              [--fault-seed S]       inject one deterministic fault\n"
    "              observability (see docs/OBSERVABILITY.md):\n"
    "              [--trace-out t.json]   Chrome trace-event spans of the\n"
    "                                     run (load in Perfetto or\n"
    "                                     chrome://tracing)\n"
    "              [--report-out r.json]  versioned machine-readable run\n"
    "                                     report (stats + metrics + quality\n"
    "                                     + provenance)\n"
    "              incremental ECO mode (see docs/ECO.md):\n"
    "              [--eco-from legal.mclg] re-legalize only the cells that\n"
    "                                     changed vs. this legal snapshot\n"
    "              [--eco-exact]          shadow full run + adopt its result\n"
    "                                     (byte-identical to a full re-run)\n"
    "              [--eco-validate]       shadow full run, check the\n"
    "                                     EcoEquivalence invariant only\n"
    "              [--eco-tolerance T]    allowed relative score regression\n"
    "              [--eco-ripup-threshold D] rip up touched cells displaced\n"
    "                                     more than D row heights\n"
    "                                     (--ripup and --recover-hpwl are\n"
    "                                     full-run stages: a usage error\n"
    "                                     with --eco-from)\n"
    "  evaluate    --in legal.mclg\n"
    "  violations  --in legal.mclg [--limit N]\n"
    "  stats       --in design.mclg\n"
    "  convert     --in x.mclg --lef out.lef --def out.def | --bookshelf base\n"
    "              --in-lef lib.lef --in-def chip.def --out design.mclg\n"
    "              --in-aux chip.aux --out design.mclg\n"
    "  svg         --in legal.mclg --out out.svg [--type T | --density]\n"
    "\n"
    "global options:\n"
    "  --log-json  emit one JSON object per log line on stderr\n"
    "              ({\"ts\",\"ts_ms\",\"level\",\"tid\",\"msg\"}) instead of\n"
    "              text; ts_ms is the same instant as integer milliseconds,\n"
    "              so interleaved multi-process logs sort with an integer\n"
    "              compare\n"
    "\n"
    "exit codes:\n"
    "  0  success; for legalize/evaluate the placement is fully legal\n"
    "  1  usage / IO error (unknown flag, flag without its value,\n"
    "     malformed or out-of-range number)\n"
    "  2  legalized, but only after guard degradation (retry/skip/fallback)\n"
    "  3  infeasible cells remain or the placement is not legal\n"
    "  4  structured parse error in an input file\n"
    "  5  internal error (unrecoverable stage failure / unexpected "
    "exception)\n";

GuardExitCode usage() {
  std::fputs(kHelp, stderr);
  return GuardExitCode::Usage;
}

std::optional<Design> loadInput(const Flags& flags, GuardExitCode* exitCode) {
  const auto inPath = flags.text("--in");
  if (!inPath) {
    std::fprintf(stderr, "missing --in\n");
    *exitCode = GuardExitCode::Usage;
    return std::nullopt;
  }
  ParseError error;
  auto design = loadDesign(*inPath, &error);
  if (!design) {
    std::fprintf(stderr, "parse error: %s\n", error.str().c_str());
    *exitCode = GuardExitCode::ParseError;
  }
  return design;
}

std::string readFile(const std::string& path, bool* ok) {
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

GuardExitCode cmdGenerate(const Flags& flags) {
  GenSpec spec;
  const int cells = static_cast<int>(flags.integer("--cells", 10000));
  spec.name = flags.text("--name").value_or("generated");
  spec.cellsPerHeight = {cells * 8 / 10, cells * 12 / 100, cells * 5 / 100,
                         cells * 3 / 100};
  spec.density = flags.number("--density", 0.6);
  spec.numFences = static_cast<int>(flags.integer("--fences", 2));
  spec.numBlockages = static_cast<int>(flags.integer("--blockages", 1));
  spec.seed = static_cast<std::uint64_t>(flags.integer("--seed", 1));
  spec.withRoutability = !flags.has("--no-routability");
  Design design = generate(spec);

  if (flags.text("--gp").value_or("clustered") == "quadratic") {
    GlobalPlaceConfig gpConfig;
    gpConfig.seed = spec.seed;
    const auto stats = globalPlace(design, gpConfig);
    std::printf("GP-lite: HPWL %.0f -> %.0f, peak bin util %.2f -> %.2f\n",
                stats.hpwlBefore, stats.hpwlAfter, stats.maxBinUtilBefore,
                stats.maxBinUtilAfter);
  }

  const auto outPath = flags.text("--out");
  if (!outPath || !saveDesign(design, *outPath)) {
    std::fprintf(stderr, "cannot write output (--out)\n");
    return GuardExitCode::Usage;
  }
  std::printf("wrote %s: %d cells, %lld x %lld sites, %d fences\n",
              outPath->c_str(), design.numCells(),
              static_cast<long long>(design.numSitesX),
              static_cast<long long>(design.numRows), design.numFences() - 1);
  return GuardExitCode::Legal;
}

GuardExitCode cmdLegalize(const Flags& flags) {
  const std::string presetName =
      flags.text("--preset").value_or("contest");
  auto preset = PipelineConfig::preset(presetName);
  if (!preset) {
    std::fprintf(stderr, "unknown preset '%s' (contest or totaldisp)\n",
                 presetName.c_str());
    return GuardExitCode::Usage;
  }
  if (flags.has("--eco-from") &&
      (flags.has("--ripup") || flags.has("--recover-hpwl"))) {
    std::fprintf(stderr,
                 "--ripup and --recover-hpwl cannot be combined with "
                 "--eco-from (see --eco-ripup-threshold)\n");
    return GuardExitCode::Usage;
  }
  GuardExitCode exitCode = GuardExitCode::Usage;
  auto design = loadInput(flags, &exitCode);
  if (!design) return exitCode;

  // Observability switches: each is a file path; enabling them turns on the
  // corresponding collection before the pipeline runs.
  const auto traceOut = flags.text("--trace-out");
  const auto reportOut = flags.text("--report-out");
  if (traceOut) {
    obs::setTracingEnabled(true);
    obs::traceReset();
  }
  if (reportOut) {
    obs::setMetricsEnabled(true);
    obs::metricsReset();
  }

  PipelineConfig config = std::move(*preset);
  // The CLI runs guarded by default: every stage is a transaction with
  // rollback + degradation, and the run ends with a GuardReport summary.
  config.guard.enabled = true;
  if (const auto configPath = flags.text("--config")) {
    bool ok = false;
    const std::string text = readFile(*configPath, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot read %s\n", configPath->c_str());
      return GuardExitCode::Usage;
    }
    std::string error;
    if (!applyConfigText(text, &config, &error)) {
      std::fprintf(stderr, "config error in %s: %s\n", configPath->c_str(),
                   error.c_str());
      return GuardExitCode::ParseError;
    }
  }
  if (flags.has("--no-guard")) config.guard.enabled = false;
  config.guard.stageBudgetSeconds =
      flags.number("--guard-budget", config.guard.stageBudgetSeconds);
  config.guard.maxAttempts = static_cast<int>(
      flags.integer("--guard-attempts", config.guard.maxAttempts));
  if (flags.has("--fault-seed")) {
    config.guard.faults = FaultPlan::fromSeed(
        static_cast<std::uint64_t>(flags.integer("--fault-seed", 0)));
  }
  const int threads = static_cast<int>(flags.integer("--threads", 1));
  config.setThreads(threads);
  if (flags.has("--no-maxdisp")) config.runMaxDisp = false;
  if (flags.has("--no-mcf")) config.runFixedRowOrder = false;
  config.maxDisp.delta0 = flags.number("--delta0", config.maxDisp.delta0);
  config.fixedRowOrder.maxDispWeight =
      flags.number("--n0", config.fixedRowOrder.maxDispWeight);
  if (flags.has("--ripup")) {
    config.runRipup = true;
    config.ripup.displacementThreshold = flags.number(
        "--ripup-threshold", config.ripup.displacementThreshold);
  }
  if (flags.has("--recover-hpwl")) {
    config.runWirelengthRecovery = true;
    config.recovery.maxAddedDisplacement = flags.number(
        "--hpwl-budget", config.recovery.maxAddedDisplacement);
  }

  SegmentMap segments(*design);
  PlacementState state(*design);
  PipelineStats stats;
  std::optional<EcoStats> ecoStats;
  if (const auto ecoFrom = flags.text("--eco-from")) {
    ParseError error;
    const auto snapshot = loadDesign(*ecoFrom, &error);
    if (!snapshot) {
      std::fprintf(stderr, "parse error in --eco-from: %s\n",
                   error.str().c_str());
      return GuardExitCode::ParseError;
    }
    EcoConfig eco;
    eco.pipeline = config;
    eco.exact = flags.has("--eco-exact");
    eco.validate = flags.has("--eco-validate");
    eco.scoreTolerance = flags.number("--eco-tolerance", eco.scoreTolerance);
    eco.ripupThreshold =
        flags.number("--eco-ripup-threshold", eco.ripupThreshold);
    ecoStats = ecoRelegalize(state, segments, *snapshot, eco);
    stats = ecoPipelineStats(*ecoStats);
    std::printf(
        "ECO %.2fs (dirty %d, spilled %d, reused windows %lld, "
        "segments %d)%s\n",
        ecoStats->secondsIncremental, ecoStats->dirtyCells,
        ecoStats->spilledCells,
        static_cast<long long>(ecoStats->reusedWindows),
        ecoStats->dirtySegments,
        ecoStats->usedFullRun ? " [fell back to a full run]" : "");
    if (eco.exact || eco.validate) {
      std::printf("ECO shadow run %.2fs (scores: eco %.4f, full %.4f)%s\n",
                  ecoStats->secondsShadow, ecoStats->scoreIncremental,
                  ecoStats->scoreFull,
                  eco.exact ? " [adopted the full result]" : "");
    }
  } else {
    stats = legalize(state, segments, config);
    std::printf(
        "MGL %.2fs (placed %d, fallback %d, failed %d) | matching %.2fs "
        "(moved %d) | MCF %.2fs (moved %d)\n",
        stats.secondsMgl, stats.mgl.placed, stats.mgl.fallbackPlaced,
        stats.mgl.failed, stats.secondsMaxDisp, stats.maxDisp.cellsMoved,
        stats.secondsFixedRowOrder, stats.fixedRowOrder.cellsMoved);
    if (config.runRipup) {
      std::printf("ripup %.2fs (attempted %d, improved %d, gain %.3f)\n",
                  stats.secondsRipup, stats.ripup.attempted,
                  stats.ripup.improved, stats.ripup.gain);
    }
    if (config.runWirelengthRecovery) {
      std::printf("hpwl recovery %.2fs (moved %d, HPWL %.0f -> %.0f)\n",
                  stats.secondsRecovery, stats.recovery.cellsMoved,
                  stats.recovery.hpwlBefore, stats.recovery.hpwlAfter);
    }
  }

  if (flags.has("--fillers")) {
    const auto fillerStats = insertFillers(state, segments);
    std::printf("fillers: %d cells covering %lld sites\n",
                fillerStats.fillersAdded,
                static_cast<long long>(fillerStats.sitesFilled));
  }

  const GuardReport& guard = stats.guard;
  if (config.guard.enabled && !ecoStats) {
    std::printf("pipeline guard:\n%s", guard.summary().c_str());
    if (guard.degraded) {
      std::printf("guard: degraded run (see the table above)\n");
    }
    if (guard.infeasibleCells > 0) {
      std::printf("guard: %d infeasible cells remain unplaced\n",
                  guard.infeasibleCells);
    }
  }

  // A guarded full run ends on a placement its last audit scored; only
  // --fillers changes it afterwards.
  const bool audited =
      guard.finalScore && !ecoStats && !flags.has("--fillers");
  const ScoreBreakdown score =
      audited ? *guard.finalScore : evaluateScore(*design, segments);
  std::printf("%s\n", summarize(*design, score).c_str());

  // Flush observability outputs at this quiescent point: every stage thread
  // pool has been joined, so no spans are in flight.
  if (traceOut) {
    if (!obs::writeChromeTrace(*traceOut)) {
      std::fprintf(stderr, "cannot write %s\n", traceOut->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s (%zu trace events)\n", traceOut->c_str(),
                obs::traceEventCount());
  }
  if (reportOut) {
    obs::RunProvenance provenance;
    provenance.design = design->name;
    provenance.numCells = design->numCells();
    provenance.preset = presetName;
    provenance.threads = threads;
    provenance.guardEnabled = config.guard.enabled;
    provenance.configText = configToText(config);
    if (!obs::writeRunReport(*reportOut, provenance, stats, &score,
                             /*includeMetrics=*/true,
                             ecoStats ? &*ecoStats : nullptr)) {
      std::fprintf(stderr, "cannot write %s\n", reportOut->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s\n", reportOut->c_str());
  }

  if (const auto outPath = flags.text("--out")) {
    if (!saveDesign(*design, *outPath)) {
      std::fprintf(stderr, "cannot write %s\n", outPath->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s\n", outPath->c_str());
  }
  return runOutcome(guard, score.legality.legal(),
                    ecoStats && ecoStats->usedFullRun);
}

GuardExitCode cmdEvaluate(const Flags& flags) {
  GuardExitCode exitCode = GuardExitCode::Usage;
  const auto design = loadInput(flags, &exitCode);
  if (!design) return exitCode;
  SegmentMap segments(*design);
  const auto score = evaluateScore(*design, segments);
  std::printf("%s\n", summarize(*design, score).c_str());
  return runOutcome(GuardReport(), score.legality.legal());
}

GuardExitCode cmdStats(const Flags& flags) {
  GuardExitCode exitCode = GuardExitCode::Usage;
  auto design = loadInput(flags, &exitCode);
  if (!design) return exitCode;
  SegmentMap segments(*design);
  PlacementState state(*design);
  const auto stats = computeDesignStats(state, segments);
  std::printf("%s", stats.toString().c_str());
  return GuardExitCode::Legal;
}

GuardExitCode cmdViolations(const Flags& flags) {
  GuardExitCode exitCode = GuardExitCode::Usage;
  const auto design = loadInput(flags, &exitCode);
  if (!design) return exitCode;
  SegmentMap segments(*design);
  const auto limit =
      static_cast<std::size_t>(flags.integer("--limit", 100));
  const auto violations = collectViolations(*design, segments, limit);
  if (violations.empty()) {
    std::printf("no violations\n");
    return GuardExitCode::Legal;
  }
  std::printf("%s", formatViolations(*design, violations).c_str());
  if (violations.size() == limit) {
    std::printf("... (truncated at %zu; raise --limit)\n", limit);
  }
  return GuardExitCode::Usage;  // exit 1: violations listed
}

GuardExitCode cmdConvert(const Flags& flags) {
  // Bookshelf -> native.
  if (const auto auxPath = flags.text("--in-aux")) {
    const auto outPath = flags.text("--out");
    if (!outPath) {
      std::fprintf(stderr, "convert needs --out\n");
      return GuardExitCode::Usage;
    }
    ParseError error;
    const auto design = loadBookshelf(*auxPath, &error);
    if (!design) {
      std::fprintf(stderr, "Bookshelf error: %s\n", error.str().c_str());
      return GuardExitCode::ParseError;
    }
    if (!saveDesign(*design, *outPath)) {
      std::fprintf(stderr, "cannot write %s\n", outPath->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s (%d cells)\n", outPath->c_str(),
                design->numCells());
    return GuardExitCode::Legal;
  }
  // Native -> Bookshelf.
  if (const auto bookshelfBase = flags.text("--bookshelf")) {
    GuardExitCode exitCode = GuardExitCode::Usage;
    const auto design = loadInput(flags, &exitCode);
    if (!design) return exitCode;
    if (!saveBookshelf(*design, *bookshelfBase)) {
      std::fprintf(stderr, "cannot write %s.*\n", bookshelfBase->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s.{aux,nodes,nets,pl,scl}\n",
                bookshelfBase->c_str());
    return GuardExitCode::Legal;
  }
  // Direction 1: LEF+DEF -> native.
  if (const auto lefPath = flags.text("--in-lef")) {
    const auto defPath = flags.text("--in-def");
    const auto outPath = flags.text("--out");
    if (!defPath || !outPath) {
      std::fprintf(stderr, "convert needs --in-def and --out\n");
      return GuardExitCode::Usage;
    }
    bool ok = false;
    const std::string lefText = readFile(*lefPath, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot read %s\n", lefPath->c_str());
      return GuardExitCode::Usage;
    }
    const std::string defText = readFile(*defPath, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot read %s\n", defPath->c_str());
      return GuardExitCode::Usage;
    }
    ParseError error;
    const auto lib = readLef(lefText, &error);
    if (!lib) {
      std::fprintf(stderr, "LEF error: %s\n", error.str().c_str());
      return GuardExitCode::ParseError;
    }
    const auto design = readDef(defText, *lib, &error);
    if (!design) {
      std::fprintf(stderr, "DEF error: %s\n", error.str().c_str());
      return GuardExitCode::ParseError;
    }
    if (!saveDesign(*design, *outPath)) {
      std::fprintf(stderr, "cannot write %s\n", outPath->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s (%d cells)\n", outPath->c_str(), design->numCells());
    return GuardExitCode::Legal;
  }
  // Direction 2: native -> LEF+DEF.
  GuardExitCode exitCode = GuardExitCode::Usage;
  const auto design = loadInput(flags, &exitCode);
  if (!design) return exitCode;
  const auto lefPath = flags.text("--lef");
  const auto defPath = flags.text("--def");
  if (!lefPath || !defPath) {
    std::fprintf(stderr, "convert needs --lef and --def (or --in-lef)\n");
    return GuardExitCode::Usage;
  }
  std::ofstream lefOut(*lefPath);
  lefOut << writeLef(*design);
  std::ofstream defOut(*defPath);
  defOut << writeDef(*design);
  if (!lefOut || !defOut) {
    std::fprintf(stderr, "write failed\n");
    return GuardExitCode::Usage;
  }
  std::printf("wrote %s and %s\n", lefPath->c_str(), defPath->c_str());
  return GuardExitCode::Legal;
}

GuardExitCode cmdSvg(const Flags& flags) {
  GuardExitCode exitCode = GuardExitCode::Usage;
  const auto design = loadInput(flags, &exitCode);
  if (!design) return exitCode;
  const auto outPath = flags.text("--out");
  if (!outPath) {
    std::fprintf(stderr, "missing --out\n");
    return GuardExitCode::Usage;
  }
  if (flags.has("--density")) {
    if (!writeDensityMapSvg(*design, *outPath,
                            static_cast<int>(flags.integer("--bin-rows", 8)))) {
      std::fprintf(stderr, "cannot write %s\n", outPath->c_str());
      return GuardExitCode::Usage;
    }
    std::printf("wrote %s\n", outPath->c_str());
    return GuardExitCode::Legal;
  }
  const auto type = static_cast<TypeId>(flags.integer("--type", -1));
  if (!writeDisplacementSvg(*design, type, *outPath)) {
    std::fprintf(stderr, "cannot write %s\n", outPath->c_str());
    return GuardExitCode::Usage;
  }
  std::printf("wrote %s\n", outPath->c_str());
  return GuardExitCode::Legal;
}

/// A subcommand and the flags it reads; every subcommand also takes the
/// global --log-json switch.
struct Command {
  const char* name;
  GuardExitCode (*run)(const Flags&);
  std::vector<FlagSpec> flags;
};

using enum FlagKind;

const Command kCommands[] = {
    {"generate", cmdGenerate,
     {{"--cells", Integer}, {"--name", Text}, {"--density", Number},
      {"--fences", Integer}, {"--blockages", Integer},
      {"--seed", Integer, LLONG_MIN, LLONG_MAX}, {"--gp", Text},
      {"--out", Text}, {"--no-routability", Switch}}},
    {"legalize", cmdLegalize,
     {{"--in", Text}, {"--out", Text}, {"--preset", Text},
      {"--config", Text}, {"--threads", Integer}, {"--delta0", Number},
      {"--n0", Number}, {"--ripup-threshold", Number},
      {"--hpwl-budget", Number}, {"--guard-budget", Number},
      {"--guard-attempts", Integer},
      {"--fault-seed", Integer, LLONG_MIN, LLONG_MAX},
      {"--trace-out", Text}, {"--report-out", Text},
      {"--eco-from", Text}, {"--eco-tolerance", Number}, {"--eco-ripup-threshold", Number},
      {"--no-maxdisp", Switch}, {"--no-mcf", Switch}, {"--ripup", Switch},
      {"--recover-hpwl", Switch}, {"--fillers", Switch},
      {"--no-guard", Switch}, {"--eco-exact", Switch},
      {"--eco-validate", Switch}}},
    {"evaluate", cmdEvaluate, {{"--in", Text}}},
    {"violations", cmdViolations, {{"--in", Text}, {"--limit", Integer}}},
    {"stats", cmdStats, {{"--in", Text}}},
    {"convert", cmdConvert,
     {{"--in", Text}, {"--out", Text}, {"--lef", Text}, {"--def", Text},
      {"--bookshelf", Text}, {"--in-lef", Text}, {"--in-def", Text},
      {"--in-aux", Text}}},
    {"svg", cmdSvg,
     {{"--in", Text}, {"--out", Text}, {"--type", Integer},
      {"--bin-rows", Integer}, {"--density", Switch}}},
};

GuardExitCode runCli(int argc, char** argv) {
  if (argc < 2) return usage();
  setLogLevel(LogLevel::Info);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kHelp, stdout);
    return GuardExitCode::Legal;
  }
  for (const Command& cmd : kCommands) {
    if (command != cmd.name) continue;
    std::vector<FlagSpec> specs = cmd.flags;
    specs.push_back({"--log-json", Switch});
    const auto flags =
        Flags::parse("mclg_cli " + command, specs, argc, argv, 2);
    if (!flags) {
      std::fputs("run mclg_cli --help for the flag list\n", stderr);
      return GuardExitCode::Usage;
    }
    if (flags->has("--log-json")) setLogFormat(LogFormat::Json);
    try {
      return cmd.run(*flags);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "internal error: %s\n", e.what());
      return GuardExitCode::Internal;
    }
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  return static_cast<int>(runCli(argc, argv));
}

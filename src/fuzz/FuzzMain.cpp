//===-- fuzz/FuzzMain.cpp - sharc-fuzz driver -----------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzzing driver. Three modes:
///
///   sharc-fuzz --count N --schedules K --seed S
///       Generate N random programs and run every oracle over K scheduler
///       seeds each. The report is a deterministic function of the flags:
///       re-running the same campaign must print byte-identical output.
///
///   sharc-fuzz --replay FILE | --replay-dir DIR
///       Re-run the oracles over saved corpus programs (regression mode;
///       corpus entries document bugs that have been fixed, so they must
///       pass).
///
///   Failures are summarized one per line; with --corpus-dir the failing
///   program (minimized when --minimize is given) is written there as a
///   reproducer with a header recording seeds and the failure kind.
///
/// Exit codes follow sharcc: 0 clean, 1 oracle failures, 2 usage errors.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Rng.h"
#include "rt/Guard.h"
#include "support/NumericArg.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace sharc;
using namespace sharc::fuzz;

namespace {

struct FuzzOptions {
  uint64_t Count = 50;
  unsigned Schedules = 4;
  uint64_t Seed = 1;
  uint64_t MaxSteps = 1u << 17;
  guard::Policy Policy = guard::Policy::Continue;
  GenSize Size = GenSize::Normal; ///< --gen-size: generator profile.
  std::string CorpusDir;
  std::string ReplayFile;
  std::string ReplayDir;
  bool Minimize = false;
  bool Quiet = false;
};

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options]\n"
      << "  --count N       programs to generate (default 50)\n"
      << "  --schedules K   scheduler seeds per program (default 4)\n"
      << "  --seed S        campaign base seed (default 1)\n"
      << "  --max-steps N   interpreter step budget per run\n"
      << "  --policy P      violation policy for the base runs: abort,\n"
      << "                  continue (default), quarantine; SHARC_POLICY\n"
      << "                  sets the same knob, the flag wins\n"
      << "  --gen-size P    generator profile: normal (default) or small\n"
      << "                  (explore-friendly programs: no spin joins,\n"
      << "                  fewer spawns, tighter loops — most of them\n"
      << "                  fit the exploration oracle's budget)\n"
      << "  --corpus-dir D  write failing programs to D as reproducers\n"
      << "  --replay FILE   re-run the oracles over one saved program\n"
      << "  --replay-dir D  re-run the oracles over every .mc file in D\n"
      << "  --minimize      shrink failures before reporting/saving\n"
      << "  --quiet         only print failures and the summary\n";
  return 2;
}

/// State shared by generate and replay modes.
struct Campaign {
  FuzzOptions Opts;
  uint64_t Failures = 0;
  uint64_t Programs = 0;
  uint64_t SchedulesRun = 0;
  uint64_t AnalysisRejected = 0;
  uint64_t CheckerRejected = 0;
  uint64_t TraceSkips = 0;
  uint64_t RcSkips = 0;
  uint64_t PolicyChecks = 0;
  uint64_t ExploreChecks = 0;
  uint64_t ExploreSkips = 0;
  uint64_t SchedulesExplored = 0;
  uint64_t ViolationsSeen = 0;
  uint64_t RacyCells = 0;
  uint64_t EraserOnlyRacy = 0;
  uint64_t HbOnlyRacy = 0;
  uint64_t CampaignDigest = 0xCBF29CE484222325ull;

  OracleConfig oracleConfig(uint64_t OracleSeed) const {
    OracleConfig Cfg;
    Cfg.Seed = OracleSeed;
    Cfg.Schedules = Opts.Schedules;
    Cfg.MaxSteps = Opts.MaxSteps;
    Cfg.Policy = Opts.Policy;
    return Cfg;
  }

  void absorb(const OracleOutcome &Out) {
    ++Programs;
    SchedulesRun += Out.SchedulesRun;
    AnalysisRejected += Out.AnalysisRejected ? 1 : 0;
    CheckerRejected += Out.CheckerRejected ? 1 : 0;
    TraceSkips += Out.TraceSkips;
    RcSkips += Out.RcSkips;
    PolicyChecks += Out.PolicyChecks;
    ExploreChecks += Out.ExploreChecks;
    ExploreSkips += Out.ExploreSkips;
    SchedulesExplored += Out.SchedulesExplored;
    ViolationsSeen += Out.ViolationsSeen;
    RacyCells += Out.RacyCells;
    EraserOnlyRacy += Out.EraserOnlyRacy;
    HbOnlyRacy += Out.HbOnlyRacy;
    CampaignDigest ^= Out.Digest;
    CampaignDigest *= 0x100000001B3ull;
  }

  /// Re-runs the oracle checking for the same failure kind; the
  /// minimizer's predicate.
  bool failsSameWay(const std::string &Candidate, FailureKind Kind,
                    uint64_t OracleSeed) {
    OracleOutcome Out = runOracles(Candidate, oracleConfig(OracleSeed));
    return Out.Failure == Kind;
  }

  void reportFailure(const std::string &Source, const OracleOutcome &Out,
                     uint64_t GenSeed, uint64_t OracleSeed,
                     const std::string &Origin) {
    ++Failures;
    std::cout << "FAIL " << Origin << " kind=" << failureKindName(Out.Failure)
              << " oracle-seed=" << OracleSeed << "\n  " << Out.Detail
              << "\n";

    std::string Repro = Source;
    if (Opts.Minimize) {
      Repro = minimizeSource(Source, [&](const std::string &C) {
        return failsSameWay(C, Out.Failure, OracleSeed);
      });
      std::cout << "  minimized " << Source.size() << " -> " << Repro.size()
                << " bytes, " << std::count(Repro.begin(), Repro.end(), '\n')
                << " lines\n";
    }
    if (!Opts.CorpusDir.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Opts.CorpusDir, Ec);
      std::ostringstream Name;
      Name << "fail-" << failureKindName(Out.Failure) << "-seed" << GenSeed
           << ".mc";
      std::filesystem::path Path =
          std::filesystem::path(Opts.CorpusDir) / Name.str();
      std::ofstream Of(Path);
      Of << "/* sharc-fuzz reproducer\n"
         << " * kind: " << failureKindName(Out.Failure) << "\n"
         << " * gen-seed: " << GenSeed << "\n"
         << " * oracle-seed: " << OracleSeed << "\n"
         << " * schedules: " << Opts.Schedules << "\n"
         << " * detail: " << Out.Detail << "\n"
         << " */\n"
         << Repro;
      std::cout << "  saved " << Path.string() << "\n";
    } else if (Opts.Minimize) {
      std::cout << "---- reproducer ----\n" << Repro << "--------------------\n";
    }
  }

  void summary() const {
    std::cout << "sharc-fuzz: " << Programs << " programs, " << SchedulesRun
              << " schedules, " << Failures << " failures\n"
              << "  skips: analysis=" << AnalysisRejected
              << " checker=" << CheckerRejected << " trace=" << TraceSkips
              << " rc=" << RcSkips << "\n"
              << "  policy=" << guard::policyName(Opts.Policy)
              << " policy-checks=" << PolicyChecks << "\n"
              << "  explore-checks=" << ExploreChecks
              << " explore-skips=" << ExploreSkips
              << " explored-schedules=" << SchedulesExplored << "\n"
              << "  runtime violations=" << ViolationsSeen
              << " racy-cells=" << RacyCells
              << " eraser-only=" << EraserOnlyRacy
              << " hb-only=" << HbOnlyRacy << "\n"
              << "  digest=" << CampaignDigest << "\n";
  }
};

int runGenerate(Campaign &C) {
  for (uint64_t I = 0; I < C.Opts.Count; ++I) {
    uint64_t State = C.Opts.Seed + I;
    uint64_t GenSeed = splitMix64(State);
    uint64_t OracleSeed = splitMix64(State);
    std::string Source = generateProgram(GenSeed, C.Opts.Size);
    OracleOutcome Out = runOracles(Source, C.oracleConfig(OracleSeed));
    C.absorb(Out);
    if (Out.failed()) {
      std::ostringstream Origin;
      Origin << "prog=" << I << " gen-seed=" << GenSeed;
      C.reportFailure(Source, Out, GenSeed, OracleSeed, Origin.str());
    } else if (!C.Opts.Quiet) {
      std::cout << "ok prog=" << I << " gen-seed=" << GenSeed
                << " schedules=" << Out.SchedulesRun
                << " violations=" << Out.ViolationsSeen
                << " racy=" << Out.RacyCells
                << (Out.AnalysisRejected
                        ? " (analysis-rejected)"
                        : Out.CheckerRejected ? " (checker-rejected)" : "")
                << "\n";
    }
  }
  C.summary();
  return C.Failures ? 1 : 0;
}

int replayOne(Campaign &C, const std::filesystem::path &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "sharc-fuzz: cannot read " << Path.string() << "\n";
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  OracleOutcome Out = runOracles(Buf.str(), C.oracleConfig(C.Opts.Seed));
  C.absorb(Out);
  if (Out.failed())
    C.reportFailure(Buf.str(), Out, /*GenSeed=*/0, C.Opts.Seed,
                    "file=" + Path.filename().string());
  else if (!C.Opts.Quiet)
    std::cout << "ok file=" << Path.filename().string()
              << " schedules=" << Out.SchedulesRun << "\n";
  return 0;
}

int runReplay(Campaign &C) {
  if (!C.Opts.ReplayFile.empty()) {
    int Rc = replayOne(C, C.Opts.ReplayFile);
    if (Rc)
      return Rc;
  } else {
    std::error_code Ec;
    std::filesystem::directory_iterator It(C.Opts.ReplayDir, Ec);
    if (Ec) {
      std::cerr << "sharc-fuzz: cannot read directory " << C.Opts.ReplayDir
                << "\n";
      return 2;
    }
    std::vector<std::filesystem::path> Files;
    for (const auto &Entry : It)
      if (Entry.path().extension() == ".mc")
        Files.push_back(Entry.path());
    std::sort(Files.begin(), Files.end());
    for (const auto &Path : Files) {
      int Rc = replayOne(C, Path);
      if (Rc)
        return Rc;
    }
  }
  C.summary();
  return C.Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Campaign C;
  FuzzOptions &Opts = C.Opts;
  // SHARC_POLICY selects the base-run policy like it does for sharcc;
  // an explicit --policy flag (parsed later) wins.
  if (const char *Env = std::getenv("SHARC_POLICY"))
    if (!guard::parsePolicy(Env, Opts.Policy)) {
      std::cerr << "sharc-fuzz: bad SHARC_POLICY '" << Env
                << "' (want abort, continue, or quarantine)\n";
      return 2;
    }
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto needValue = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--count") {
      const char *V = needValue();
      if (!V || !parseFlagU64("sharc-fuzz", "--count", V, Opts.Count))
        return usage(Argv[0]);
    } else if (Arg == "--schedules") {
      uint64_t K;
      const char *V = needValue();
      if (!V || !parseFlagU64("sharc-fuzz", "--schedules", V, K) || K == 0 ||
          K > 1024)
        return usage(Argv[0]);
      Opts.Schedules = static_cast<unsigned>(K);
    } else if (Arg == "--seed") {
      const char *V = needValue();
      if (!V || !parseFlagU64("sharc-fuzz", "--seed", V, Opts.Seed))
        return usage(Argv[0]);
    } else if (Arg == "--max-steps") {
      const char *V = needValue();
      if (!V || !parseFlagU64("sharc-fuzz", "--max-steps", V, Opts.MaxSteps) ||
          Opts.MaxSteps == 0)
        return usage(Argv[0]);
    } else if (Arg == "--policy") {
      const char *V = needValue();
      if (!V || !guard::parsePolicy(V, Opts.Policy))
        return usage(Argv[0]);
    } else if (Arg == "--gen-size") {
      const char *V = needValue();
      if (V && std::string(V) == "normal")
        Opts.Size = GenSize::Normal;
      else if (V && std::string(V) == "small")
        Opts.Size = GenSize::Small;
      else
        return usage(Argv[0]);
    } else if (Arg == "--corpus-dir") {
      const char *V = needValue();
      if (!V)
        return usage(Argv[0]);
      Opts.CorpusDir = V;
    } else if (Arg == "--replay") {
      const char *V = needValue();
      if (!V)
        return usage(Argv[0]);
      Opts.ReplayFile = V;
    } else if (Arg == "--replay-dir") {
      const char *V = needValue();
      if (!V)
        return usage(Argv[0]);
      Opts.ReplayDir = V;
    } else if (Arg == "--minimize") {
      Opts.Minimize = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else {
      std::cerr << "sharc-fuzz: unknown option '" << Arg << "'\n";
      return usage(Argv[0]);
    }
  }
  if (!Opts.ReplayFile.empty() && !Opts.ReplayDir.empty())
    return usage(Argv[0]);

  if (!Opts.ReplayFile.empty() || !Opts.ReplayDir.empty())
    return runReplay(C);
  return runGenerate(C);
}

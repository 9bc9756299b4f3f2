// moche_cli — explain a failed KS test from CSV files.
//
// Usage:
//   moche_cli --reference ref.csv --test test.csv
//             [--column 0] [--alpha 0.05]
//             [--scores scores.csv]   preference = descending scores
//             [--order value_desc|value_asc|index]
//             [--max-print 20]
//
// Reads one numeric column from each file (no header detection: pass files
// with plain numbers, or strip headers first), runs the KS test, and — if
// it fails — prints the most comprehensible counterfactual explanation.
// Exit code: 0 = explained or already passing, 1 = usage/data error.
//
// Try it:
//   printf '1\n2\n3\n4\n5\n' > /tmp/ref.csv
//   printf '2\n9\n9\n9\n9\n' > /tmp/test.csv
//   cli=./build/examples/example_moche_cli
//   "$cli" --reference /tmp/ref.csv --test /tmp/test.csv --alpha 0.3

#include <cstdio>
#include <cstring>
#include <string>

#include "core/moche.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace {

struct CliArgs {
  std::string reference_path;
  std::string test_path;
  std::string scores_path;
  std::string order = "index";
  size_t column = 0;
  double alpha = 0.05;
  size_t max_print = 20;
};

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--reference") {
      const char* v = next();
      if (v == nullptr) return false;
      args->reference_path = v;
    } else if (flag == "--test") {
      const char* v = next();
      if (v == nullptr) return false;
      args->test_path = v;
    } else if (flag == "--scores") {
      const char* v = next();
      if (v == nullptr) return false;
      args->scores_path = v;
    } else if (flag == "--order") {
      const char* v = next();
      if (v == nullptr) return false;
      args->order = v;
    } else if (flag == "--column") {
      const char* v = next();
      long long parsed = 0;
      if (v == nullptr || !moche::ParseInt64(v, &parsed) || parsed < 0) {
        return false;
      }
      args->column = static_cast<size_t>(parsed);
    } else if (flag == "--alpha") {
      const char* v = next();
      if (v == nullptr || !moche::ParseDouble(v, &args->alpha)) return false;
    } else if (flag == "--max-print") {
      const char* v = next();
      long long parsed = 0;
      if (v == nullptr || !moche::ParseInt64(v, &parsed) || parsed < 0) {
        return false;
      }
      args->max_print = static_cast<size_t>(parsed);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->reference_path.empty() && !args->test_path.empty();
}

moche::Result<std::vector<double>> LoadColumn(const std::string& path,
                                              size_t column) {
  auto table = moche::ReadCsvFile(path);
  MOCHE_RETURN_IF_ERROR(table.status());
  return moche::NumericColumn(*table, column);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moche;
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: moche_cli --reference ref.csv --test test.csv\n"
                 "                 [--column N] [--alpha A]\n"
                 "                 [--scores scores.csv]\n"
                 "                 [--order value_desc|value_asc|index]\n"
                 "                 [--max-print N]\n");
    return 1;
  }

  auto reference = LoadColumn(args.reference_path, args.column);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  auto test = LoadColumn(args.test_path, args.column);
  if (!test.ok()) {
    std::fprintf(stderr, "test: %s\n", test.status().ToString().c_str());
    return 1;
  }

  PreferenceList preference;
  if (!args.scores_path.empty()) {
    auto scores = LoadColumn(args.scores_path, 0);
    if (!scores.ok()) {
      std::fprintf(stderr, "scores: %s\n", scores.status().ToString().c_str());
      return 1;
    }
    if (scores->size() != test->size()) {
      std::fprintf(stderr, "scores has %zu rows, test has %zu\n",
                   scores->size(), test->size());
      return 1;
    }
    preference = PreferenceByScoreDesc(*scores);
  } else if (args.order == "value_desc") {
    preference = PreferenceByValue(*test, true);
  } else if (args.order == "value_asc") {
    preference = PreferenceByValue(*test, false);
  } else if (args.order == "index") {
    preference = IdentityPreference(test->size());
  } else {
    std::fprintf(stderr, "unknown --order '%s'\n", args.order.c_str());
    return 1;
  }

  Moche engine;
  auto report = engine.Explain(*reference, *test, args.alpha, preference);
  if (report.status().IsAlreadyPasses()) {
    std::printf("KS test passes at alpha=%g; nothing to explain\n",
                args.alpha);
    return 0;
  }
  if (!report.ok()) {
    std::fprintf(stderr, "explanation failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("KS test FAILED: D=%s > p=%s (n=%zu, m=%zu)\n",
              moche::FormatFixed(report->original.statistic, 6).c_str(),
              moche::FormatFixed(report->original.threshold, 6).c_str(),
              reference->size(), test->size());
  std::printf("explanation size k=%zu (lower bound k_hat=%zu)\n", report->k,
              report->k_hat);
  std::printf("row,value\n");
  for (size_t i = 0; i < report->explanation.indices.size(); ++i) {
    if (i == args.max_print) {
      std::printf("... (%zu more; raise --max-print)\n",
                  report->explanation.indices.size() - i);
      break;
    }
    const size_t idx = report->explanation.indices[i];
    // FormatG17 round-trips the double exactly; %g would truncate to six
    // significant digits and honor LC_NUMERIC.
    std::printf("%zu,%s\n", idx, moche::FormatG17((*test)[idx]).c_str());
  }
  std::printf("after removal: D=%s <= p=%s\n",
              moche::FormatFixed(report->after.statistic, 6).c_str(),
              moche::FormatFixed(report->after.threshold, 6).c_str());
  return 0;
}

// Golden-file SQL end-to-end harness: every tests/golden/*.sql script runs
// against a fresh Connection through the text API (Connection::Execute per
// statement — exercising the plan cache and literal auto-parameterization
// exactly as a driver would); the formatted results of its SELECT/EXPLAIN
// statements are diffed against the sibling .expected file. Every SELECT is
// additionally re-run through a streaming Cursor and must produce
// row-identical output — pinning the streamed-vs-materialized equivalence
// of the client surface.
//
// Each script is additionally re-run under direct evaluation (serial),
// direct evaluation with the parallel partitioned BMO forced on,
// sort-filter mode with the preference pushdown disabled, and direct
// evaluation with the LESS skyline algorithm — all five configurations
// must produce byte-identical output, pinning the cross-path/
// cross-parallelism/cross-algorithm equivalence the engine promises.
//
// Regenerate the .expected files with: PREFSQL_GOLDEN_REGEN=1 ctest -R
// sql_golden (then review the diff like any other code change).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/connection.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/string_util.h"

namespace prefsql {
namespace {

namespace fs = std::filesystem;

std::string GoldenDir() {
#ifdef PREFSQL_GOLDEN_DIR
  return PREFSQL_GOLDEN_DIR;
#else
  return "tests/golden";
#endif
}

std::vector<std::string> ListScripts() {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(GoldenDir(), ec)) {
    if (entry.path().extension() == ".sql") {
      out.push_back(entry.path().stem().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One configuration the script runs under; the prelude executes before the
/// script (the script's own SET statements still win afterwards).
struct Variant {
  const char* label;
  const char* prelude;
};

constexpr Variant kVariants[] = {
    {"rewrite (default)", ""},
    {"direct serial", "SET evaluation_mode = bnl;"},
    {"direct parallel",
     "SET evaluation_mode = bnl; SET bmo_threads = 4; "
     "SET parallel_min_rows = 1;"},
    {"sfs, pushdown off",
     "SET evaluation_mode = sfs; SET preference_pushdown = off;"},
    {"direct less",
     "SET evaluation_mode = bnl; SET bmo_algorithm = less;"},
};

/// Splits a script into statement texts on top-level semicolons (string
/// literals, quoted identifiers and `--` comments respected), so each
/// statement replays through the text API like a driver would send it.
std::vector<std::string> SplitStatements(const std::string& script) {
  std::vector<std::string> out;
  std::string current;
  for (size_t i = 0; i < script.size(); ++i) {
    char c = script[i];
    if (c == '-' && i + 1 < script.size() && script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') current += script[i++];
      if (i < script.size()) current += '\n';
      continue;
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      current += c;
      for (++i; i < script.size(); ++i) {
        current += script[i];
        if (script[i] == quote) break;
      }
      continue;
    }
    if (c == ';') {
      out.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  out.push_back(current);
  return out;
}

/// Executes `script` under `variant` and renders the SELECT/EXPLAIN outputs.
std::string RunScript(const std::string& script, const Variant& variant,
                      bool* ok, std::string* error) {
  *ok = false;
  Connection conn;
  if (variant.prelude[0] != '\0') {
    auto prelude = conn.ExecuteScript(variant.prelude);
    if (!prelude.ok()) {
      *error = "prelude failed: " + prelude.status().ToString();
      return "";
    }
  }
  std::string out;
  size_t query_no = 0;
  for (const std::string& text : SplitStatements(script)) {
    const std::string word = FirstSqlWord(text);
    if (word.empty()) continue;
    auto result = conn.Execute(text);
    if (!result.ok()) {
      *error = "statement failed: " + result.status().ToString() + "\n  " +
               text;
      return "";
    }
    if (word == "SELECT") {
      // The streamed rows must match the materialized result exactly
      // (modulo the ordering both paths share).
      auto cursor = conn.OpenCursor(text);
      if (!cursor.ok()) {
        *error = "cursor open failed: " + cursor.status().ToString() +
                 "\n  " + text;
        return "";
      }
      std::vector<Row> rows;
      for (;;) {
        auto row = cursor->Next();
        if (!row.ok()) {
          *error = "cursor next failed: " + row.status().ToString() + "\n  " +
                   text;
          return "";
        }
        if (!row->has_value()) break;
        rows.push_back(std::move(**row).IntoRow());
      }
      ResultTable streamed(cursor->columns(), std::move(rows));
      if (streamed.ToString(/*max_rows=*/1000) !=
          result->ToString(/*max_rows=*/1000)) {
        *error = "cursor-streamed rows diverge from Execute for\n  " + text +
                 "\nmaterialized:\n" + result->ToString(1000) +
                 "\nstreamed:\n" + streamed.ToString(1000);
        return "";
      }
    }
    if (word != "SELECT" && word != "EXPLAIN") continue;
    ++query_no;
    out += "-- query " + std::to_string(query_no) + "\n";
    out += result->ToString(/*max_rows=*/1000);
    out += "\n";
  }
  *ok = true;
  return out;
}

class SqlGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SqlGoldenTest, MatchesExpectedInEveryConfiguration) {
  const fs::path dir = GoldenDir();
  const fs::path sql_path = dir / (GetParam() + ".sql");
  const fs::path expected_path = dir / (GetParam() + ".expected");
  const std::string script = ReadFile(sql_path);
  ASSERT_FALSE(script.empty()) << "cannot read " << sql_path;

  bool ok = false;
  std::string error;
  const std::string baseline = RunScript(script, kVariants[0], &ok, &error);
  ASSERT_TRUE(ok) << kVariants[0].label << ": " << error;

  if (std::getenv("PREFSQL_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(expected_path);
    out << baseline;
    ASSERT_TRUE(out.good()) << "cannot write " << expected_path;
  } else {
    ASSERT_TRUE(fs::exists(expected_path))
        << expected_path << " missing — run with PREFSQL_GOLDEN_REGEN=1";
    EXPECT_EQ(ReadFile(expected_path), baseline)
        << "golden mismatch for " << sql_path
        << " (regen with PREFSQL_GOLDEN_REGEN=1 and review the diff)";
  }

  // Every other configuration must reproduce the baseline byte for byte.
  for (size_t v = 1; v < std::size(kVariants); ++v) {
    const std::string actual = RunScript(script, kVariants[v], &ok, &error);
    ASSERT_TRUE(ok) << kVariants[v].label << ": " << error;
    EXPECT_EQ(baseline, actual) << "configuration '" << kVariants[v].label
                                << "' diverges for " << sql_path;
  }
}

INSTANTIATE_TEST_SUITE_P(Scripts, SqlGoldenTest,
                         ::testing::ValuesIn(ListScripts()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// The suite must never silently run empty (e.g. a bad PREFSQL_GOLDEN_DIR).
TEST(SqlGoldenTest, ScriptsWereDiscovered) {
  EXPECT_GE(ListScripts().size(), 12u) << "golden dir: " << GoldenDir();
}

}  // namespace
}  // namespace prefsql

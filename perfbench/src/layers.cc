// Layer entry-point replays of the traced run and the BMO oracle of the
// correctness check. Both work from a request's literal text and its
// candidate relation, fetched as plain SQL from the quiesced engine.

#include <algorithm>
#include <map>
#include <set>

#include "core/analyzer.h"
#include "core/bmo.h"
#include "preference/dominance_program.h"
#include "preference/key_store.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "workload.h"

namespace prefbench {

using prefsql::Connection;
using prefsql::ResultTable;

std::vector<std::string> RenderRows(const ResultTable& table,
                                    size_t max_cols) {
  size_t cols = table.num_columns();
  if (max_cols != 0 && max_cols < cols) cols = max_cols;
  std::vector<std::string> out;
  out.reserve(table.num_rows());
  for (const auto& row : table.rows()) {
    std::string line;
    for (size_t c = 0; c < cols; ++c) {
      if (c) line += '|';
      line += row[c].ToString();
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

prefsql::ConnectionOptions DirectOptions() {
  prefsql::ConnectionOptions o;
  o.mode = prefsql::EvaluationMode::kBlockNestedLoop;
  return o;
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

namespace {

struct Candidates {
  ResultTable table;
  std::shared_ptr<const prefsql::CompiledPreference> pref;
};

// Parses and analyzes the request and fetches its candidate relation.
std::string LoadCandidates(Connection& checker, const ReadSpec& spec,
                           Candidates* out) {
  auto stmt = prefsql::ParseStatement(spec.text);
  if (!stmt.ok()) return "parse: " + stmt.status().ToString();
  auto analyzed = prefsql::AnalyzePreferenceQuery(*stmt->select);
  if (!analyzed.ok()) return "analyze: " + analyzed.status().ToString();
  auto cand = checker.Execute(spec.candidates_sql);
  if (!cand.ok()) return "candidates: " + cand.status().ToString();
  out->table = std::move(*cand);
  out->pref = analyzed->pref;
  return "";
}

}  // namespace

std::string CheckBmo(Connection& checker, const ReadSpec& spec,
                     const std::vector<std::string>& result) {
  Candidates cand;
  std::string err = LoadCandidates(checker, spec, &cand);
  if (!err.empty()) return err;
  const prefsql::CompiledPreference& pref = *cand.pref;
  const ResultTable& t = cand.table;
  size_t group_col = 0;
  if (!spec.grouping.empty()) {
    auto col = t.schema().Resolve("", spec.grouping);
    if (!col.ok()) return "grouping column: " + col.status().ToString();
    group_col = *col;
  }

  std::set<std::string> members(result.begin(), result.end());
  if (members.size() != result.size()) return "duplicate ids in the result";
  std::vector<prefsql::PrefKey> keys;
  keys.reserve(t.num_rows());
  std::map<std::string, std::vector<size_t>> partitions;
  std::vector<bool> is_member(t.num_rows(), false);
  size_t matched = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    auto key = pref.MakeKey(t.schema(), t.rows()[i]);
    if (!key.ok()) return "key: " + key.status().ToString();
    keys.push_back(std::move(*key));
    std::string part =
        spec.grouping.empty() ? "" : t.rows()[i][group_col].ToString();
    partitions[part].push_back(i);
    if (members.count(t.rows()[i][0].ToString())) {
      is_member[i] = true;
      ++matched;
    }
  }
  if (matched != members.size()) return "result holds a non-candidate row";
  for (const auto& [part, rows] : partitions) {
    std::vector<size_t> in;
    for (size_t r : rows) {
      if (is_member[r]) in.push_back(r);
    }
    for (size_t m : in) {
      for (size_t c : rows) {
        if (pref.Dominates(keys[c], keys[m])) {
          return "member " + t.rows()[m][0].ToString() + " is dominated by " +
                 t.rows()[c][0].ToString();
        }
      }
    }
    for (size_t n : rows) {
      if (is_member[n]) continue;
      bool dominated = std::any_of(in.begin(), in.end(), [&](size_t m) {
        return pref.Dominates(keys[m], keys[n]);
      });
      if (!dominated) {
        return "non-member " + t.rows()[n][0].ToString() +
               " is dominated by no member";
      }
    }
  }
  return "";
}

void ReplayLayers(Connection& checker, const ReadSpec& spec, TraceBuf* trace,
                  LayerTotals* totals) {
  const uint64_t req = spec.id;
  volatile size_t sink = 0;
  {
    ScopedSpan s(trace, "sql.ParseStatement", req);
    auto stmt = prefsql::ParseStatement(spec.text);
    sink = sink + stmt.ok();
  }
  {
    ScopedSpan s(trace, "sql.ParameterizeSql", req);
    auto p = prefsql::ParameterizeSql(spec.text, /*collapse_in_lists=*/true);
    sink = sink + p.values.size();
  }
  if (!spec.preference) return;
  auto stmt = prefsql::ParseStatement(spec.text);
  if (!stmt.ok()) return;
  {
    ScopedSpan s(trace, "core.AnalyzePreferenceQuery", req);
    auto analyzed = prefsql::AnalyzePreferenceQuery(*stmt->select);
    sink = sink + analyzed.ok();
  }
  {
    ScopedSpan s(trace, "core.RewriteToSql", req);
    auto sql = checker.RewriteToSql(spec.text);
    sink = sink + (sql.ok() ? sql->size() : 0);
  }
  if (spec.candidates_sql.empty()) return;
  Candidates cand;
  if (!LoadCandidates(checker, spec, &cand).empty()) return;
  const prefsql::CompiledPreference& pref = *cand.pref;
  const ResultTable& t = cand.table;
  const size_t n = t.num_rows();

  prefsql::KeyStore keys(pref.num_leaves());
  keys.Reserve(n);
  {
    ScopedSpan s(trace, "preference.AppendKey", req);
    for (const auto& row : t.rows()) {
      if (!pref.AppendKey(t.schema(), row, &keys).ok()) return;
    }
    totals->append_us += s.Finish();
    totals->append_rows += static_cast<double>(n);
  }
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;

  static const prefsql::BmoAlgorithm kAlgorithms[4] = {
      prefsql::BmoAlgorithm::kNaiveNestedLoop,
      prefsql::BmoAlgorithm::kBlockNestedLoop,
      prefsql::BmoAlgorithm::kSortFilterSkyline, prefsql::BmoAlgorithm::kLess};
  static const char* kBmoSpans[4] = {
      "core.ComputeBmo.naive", "core.ComputeBmo.bnl", "core.ComputeBmo.sfs",
      "core.ComputeBmo.less"};
  std::vector<size_t> skyline;
  for (int a = 0; a < 4; ++a) {
    prefsql::BmoOptions opts;
    opts.algorithm = kAlgorithms[a];
    ScopedSpan s(trace, kBmoSpans[a], req);
    std::vector<size_t> r = prefsql::ComputeBmo(pref, keys, all, opts);
    totals->bmo_ms[a].push_back(s.Finish() / 1e3);
    std::sort(r.begin(), r.end());
    if (a == 0) {
      skyline = std::move(r);
    } else if (r != skyline) {
      ++totals->mismatches;
    }
  }

  static const prefsql::SimdVariant kVariants[3] = {
      prefsql::SimdVariant::kScalar, prefsql::SimdVariant::kUnrolled4,
      prefsql::SimdVariant::kAvx2};
  static const char* kKernelSpans[3] = {"preference.dominance.scalar",
                                        "preference.dominance.unrolled4",
                                        "preference.dominance.avx2"};
  const bool avx2 =
      prefsql::DispatchedSimdVariant() == prefsql::SimdVariant::kAvx2;
  const prefsql::DominanceProgram& program = pref.program();
  std::vector<uint8_t> out(n);
  for (int v = 0; v < 3; ++v) {
    if (v == 2 && !avx2) continue;
    size_t tests = 0;
    ScopedSpan s(trace, kKernelSpans[v], req);
    Clock::time_point start = Clock::now();
    // Repeat the pass until it covers a few milliseconds of kernel time.
    do {
      for (size_t r = 0; r < n; ++r) {
        sink = sink + program.AnyDominates(keys, skyline.data(),
                                           skyline.size(), r, kVariants[v],
                                           &tests);
      }
      for (size_t m : skyline) {
        program.DominatesBlock(keys, m, all.data(), n, out.data(),
                               kVariants[v], &tests);
      }
    } while (MsBetween(start, Clock::now()) < 3.0);
    totals->kernel_s[v] += s.Finish() / 1e6;
    totals->kernel_tests[v] += static_cast<double>(tests);
  }
}

}  // namespace prefbench

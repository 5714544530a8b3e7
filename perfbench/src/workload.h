// The three benchmark workloads behind one interface, driven by the
// harness in main.cc: closed-loop readers, one open-loop writer, and the
// quiesced hooks the correctness check and the traced run use.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/connection.h"
#include "core/engine.h"
#include "util/random.h"
#include "util/status.h"

namespace prefbench {

/// Most closed-loop reader threads any workload runs (each has its own
/// session or connection; one open-loop writer thread comes on top).
constexpr size_t kMaxReaders = 3;

/// One read request as generated from the workload seed.
struct ReadSpec {
  uint64_t id = 0;          ///< request id (spans, samples)
  bool preference = true;   ///< false = the plain standard-SQL share
  std::string shape;        ///< label of the query shape
  /// Statement text with every value spelled as a literal. serve_mixed
  /// executes the prepared template with `target` bound instead; the text
  /// is the same request, for the in-process replays.
  std::string text;
  int64_t target = 0;
  /// Oracle inputs: the candidate relation (`SELECT id, <preference
  /// attributes> FROM ... WHERE ...`) and the GROUPING column in it. An
  /// empty `candidates_sql` skips the BMO oracle (BUT ONLY shapes).
  std::string candidates_sql;
  std::string grouping;
};

/// Outcome of one read as the client saw it.
struct ReadOutcome {
  bool ok = false;
  std::string error;
  /// Statement statistics (traced half only): the session's last_stats,
  /// or those of a shadow read (see Workload::ShadowRead).
  bool has_stats = false;
  prefsql::PreferenceQueryStats stats;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop reader threads (at most kMaxReaders).
  virtual size_t readers() const { return kMaxReaders; }
  /// Pause of each reader between its reads (a client's think time).
  virtual std::chrono::microseconds think_time() const {
    return std::chrono::microseconds(0);
  }
  /// Open-loop writer rate (writes per second).
  virtual double write_rate() const = 0;

  /// Builds the engine, the data, and the sessions or connections from
  /// `seed`. Called several times per run (set-up is timed); Teardown
  /// releases everything between calls.
  virtual prefsql::Status Setup(uint64_t seed) = 0;
  virtual void Teardown() = 0;

  virtual ReadSpec NextRead(prefsql::Random& rng) = 0;
  /// Runs one read on reader `reader`'s session. `trace` is null in the
  /// untraced run; when set, the read records its spans there and returns
  /// its statement statistics.
  virtual ReadOutcome Read(size_t reader, const ReadSpec& spec,
                           TraceBuf* trace) = 0;

  /// Whether the statistics of a read come from a shadow read instead of
  /// from the read itself (the client surface hides its sessions).
  virtual bool has_shadow_reads() const { return false; }
  /// Runs `spec` on an in-process session next to reader `reader`'s
  /// connection and returns its statement statistics. In both halves of a
  /// traced run a shadow read replaces every fourth preference read: it
  /// sees and leaves the caches as that read would, and it is neither
  /// timed nor counted as a read.
  virtual ReadOutcome ShadowRead(size_t reader, const ReadSpec& spec) {
    (void)reader;
    (void)spec;
    return {};
  }

  /// The writer's `k`-th statement and its execution.
  virtual std::string NextWrite(uint64_t k, prefsql::Random& rng) = 0;
  virtual prefsql::Status Write(const std::string& sql) = 0;

  // -- Quiesced hooks (no reader or writer running) ----------------------

  /// The shared engine (in-process or behind the server).
  virtual std::shared_ptr<prefsql::Engine> engine() = 0;
  /// Row ids the workload's client surface returns for `spec` (sorted).
  virtual prefsql::Result<std::vector<std::string>> ClientRows(
      const ReadSpec& spec) = 0;
  /// Workload-specific equality checks: serve_mixed compares the wire
  /// rows with the same bound request in-process, rewrite_default the
  /// rewrite-mode rows with direct-mode rows. Empty string = agree.
  virtual std::string CrossCheck(const ReadSpec& spec) = 0;
  /// Latency (ms) of `spec` run alone on the client surface.
  virtual double SoloLatencyMs(const ReadSpec& spec) = 0;
  /// Adds the metrics only this workload's layers produce (net.*), from
  /// the traced half's spans and quiesced replays recorded into `replay`.
  virtual void AddLayerMetrics(Metrics& m, const Tracer& tracer,
                               TraceBuf* replay) {
    (void)m;
    (void)tracer;
    (void)replay;
  }
  /// Statements run since Setup that the client surface refused (counted
  /// in the failure totals).
  virtual uint64_t refused() const { return 0; }
};

std::unique_ptr<Workload> MakeJobSearchAdhoc();
std::unique_ptr<Workload> MakeServeMixed();
std::unique_ptr<Workload> MakeRewriteDefault();

// -- Helpers shared by the workloads ---------------------------------------

/// Sorted "|"-joined rendering of every row of `table` (column subset
/// `cols`, all columns when empty).
std::vector<std::string> RenderRows(const prefsql::ResultTable& table,
                                    size_t max_cols = 0);

/// Options of a session evaluating preferences in-engine with BNL.
prefsql::ConnectionOptions DirectOptions();

/// Single-quoted SQL string literal.
std::string Quote(const std::string& s);

/// Checks the ids `result` against the paper's BMO definition over the
/// candidate relation of `spec` (see ReadSpec::candidates_sql): the result
/// is a subset of the candidates, no member is dominated, and every
/// non-member is dominated by a member — per GROUPING partition, with the
/// recursive CompiledPreference::Compare as the oracle. Empty string =
/// holds; otherwise what failed.
std::string CheckBmo(prefsql::Connection& checker, const ReadSpec& spec,
                     const std::vector<std::string>& result);

/// Per-layer replay totals of the traced run.
struct LayerTotals {
  double append_us = 0;
  double append_rows = 0;
  std::vector<double> bmo_ms[4];      ///< naive, bnl, sfs, less
  double kernel_tests[3] = {0, 0, 0};  ///< scalar, unrolled4, avx2
  double kernel_s[3] = {0, 0, 0};
  uint64_t mismatches = 0;  ///< BMO algorithms disagreeing with naive
};

/// Replays `spec` through the layer entry points (ParseStatement,
/// ParameterizeSql, AnalyzePreferenceQuery, RewriteToSql, AppendKey over
/// its candidates, ComputeBmo per algorithm, the dominance kernels per
/// SIMD variant), recording one span each under request `spec.id`.
void ReplayLayers(prefsql::Connection& checker, const ReadSpec& spec,
                  TraceBuf* trace, LayerTotals* totals);

}  // namespace prefbench

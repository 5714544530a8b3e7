// prefbench: the repository benchmark's load generator.
//
//   prefbench --workload jobsearch_adhoc|serve_mixed|rewrite_default
//             --seed N --seconds S --trace 0|1
//             [--goodput-limit-ms MS] [--trace-out spans.jsonl]
//
// One run: set the workload up five times from the seed, each time with the
// same sequential warm-up, let the full mix settle for two untimed seconds,
// drive it with its closed-loop readers and one open-loop writer, re-run a
// seeded sample of the reads on the quiesced engine and check them (BMO
// oracle plus the workload's cross-checks), then set it up four more times
// (the median of the nine set-ups is `setup_s`). With
// --trace 0 the timed phase lasts S seconds and the end-to-end metrics are
// printed. With --trace 1 an untraced half and a traced half of S/2 seconds
// each run back to back, with the same mix of reads; the traced half records
// spans and statement statistics, the layer entry points are replayed on a
// sample of its requests, and the per-layer metrics are printed. The last
// stdout line is one JSON object (see perfbench/run.py, which wraps it).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "preference/dominance_program.h"
#include "workload.h"

#ifndef PREFBENCH_BUILD_TYPE
#define PREFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PREFBENCH_CXX_FLAGS
#define PREFBENCH_CXX_FLAGS ""
#endif
#ifndef PREFBENCH_COMPILER
#define PREFBENCH_COMPILER "unknown"
#endif

namespace prefbench {
namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Sample {
  ReadSpec spec;
  double ms = 0;
};

/// Everything one timed phase observed.
struct Phase {
  double seconds = 0;
  std::vector<double> pref_ms, plain_ms, write_ms, late_ms;
  uint64_t pref_ok = 0, pref_failed = 0, plain_ok = 0, plain_failed = 0;
  uint64_t writes_ok = 0, writes_failed = 0, within_limit = 0;
  uint64_t shadow_ok = 0, shadow_failed = 0;
  std::vector<Sample> samples;
  std::vector<prefsql::PreferenceQueryStats> stats;
  std::vector<std::string> errors;

  uint64_t attempted() const {
    return pref_ok + pref_failed + plain_ok + plain_failed + writes_ok +
           writes_failed + shadow_ok + shadow_failed;
  }
  uint64_t failed() const {
    return pref_failed + plain_failed + writes_failed + shadow_failed;
  }
  void Merge(Phase&& o) {
    auto cat = [](auto& a, auto& b) {
      a.insert(a.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
    };
    cat(pref_ms, o.pref_ms);
    cat(plain_ms, o.plain_ms);
    cat(write_ms, o.write_ms);
    cat(late_ms, o.late_ms);
    cat(samples, o.samples);
    cat(stats, o.stats);
    cat(errors, o.errors);
    pref_ok += o.pref_ok;
    pref_failed += o.pref_failed;
    plain_ok += o.plain_ok;
    plain_failed += o.plain_failed;
    writes_ok += o.writes_ok;
    writes_failed += o.writes_failed;
    within_limit += o.within_limit;
    shadow_ok += o.shadow_ok;
    shadow_failed += o.shadow_failed;
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double goodput_limit_ms = 0;
  std::string trace_out;
};

void Record(Phase& p, const std::string& what, const std::string& error) {
  if (p.errors.size() < 5) p.errors.push_back(what + " -> " + error);
}

/// The warm-up of a set-up: `reads` reads on each reader's session, then
/// `writes` writes, one after another on the calling thread, so the
/// warm-up's length does not depend on thread scheduling or lock waits.
Phase WarmUp(Workload& w, uint64_t seed, uint64_t tag, size_t reads,
             size_t writes, std::atomic<uint64_t>* next_id,
             uint64_t* write_k) {
  Phase p;
  prefsql::Random rng(Mix(seed, tag));
  for (size_t r = 0; r < w.readers(); ++r) {
    for (size_t i = 0; i < reads; ++i) {
      ReadSpec spec = w.NextRead(rng);
      spec.id = next_id->fetch_add(1);
      ReadOutcome out = w.Read(r, spec, nullptr);
      if (!out.ok) Record(p, spec.text, out.error);
      (out.ok ? p.plain_ok : p.plain_failed)++;
    }
  }
  for (size_t i = 0; i < writes; ++i) {
    std::string sql = w.NextWrite((*write_k)++, rng);
    prefsql::Status st = w.Write(sql);
    if (!st.ok()) Record(p, sql, st.ToString());
    (st.ok() ? p.writes_ok : p.writes_failed)++;
  }
  return p;
}

/// Runs the closed-loop readers and the open-loop writer for `seconds`.
/// With `shadows` set and a workload that has them, a shadow read replaces
/// every fourth preference read (both halves of a traced run, so that they
/// run the same mix). `write_k` numbers the writer's statements across
/// phases.
Phase RunPhase(Workload& w, uint64_t seed, uint64_t tag, double seconds,
               Tracer* tracer, bool shadows, double limit_ms,
               std::atomic<uint64_t>* next_id, uint64_t* write_k) {
  const size_t readers = w.readers();
  std::vector<Phase> parts(readers + 1);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  shadows = shadows && w.has_shadow_reads();
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Phase& p = parts[r];
      prefsql::Random rng(Mix(Mix(seed, tag), r));
      TraceBuf* buf = tracer ? tracer->NewBuffer() : nullptr;
      for (size_t i = 0; Clock::now() < end; ++i) {
        ReadSpec spec = w.NextRead(rng);
        spec.id = next_id->fetch_add(1);
        if (shadows && spec.preference && spec.id % 4 == 0) {
          ReadOutcome out = w.ShadowRead(r, spec);
          if (!out.ok) Record(p, spec.text, out.error);
          (out.ok ? p.shadow_ok : p.shadow_failed)++;
          if (buf != nullptr && out.has_stats) {
            p.stats.push_back(std::move(out.stats));
          }
          continue;
        }
        Clock::time_point t0 = Clock::now();
        ReadOutcome out = w.Read(r, spec, buf);
        Clock::time_point t1 = Clock::now();
        if (t1 > end) break;  // completed after the window
        double ms = MsBetween(t0, t1);
        if (!out.ok) Record(p, spec.text, out.error);
        if (spec.preference) {
          (out.ok ? p.pref_ok : p.pref_failed)++;
          p.pref_ms.push_back(ms);
          if (out.ok && ms <= limit_ms) ++p.within_limit;
        } else {
          (out.ok ? p.plain_ok : p.plain_failed)++;
          p.plain_ms.push_back(ms);
        }
        if (out.has_stats) p.stats.push_back(std::move(out.stats));
        if (w.think_time().count() > 0) {
          std::this_thread::sleep_for(w.think_time());
        }
        if (out.ok && i % 4 == 0 && p.samples.size() < 96) {
          p.samples.push_back({std::move(spec), ms});
        }
      }
    });
  }
  threads.emplace_back([&] {
    Phase& p = parts[readers];
    prefsql::Random rng(Mix(Mix(seed, tag), 1000));
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / w.write_rate()));
    Clock::time_point prev_done = start;
    for (size_t i = 0;; ++i) {
      Clock::time_point due = start + period * static_cast<int64_t>(i);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      Clock::time_point sent = Clock::now();
      std::string sql = w.NextWrite((*write_k)++, rng);
      prefsql::Status st = w.Write(sql);
      Clock::time_point done = Clock::now();
      if (!st.ok()) Record(p, sql, st.ToString());
      (st.ok() ? p.writes_ok : p.writes_failed)++;
      // A write that was due while the previous one still ran is timed from
      // its due time, so a stall is charged to every write queued behind
      // it. A write due while the writer idled is timed from its send: the
      // idle generator's own wake-up delay is not the engine's and is
      // reported apart, as bench.writer_late_p99_ms.
      p.write_ms.push_back(MsBetween(prev_done > due ? due : sent, done));
      p.late_ms.push_back(MsBetween(due, sent));
      prev_done = done;
    }
  });
  for (auto& t : threads) t.join();
  Phase all;
  for (auto& p : parts) all.Merge(std::move(p));
  all.seconds = seconds;
  return all;
}

struct EngineCounters {
  double scanned = 0, skipped = 0, gc_cleared = 0, gc_passes = 0,
         maintenance = 0;
  static EngineCounters Read(prefsql::Engine& e) {
    const auto& x = e.database().executor().stats();
    EngineCounters c;
    c.scanned = static_cast<double>(x.mvcc.versions_scanned.load());
    c.skipped = static_cast<double>(x.mvcc.versions_skipped.load());
    c.gc_cleared = static_cast<double>(x.gc_cleared.load());
    c.gc_passes = static_cast<double>(e.background_gc_passes());
    c.maintenance = static_cast<double>(e.key_cache().maintenance_events());
    return c;
  }
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Draws `n` distinct elements of `v` with a seeded shuffle.
std::vector<Sample> Pick(std::vector<Sample> v, size_t n, uint64_t seed,
                         bool preference_only) {
  if (preference_only) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [](const Sample& s) { return !s.spec.preference; }),
            v.end());
  }
  prefsql::Random rng(seed);
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<size_t>(
                            rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
  if (v.size() > n) v.resize(n);
  return v;
}

int Run(const Options& opt) {
  std::unique_ptr<Workload> w;
  if (opt.workload == "jobsearch_adhoc") {
    w = MakeJobSearchAdhoc();
  } else if (opt.workload == "serve_mixed") {
    w = MakeServeMixed();
  } else if (opt.workload == "rewrite_default") {
    w = MakeRewriteDefault();
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }

  std::atomic<uint64_t> next_id{1};
  uint64_t write_k = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  // Set-up, each time the same work; the median of all is setup_s. Five
  // set-ups run before the timed phase (the last one is kept) and four
  // after the check, so that the median spans the whole run rather than
  // the host's state during its first seconds.
  constexpr int kSetupsBefore = 5, kSetupsAfter = 4;
  constexpr size_t kWarmupReads = 8, kWarmupWrites = 4;
  std::vector<double> setup_s;
  auto set_up = [&]() {
    Clock::time_point t0 = Clock::now();
    prefsql::Status st = w->Setup(opt.seed);
    if (!st.ok()) {
      std::cerr << "set-up failed: " << st.ToString() << "\n";
      return false;
    }
    write_k = 0;
    Phase warm = WarmUp(*w, opt.seed, 100, kWarmupReads, kWarmupWrites,
                        &next_id, &write_k);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    attempted += warm.attempted();
    failed += warm.failed();
    errors.insert(errors.end(), warm.errors.begin(), warm.errors.end());
    return true;
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (i > 0) w->Teardown();
    if (!set_up()) return 1;
  }

  // Settle: the full mix, untimed, until the caches and the writer's
  // maintenance reach their steady state (the first writes after set-up
  // find every warm-up cache entry to maintain).
  constexpr double kSettleSeconds = 2;
  Phase settle = RunPhase(*w, opt.seed, 3, kSettleSeconds, nullptr, opt.trace,
                          opt.goodput_limit_ms, &next_id, &write_k);
  attempted += settle.attempted();
  failed += settle.failed();
  errors.insert(errors.end(), settle.errors.begin(), settle.errors.end());

  Tracer tracer;
  Phase timed, untraced;
  EngineCounters before, after;
  if (!opt.trace) {
    timed = RunPhase(*w, opt.seed, 1, opt.seconds, nullptr, false,
                     opt.goodput_limit_ms, &next_id, &write_k);
  } else {
    untraced = RunPhase(*w, opt.seed, 1, opt.seconds / 2, nullptr, true,
                        opt.goodput_limit_ms, &next_id, &write_k);
    before = EngineCounters::Read(*w->engine());
    timed = RunPhase(*w, opt.seed, 2, opt.seconds / 2, &tracer, true,
                     opt.goodput_limit_ms, &next_id, &write_k);
    after = EngineCounters::Read(*w->engine());
  }
  for (Phase* p : {&timed, &untraced}) {
    attempted += p->attempted();
    failed += p->failed();
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
  }

  // Correctness on the quiesced engine: a seeded sample of the reads.
  prefsql::Connection checker(DirectOptions());
  checker.Attach(w->engine());
  uint64_t mismatches = 0, checked = 0;
  std::vector<Sample> all_samples = timed.samples;
  all_samples.insert(all_samples.end(), untraced.samples.begin(),
                     untraced.samples.end());
  for (const Sample& s : Pick(all_samples, 24, Mix(opt.seed, 7), false)) {
    ++checked;
    std::string why;
    auto rows = w->ClientRows(s.spec);
    if (!rows.ok()) {
      why = rows.status().ToString();
    } else if (s.spec.preference && !s.spec.candidates_sql.empty()) {
      why = CheckBmo(checker, s.spec, *rows);
    }
    if (why.empty()) why = w->CrossCheck(s.spec);
    if (!why.empty()) {
      ++mismatches;
      errors.push_back("check " + s.spec.shape + ": " + s.spec.text + " -> " +
                       why);
    }
  }
  attempted += checked;
  failed += mismatches + w->refused();

  Metrics m;
  const Phase& p = timed;
  if (!opt.trace) {
    std::vector<double> pref = p.pref_ms, plain = p.plain_ms,
                        writes = p.write_ms;
    m.Set("query_p50_ms", Quantile(pref, 0.5), "ms");
    m.Set("query_p99_ms", Quantile(pref, 0.99), "ms");
    m.Set("query_qps", p.pref_ok / p.seconds, "1/s");
    m.Set("goodput_qps", p.within_limit / p.seconds, "1/s");
    m.Set("write_p50_ms", Quantile(writes, 0.5), "ms");
    m.Set("plain_p50_ms", Quantile(plain, 0.5), "ms");
    m.Set("success_ratio", 1.0 - Ratio(failed, attempted), "ratio");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Statement statistics of the traced half.
    double n = 0, pref_n = 0, plan_hits = 0, fallbacks = 0, cmp = 0, cand = 0,
           res = 0, key_hits = 0, sky_hits = 0, batches = 0, batch_rows = 0,
           row_fallback = 0, pre_in = 0, pre_out = 0;
    std::vector<double> key_build_ms;
    for (const auto& s : p.stats) {
      ++n;
      plan_hits += s.plan_cache_hit;
      batches += static_cast<double>(s.batches);
      batch_rows += static_cast<double>(s.batch_rows);
      row_fallback += !s.batch_fallback.empty();
      if (!s.was_preference_query) continue;
      ++pref_n;
      fallbacks += s.rewrite_fallback;
      cmp += static_cast<double>(s.bmo_comparisons);
      cand += static_cast<double>(s.candidate_count);
      res += static_cast<double>(s.result_count);
      key_hits += s.key_cache_hit;
      sky_hits += s.skyline_cache_hit;
      key_build_ms.push_back(static_cast<double>(s.bmo_key_build_ns) / 1e6);
      pre_in += static_cast<double>(s.prefilter_candidate_count);
      pre_out += static_cast<double>(s.prefilter_result_count);
    }

    // Layer replays and solo latencies on a sample of the traced requests.
    TraceBuf* replay = tracer.NewBuffer();
    LayerTotals layers;
    for (const Sample& s : Pick(p.samples, 12, Mix(opt.seed, 11), true)) {
      ReplayLayers(checker, s.spec, replay, &layers);
    }
    for (const Sample& s : Pick(p.samples, 12, Mix(opt.seed, 12), false)) {
      if (!s.spec.preference) ReplayLayers(checker, s.spec, replay, &layers);
    }
    std::vector<double> wait_share;
    for (const Sample& s : Pick(p.samples, 24, Mix(opt.seed, 13), true)) {
      wait_share.push_back(1.0 - w->SoloLatencyMs(s.spec) / s.ms);
    }
    mismatches += layers.mismatches;
    failed += layers.mismatches;

    auto span_us = [&](const char* name) {
      return Median(tracer.SelfTimesUs(name));
    };
    const double writes = static_cast<double>(p.writes_ok);
    m.Set("sql.parse_us", span_us("sql.ParseStatement"), "us");
    m.Set("sql.parameterize_us", span_us("sql.ParameterizeSql"), "us");
    m.Set("core.plan_cache_hit_ratio", Ratio(plan_hits, n), "ratio");
    m.Set("core.analyze_us", span_us("core.AnalyzePreferenceQuery"), "us");
    m.Set("core.rewrite_us", span_us("core.RewriteToSql"), "us");
    m.Set("core.rewrite_fallback_ratio", Ratio(fallbacks, pref_n), "ratio");
    m.Set("core.open_us", span_us("core.OpenCursor"), "us");
    m.Set("core.drain_us", span_us("core.drain"), "us");
    m.Set("core.wait_share", Median(wait_share), "ratio");
    static const char* kBmo[4] = {"core.bmo_ms.naive", "core.bmo_ms.bnl",
                                  "core.bmo_ms.sfs", "core.bmo_ms.less"};
    for (int a = 0; a < 4; ++a) m.Set(kBmo[a], Median(layers.bmo_ms[a]), "ms");
    m.Set("core.comparisons_per_candidate", Ratio(cmp, cand), "ratio");
    m.Set("core.candidates_per_result", Ratio(cand, res), "ratio");
    m.Set("preference.key_build_ms", Median(key_build_ms), "ms");
    m.Set("preference.key_append_us_per_row",
          Ratio(layers.append_us, layers.append_rows), "us");
    m.Set("preference.key_cache_hit_ratio", Ratio(key_hits, pref_n), "ratio");
    m.Set("preference.skyline_cache_hit_ratio", Ratio(sky_hits, pref_n),
          "ratio");
    static const char* kKernels[3] = {"preference.dominance_tests_per_s.scalar",
                                      "preference.dominance_tests_per_s.unrolled4",
                                      "preference.dominance_tests_per_s.avx2"};
    for (int v = 0; v < 3; ++v) {
      m.Set(kKernels[v], Ratio(layers.kernel_tests[v], layers.kernel_s[v]),
            "1/s");
    }
    m.Set("preference.maintenance_events_per_write",
          Ratio(after.maintenance - before.maintenance, writes), "ratio");
    m.Set("engine.rows_per_batch", Ratio(batch_rows, batches), "rows");
    m.Set("engine.batches_per_query", Ratio(batches, n), "count");
    m.Set("engine.row_fallback_ratio", Ratio(row_fallback, n), "ratio");
    m.Set("engine.prefilter_survival_ratio", Ratio(pre_out, pre_in), "ratio");
    m.Set("storage.versions_skipped_ratio",
          Ratio(after.skipped - before.skipped, after.scanned - before.scanned),
          "ratio");
    m.Set("storage.gc_cleared_per_s",
          (after.gc_cleared - before.gc_cleared) / p.seconds, "1/s");
    m.Set("storage.background_gc_passes", after.gc_passes - before.gc_passes,
          "count");
    // The wire layer's metrics stay 0 on the in-process workloads.
    for (const char* name : {"net.connect_ms", "net.open_us", "net.drain_us",
                             "net.overhead_us"}) {
      m.Set(name, 0, std::strstr(name, "_ms") ? "ms" : "us");
    }
    m.Set("net.rows_per_query", 0, "rows");
    m.Set("net.protocol_errors", 0, "count");
    m.Set("net.refused", 0, "count");
    w->AddLayerMetrics(m, tracer, replay);
    m.Set("bench.stage_coverage", Median(tracer.ChildCoverage("request")),
          "ratio");
    m.Set("bench.trace_overhead_ratio",
          Ratio(p.pref_ok / p.seconds, untraced.pref_ok / untraced.seconds),
          "ratio");
    std::vector<double> late = p.late_ms;
    late.insert(late.end(), untraced.late_ms.begin(), untraced.late_ms.end());
    m.Set("bench.writer_late_p99_ms", Quantile(late, 0.99), "ms");
    // The write tail, from the untraced half; ungated (perfbench/README.md).
    m.Set("write_p99_ms", Quantile(untraced.write_ms, 0.99), "ms");
    m.Set("bench.spans", static_cast<double>(tracer.span_count()), "count");
    if (!opt.trace_out.empty() && !tracer.WriteJsonl(opt.trace_out)) {
      std::cerr << "cannot write " << opt.trace_out << "\n";
      return 1;
    }
  }
  const uint64_t reads = p.pref_ok + p.plain_ok;
  for (int i = 0; i < kSetupsAfter; ++i) {
    w->Teardown();
    if (!set_up()) return 1;
  }
  w->Teardown();
  if (!opt.trace) {
    m.Set("setup_s", Median(setup_s), "s");
  } else {
    m.Set("bench.failed_ratio", Ratio(failed, attempted), "ratio");
  }

  for (const auto& e : errors) std::cerr << "error: " << e << "\n";
  const bool correct = mismatches == 0 && failed == 0;
  std::cout << "{\"workload\": " << JsonString(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"checked\": " << checked
            << ", \"facts\": {\"simd\": "
            << JsonString(prefsql::SimdVariantToString(
                   prefsql::DispatchedSimdVariant()))
            << ", \"build_type\": " << JsonString(PREFBENCH_BUILD_TYPE)
            << ", \"cxx_flags\": " << JsonString(PREFBENCH_CXX_FLAGS)
            << ", \"compiler\": " << JsonString(PREFBENCH_COMPILER)
            << ", \"hardware_threads\": "
            << std::thread::hardware_concurrency()
            << ", \"readers\": " << w->readers()
            << ", \"write_rate\": " << w->write_rate()
            << ", \"reads\": " << reads
            << ", \"setups_s\": " << JsonList(setup_s) << "}"
            << ", \"metrics\": " << m.ToJson() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace prefbench

int main(int argc, char** argv) {
  prefbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--goodput-limit-ms") {
      opt.goodput_limit_ms = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace-out") {
      opt.trace_out = v;
    } else {
      std::cerr << "unknown option " << k << "\n";
      return 2;
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) {
    std::cerr << "usage: prefbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  return prefbench::Run(opt);
}

// Serving-scale behaviour of the shared-engine architecture: repeated-query
// throughput cold vs. warm (prepared-plan cache + preference-key cache),
// cache benefit vs. caches off, multi-session scaling over one shared
// Engine, the cost of invalidation churn (DML between queries), and the
// cost of a single-row write as the number of cached entries grows.
//
// Writes BENCH_serving.json (bench_json.h record format). Wall times on
// shared CI runners are noisy; the signal is the cold/warm ratio and the
// hit flags, which are deterministic.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/connection.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr size_t kRows = 20000;
constexpr int kWarmIters = 50;
const char* kQuery =
    "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)";

// Mean latency of `iters` repetitions of kQuery on `conn`.
double MeanMs(prefsql::Connection& conn, int iters) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    auto r = conn.Execute(kQuery);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
  }
  return MsSince(t0) / iters;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

// Write cost vs cached entries: p50 of single-row INSERT, UPDATE and DELETE
// (point WHERE on the indexed id) over kRows cars while 0, 16 and 64
// skyline entries are cached, every one of which each write carries to the
// new table version. The entries are re-warmed (untimed) before each write,
// since a write that touches a skyline member drops that entry.
void DmlMaintenance(prefsql::benchjson::Writer& json) {
  constexpr int kRounds = 60;
  for (size_t entries : {size_t{0}, size_t{16}, size_t{64}}) {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok() ||
        !conn.Execute("CREATE INDEX car_id ON car (id)").ok() ||
        !conn.Execute("SET evaluation_mode = bnl").ok()) {
      std::fprintf(stderr, "dml_maintenance setup failed\n");
      std::exit(1);
    }
    size_t cached_min = SIZE_MAX;
    auto warm = [&] {
      for (size_t e = 0; e < entries; ++e) {
        (void)conn.Execute("SELECT id FROM car PREFERRING price AROUND " +
                           std::to_string(5000 + 250 * e) +
                           " AND LOWEST(mileage)");
      }
      cached_min = std::min(cached_min, conn.engine()->key_cache().size());
    };
    std::vector<double> insert_ms, update_ms, delete_ms;
    auto timed = [&](const std::string& sql, std::vector<double>* out) {
      warm();
      const auto t0 = Clock::now();
      auto r = conn.Execute(sql);
      out->push_back(MsSince(t0));
      if (!r.ok()) {
        std::fprintf(stderr, "dml_maintenance write failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
    };
    for (int i = 0; i < kRounds; ++i) {
      // A dominated row (far from every AROUND target, worst mileage), so
      // the entries survive the INSERT and its DELETE.
      const std::string id = std::to_string(900000 + i);
      timed("INSERT INTO car VALUES (" + id +
                ", 'zz', 'zz', 'zz', 'zz', 999999, 999999, 1, 1, 0, 0)",
            &insert_ms);
      timed("UPDATE car SET price = price + 1 WHERE id = " +
                std::to_string((static_cast<size_t>(i) * 331) % kRows),
            &update_ms);
      timed("DELETE FROM car WHERE id = " + id, &delete_ms);
    }
    std::printf(
        "dml maintenance, %zu rows, %zu cached entries: p50 insert %.3f ms, "
        "update %.3f ms, delete %.3f ms\n",
        kRows, cached_min, Median(insert_ms), Median(update_ms),
        Median(delete_ms));
    json.BeginRecord()
        .Field("section", "dml_maintenance")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("cached_entries", static_cast<uint64_t>(cached_min))
        .Field("rounds", static_cast<uint64_t>(kRounds))
        .Field("insert_p50_ms", Median(insert_ms))
        .Field("update_p50_ms", Median(update_ms))
        .Field("delete_p50_ms", Median(delete_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Mixed-traffic shape (section 10); CI's high-churn stress passes
  // --mixed-writers 8 --mixed-readers 8.
  int mixed_writers = 1;
  int mixed_readers = 2;
  // 0 = spin up an in-process prefsqld on an ephemeral loopback port;
  // nonzero = benchmark an externally started daemon (expects the usedcars
  // demo data set: prefsqld --demo usedcars).
  int networked_port = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--mixed-writers") == 0) {
      mixed_writers = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--mixed-readers") == 0) {
      mixed_readers = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--networked-port") == 0) {
      networked_port = std::atoi(argv[i + 1]);
    }
  }

  prefsql::benchjson::Writer json("serving");
  std::printf("=== Serving: engine caches and multi-session scaling ===\n");

  // --- 1. Cold vs warm, direct mode (plan cache + key cache) -------------
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) {
      std::fprintf(stderr, "generation failed\n");
      return 1;
    }
    (void)conn.Execute("SET evaluation_mode = bnl");
    const auto t0 = Clock::now();
    (void)conn.Execute(kQuery);
    const double cold_ms = MsSince(t0);
    const bool cold_hit = conn.last_stats().key_cache_hit;
    const uint64_t cold_key_ns = conn.last_stats().bmo_key_build_ns;
    const double warm_ms = MeanMs(conn, kWarmIters);
    const bool warm_key_hit = conn.last_stats().key_cache_hit;
    const bool warm_plan_hit = conn.last_stats().plan_cache_hit;
    const uint64_t warm_key_ns = conn.last_stats().bmo_key_build_ns;
    std::printf(
        "direct bnl, %zu rows: cold %.3f ms (key build %.3f ms) -> warm "
        "%.3f ms (key hit %d, plan hit %d), speedup %.2fx\n",
        kRows, cold_ms, cold_key_ns / 1e6, warm_ms, warm_key_hit,
        warm_plan_hit, cold_ms / warm_ms);
    json.BeginRecord()
        .Field("section", "cold_vs_warm")
        .Field("mode", "bnl")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("cold_ms", cold_ms)
        .Field("cold_key_build_ms", cold_key_ns / 1e6)
        .Field("cold_key_cache_hit", static_cast<uint64_t>(cold_hit))
        .Field("warm_ms", warm_ms)
        .Field("warm_key_build_ms", warm_key_ns / 1e6)
        .Field("warm_key_cache_hit", static_cast<uint64_t>(warm_key_hit))
        .Field("warm_plan_cache_hit", static_cast<uint64_t>(warm_plan_hit))
        .Field("warm_qps", 1000.0 / warm_ms)
        .Field("speedup", cold_ms / warm_ms);
  }

  // --- 2. Warm latency with the caches disabled (the baseline the caches
  //        are measured against) ------------------------------------------
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    (void)conn.Execute("SET plan_cache = off");
    (void)conn.Execute("SET key_cache = off");
    (void)conn.Execute(kQuery);  // comparable "already touched" state
    const double nocache_ms = MeanMs(conn, kWarmIters);
    std::printf("direct bnl, caches off: %.3f ms per query\n", nocache_ms);
    json.BeginRecord()
        .Field("section", "caches_off")
        .Field("mode", "bnl")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("warm_ms", nocache_ms)
        .Field("warm_qps", 1000.0 / nocache_ms);
  }

  // --- 3. Rewrite mode: the plan cache skips lex/parse/analyze -----------
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), 2000, 7).ok()) return 1;
    const auto t0 = Clock::now();
    (void)conn.Execute(kQuery);
    const double cold_ms = MsSince(t0);
    const double warm_ms = MeanMs(conn, kWarmIters);
    std::printf("rewrite, 2000 rows: cold %.3f ms -> warm %.3f ms\n",
                cold_ms, warm_ms);
    json.BeginRecord()
        .Field("section", "cold_vs_warm")
        .Field("mode", "rewrite")
        .Field("rows", static_cast<uint64_t>(2000))
        .Field("cold_ms", cold_ms)
        .Field("warm_ms", warm_ms)
        .Field("warm_plan_cache_hit",
               static_cast<uint64_t>(conn.last_stats().plan_cache_hit));
  }

  // --- 4. Multi-session scaling over one shared engine -------------------
  for (size_t sessions : {1u, 2u, 4u}) {
    auto engine = std::make_shared<prefsql::Engine>();
    {
      prefsql::Connection setup;
      setup.Attach(engine);
      if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) {
        return 1;
      }
    }
    constexpr int kPerSession = 40;
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&engine] {
        prefsql::Connection conn;
        conn.Attach(engine);
        (void)conn.Execute("SET evaluation_mode = bnl");
        for (int i = 0; i < kPerSession; ++i) (void)conn.Execute(kQuery);
      });
    }
    for (auto& t : threads) t.join();
    const double total_ms = MsSince(t0);
    const double qps = sessions * kPerSession * 1000.0 / total_ms;
    std::printf("%zu session(s): %.0f queries/s (%.3f ms total)\n", sessions,
                qps, total_ms);
    json.BeginRecord()
        .Field("section", "multi_session")
        .Field("sessions", static_cast<uint64_t>(sessions))
        .Field("queries", static_cast<uint64_t>(sessions * kPerSession))
        .Field("total_ms", total_ms)
        .Field("qps", qps)
        .Field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }

  // --- 5. Invalidation churn: DML between queries keeps the key cache
  //        permanently cold ------------------------------------------------
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    (void)conn.Execute(kQuery);
    constexpr int kIters = 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      (void)conn.Execute(
          "INSERT INTO car VALUES (999999, 'zz', 'zz', 'zz', 'zz', 999999, "
          "999999, 1, 1, 0, 0)");
      (void)conn.Execute("DELETE FROM car WHERE id = 999999");
      auto r = conn.Execute(kQuery);
      if (!r.ok()) {
        std::fprintf(stderr, "churn query failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    const double churn_ms = MsSince(t0) / kIters;
    std::printf(
        "invalidation churn: %.3f ms per (insert+delete+query) round, key "
        "hit=%d\n",
        churn_ms, conn.last_stats().key_cache_hit);
    json.BeginRecord()
        .Field("section", "invalidation_churn")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("round_ms", churn_ms)
        .Field("final_key_cache_hit",
               static_cast<uint64_t>(conn.last_stats().key_cache_hit));
  }

  // --- 6. Prepared vs unprepared: the client-surface tiers, each request
  //        asking for a different AROUND target (the realistic serving
  //        shape — per-request values, shared plan):
  //        unprepared = plan cache off, full lex/parse/analyze per query;
  //        text       = literal text, auto-parameterized plan-cache hit;
  //        prepared   = PreparedStatement, bind + execute per request;
  //        fixed      = prepared with an unchanged value (fully warm:
  //                     plan-cache hit + key-cache hit).
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    // The varying tiers share preference fingerprints across loops, so the
    // key cache would let the first tier pay every key build; disable it
    // here to isolate what this section measures (the parse/plan path).
    (void)conn.Execute("SET key_cache = off");
    auto text_query = [](int target) {
      return "SELECT id FROM car PREFERRING price AROUND " +
             std::to_string(target) + " AND LOWEST(mileage)";
    };

    (void)conn.Execute("SET plan_cache = off");
    (void)conn.Execute(text_query(15000));
    const auto t_unprepared = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)conn.Execute(text_query(15000 + i));
    }
    const double unprepared_ms = MsSince(t_unprepared) / kWarmIters;

    (void)conn.Execute("SET plan_cache = on");
    (void)conn.Execute(text_query(15000));
    const auto t_text = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)conn.Execute(text_query(15000 + i));
    }
    const double text_ms = MsSince(t_text) / kWarmIters;
    const bool text_hit = conn.last_stats().plan_cache_hit;

    auto stmt = conn.Prepare(
        "SELECT id FROM car PREFERRING price AROUND $target AND "
        "LOWEST(mileage)");
    if (!stmt.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   stmt.status().ToString().c_str());
      return 1;
    }
    (void)stmt->Bind("target", prefsql::Value::Int(15000));
    (void)stmt->Execute();
    const auto t_prepared = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)stmt->Bind("target", prefsql::Value::Int(15000 + i));
      auto r = stmt->Execute();
      if (!r.ok()) {
        std::fprintf(stderr, "prepared execute failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    const double prepared_ms = MsSince(t_prepared) / kWarmIters;
    const bool prepared_hit = conn.last_stats().plan_cache_hit;

    // cycled = a small rotating set of bound values: after the first cycle
    // every execute finds its compiled PREFERRING clause in the plan's
    // per-bound-value memo and skips the recompile entirely.
    constexpr int kCycle = 8;
    for (int i = 0; i < kCycle; ++i) {
      (void)stmt->Bind("target", prefsql::Value::Int(15000 + i));
      (void)stmt->Execute();
    }
    const auto t_cycled = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)stmt->Bind("target", prefsql::Value::Int(15000 + (i % kCycle)));
      auto r = stmt->Execute();
      if (!r.ok()) {
        std::fprintf(stderr, "cycled execute failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    const double cycled_ms = MsSince(t_cycled) / kWarmIters;

    (void)conn.Execute("SET key_cache = on");
    (void)stmt->Bind("target", prefsql::Value::Int(15000));
    (void)stmt->Execute();
    (void)stmt->Execute();
    const auto t_fixed = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) (void)stmt->Execute();
    const double fixed_ms = MsSince(t_fixed) / kWarmIters;
    const bool fixed_key_hit = conn.last_stats().key_cache_hit;

    std::printf(
        "prepared vs unprepared (varying target), %zu rows: unprepared "
        "%.3f ms, text (auto-param hit %d) %.3f ms, prepared (hit %d) %.3f "
        "ms, cycled (bound-value memo) %.3f ms, fixed-value prepared %.3f "
        "ms (key hit %d)\n",
        kRows, unprepared_ms, text_hit, text_ms, prepared_hit, prepared_ms,
        cycled_ms, fixed_ms, fixed_key_hit);
    json.BeginRecord()
        .Field("section", "prepared_vs_unprepared")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("unprepared_ms", unprepared_ms)
        .Field("text_ms", text_ms)
        .Field("text_plan_cache_hit", static_cast<uint64_t>(text_hit))
        .Field("prepared_ms", prepared_ms)
        .Field("prepared_plan_cache_hit",
               static_cast<uint64_t>(prepared_hit))
        .Field("prepared_cycled_ms", cycled_ms)
        .Field("prepared_fixed_ms", fixed_ms)
        .Field("prepared_fixed_key_cache_hit",
               static_cast<uint64_t>(fixed_key_hit))
        .Field("prepared_speedup", unprepared_ms / prepared_ms);
  }

  // --- 7. Streaming vs materialized: Cursor against Execute ---------------
  //        Full drains must cost about the same; the cursor's win is the
  //        top-k client stop (close after k rows, no tail evaluation of the
  //        projection pipeline and no result materialization).
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    const char* wide_query = "SELECT * FROM car WHERE price < 900000";
    constexpr int kIters = 20;
    constexpr size_t kTopK = 10;

    (void)conn.Execute(wide_query);
    const auto t_mat = Clock::now();
    for (int i = 0; i < kIters; ++i) (void)conn.Execute(wide_query);
    const double materialized_ms = MsSince(t_mat) / kIters;

    size_t streamed_rows = 0;
    const auto t_stream = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      auto cursor = conn.OpenCursor(wide_query);
      if (!cursor.ok()) return 1;
      streamed_rows = 0;
      for (;;) {
        auto row = cursor->Next();
        if (!row.ok() || !row->has_value()) break;
        ++streamed_rows;
      }
    }
    const double streamed_ms = MsSince(t_stream) / kIters;

    const auto t_topk = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      auto cursor = conn.OpenCursor(wide_query);
      if (!cursor.ok()) return 1;
      for (size_t k = 0; k < kTopK; ++k) {
        auto row = cursor->Next();
        if (!row.ok() || !row->has_value()) break;
      }
      cursor->Close();
    }
    const double topk_ms = MsSince(t_topk) / kIters;
    std::printf(
        "streaming vs materialized, %zu rows out: Execute %.3f ms, cursor "
        "full drain %.3f ms, cursor stop@%zu %.3f ms (%.1fx)\n",
        streamed_rows, materialized_ms, streamed_ms, kTopK, topk_ms,
        materialized_ms / topk_ms);
    json.BeginRecord()
        .Field("section", "streaming_vs_materialized")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("result_rows", static_cast<uint64_t>(streamed_rows))
        .Field("materialized_ms", materialized_ms)
        .Field("streamed_full_ms", streamed_ms)
        .Field("topk", static_cast<uint64_t>(kTopK))
        .Field("streamed_topk_ms", topk_ms)
        .Field("topk_speedup", materialized_ms / topk_ms);
  }

  // --- 8. Skyline result cache: a warm hit serves the memoized maximal
  //        positions without a dominance pass — against the warm key-cache
  //        path, which re-runs the BMO over cached packed keys every query.
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");

    (void)conn.Execute("SET skyline_cache = off");
    (void)conn.Execute(kQuery);
    (void)conn.Execute(kQuery);
    const double keycache_ms = MeanMs(conn, kWarmIters);
    const bool keycache_hit = conn.last_stats().key_cache_hit;

    (void)conn.Execute("SET skyline_cache = on");
    (void)conn.Execute(kQuery);  // recompute + publish under this knob set
    (void)conn.Execute(kQuery);
    const double skyline_ms = MeanMs(conn, kWarmIters);
    const bool skyline_hit = conn.last_stats().skyline_cache_hit;
    std::printf(
        "skyline cache, %zu rows: warm key-cache BMO %.3f ms -> warm "
        "skyline hit %.3f ms (hit %d), speedup %.2fx\n",
        kRows, keycache_ms, skyline_ms, skyline_hit,
        keycache_ms / skyline_ms);
    json.BeginRecord()
        .Field("section", "skyline_cache_warm")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("warm_keycache_ms", keycache_ms)
        .Field("warm_keycache_hit", static_cast<uint64_t>(keycache_hit))
        .Field("warm_skyline_ms", skyline_ms)
        .Field("warm_skyline_hit", static_cast<uint64_t>(skyline_hit))
        .Field("speedup", keycache_ms / skyline_ms);
  }

  // --- 9. Incremental maintenance vs full recompute: a dominated INSERT
  //        between queries. With the skyline cache the engine dominance-
  //        tests the one new row against the cached maximal set and keeps
  //        serving; without it every query re-runs the BMO from the keys.
  {
    constexpr int kRounds = 20;
    auto run_rounds = [&](prefsql::Connection& conn, int id_base) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kRounds; ++i) {
        (void)conn.Execute(
            "INSERT INTO car VALUES (" + std::to_string(id_base + i) +
            ", 'zz', 'zz', 'zz', 'zz', 999999, 999999, 1, 1, 0, 0)");
        auto r = conn.Execute(kQuery);
        if (!r.ok()) {
          std::fprintf(stderr, "maintenance round failed: %s\n",
                       r.status().ToString().c_str());
          std::exit(1);
        }
      }
      return MsSince(t0) / kRounds;
    };

    prefsql::Connection incremental;
    if (!prefsql::GenerateUsedCars(incremental.database(), kRows, 7).ok()) {
      return 1;
    }
    (void)incremental.Execute("SET evaluation_mode = bnl");
    (void)incremental.Execute(kQuery);  // publish the skyline entry
    const double incremental_ms = run_rounds(incremental, 900000);
    const bool final_hit = incremental.last_stats().skyline_cache_hit;
    const uint64_t maintenance_events =
        incremental.last_stats().skyline_maintenance_events;

    prefsql::Connection recompute;
    if (!prefsql::GenerateUsedCars(recompute.database(), kRows, 7).ok()) {
      return 1;
    }
    (void)recompute.Execute("SET evaluation_mode = bnl");
    (void)recompute.Execute("SET skyline_cache = off");
    (void)recompute.Execute(kQuery);
    const double recompute_ms = run_rounds(recompute, 900000);

    std::printf(
        "insert churn, %zu rows: full recompute %.3f ms per round -> "
        "incremental maintenance %.3f ms (final hit %d), speedup %.2fx\n",
        kRows, recompute_ms, incremental_ms, final_hit,
        recompute_ms / incremental_ms);
    json.BeginRecord()
        .Field("section", "skyline_cache_maintenance")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("rounds", static_cast<uint64_t>(kRounds))
        .Field("recompute_round_ms", recompute_ms)
        .Field("incremental_round_ms", incremental_ms)
        .Field("final_skyline_hit", static_cast<uint64_t>(final_hit))
        .Field("maintenance_events", maintenance_events)
        .Field("speedup", recompute_ms / incremental_ms);
  }

  // --- 10. Readers vs writers: mixed traffic under MVCC. Writers churn
  //         the table (insert / update / delete cycle, each statement one
  //         commit epoch) while readers stream the skyline query at their
  //         own pinned snapshots. Pre-MVCC every DML statement stalled the
  //         whole reader pool on the engine lock; now the signal is reader
  //         latency under churn vs. a quiet engine, plus sustained writer
  //         throughput while every reader keeps pulling.
  {
    const int n_writers = mixed_writers > 0 ? mixed_writers : 1;
    const int n_readers = mixed_readers > 0 ? mixed_readers : 1;
    constexpr int kReaderIters = 300;

    auto engine = std::make_shared<prefsql::Engine>();
    prefsql::Connection setup;
    setup.Attach(engine);
    if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) return 1;
    (void)setup.Execute("SET evaluation_mode = bnl");
    (void)setup.Execute(kQuery);  // warm the caches once

    auto reader_pool_mean_ms = [&](bool with_writers, uint64_t* writer_stmts,
                                   uint64_t* gc_cleared) {
      std::atomic<bool> done{false};
      std::atomic<uint64_t> stmts{0};
      std::vector<std::thread> writers;
      for (int w = 0; w < (with_writers ? n_writers : 0); ++w) {
        writers.emplace_back([&, w]() {
          prefsql::Connection conn;
          conn.Attach(engine);
          const int id_base = 800000 + w * 10000;
          for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
            const std::string id = std::to_string(id_base + i % 1000);
            (void)conn.Execute("INSERT INTO car VALUES (" + id +
                               ", 'zz', 'zz', 'zz', 'zz', 999999, 999999, "
                               "1, 1, 0, 0)");
            (void)conn.Execute("UPDATE car SET price = 888888 WHERE id = " +
                               id);
            (void)conn.Execute("DELETE FROM car WHERE id = " + id);
            stmts.fetch_add(3, std::memory_order_relaxed);
          }
          if (gc_cleared != nullptr) {
            *gc_cleared = conn.last_stats().mvcc_gc_cleared;
          }
        });
      }
      std::vector<std::thread> readers;
      std::vector<double> total_ms(n_readers, 0.0);
      for (int r = 0; r < n_readers; ++r) {
        readers.emplace_back([&, r]() {
          prefsql::Connection conn;
          conn.Attach(engine);
          (void)conn.Execute("SET evaluation_mode = bnl");
          const auto t0 = Clock::now();
          for (int i = 0; i < kReaderIters; ++i) {
            auto res = conn.Execute(kQuery);
            if (!res.ok()) {
              std::fprintf(stderr, "mixed read failed: %s\n",
                           res.status().ToString().c_str());
              std::exit(1);
            }
          }
          total_ms[r] = MsSince(t0);
        });
      }
      for (auto& t : readers) t.join();
      done.store(true, std::memory_order_release);
      for (auto& t : writers) t.join();
      if (writer_stmts != nullptr) *writer_stmts = stmts.load();
      double sum = 0.0;
      for (double ms : total_ms) sum += ms;
      return sum / (static_cast<double>(n_readers) * kReaderIters);
    };

    const double quiet_ms = reader_pool_mean_ms(false, nullptr, nullptr);
    uint64_t writer_stmts = 0;
    uint64_t gc_cleared = 0;
    const auto t0 = Clock::now();
    const double churn_ms =
        reader_pool_mean_ms(true, &writer_stmts, &gc_cleared);
    const double wall_ms = MsSince(t0);
    const double writer_qps = writer_stmts / (wall_ms / 1000.0);
    std::printf(
        "mixed traffic, %zu rows, %d writers x %d readers: reader %.3f ms "
        "quiet -> %.3f ms under churn (%.2fx), writers sustained %.0f "
        "stmts/s (%llu total, gc cleared %llu)\n",
        kRows, n_writers, n_readers, quiet_ms, churn_ms, churn_ms / quiet_ms,
        writer_qps, static_cast<unsigned long long>(writer_stmts),
        static_cast<unsigned long long>(gc_cleared));
    json.BeginRecord()
        .Field("section", "mixed_traffic")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("writers", static_cast<uint64_t>(n_writers))
        .Field("readers", static_cast<uint64_t>(n_readers))
        .Field("reader_iters", static_cast<uint64_t>(kReaderIters))
        .Field("reader_quiet_ms", quiet_ms)
        .Field("reader_churn_ms", churn_ms)
        .Field("reader_slowdown", churn_ms / quiet_ms)
        .Field("writer_stmts_per_sec", writer_qps)
        .Field("writer_stmts_total", writer_stmts)
        .Field("gc_cleared", gc_cleared);
  }

  // --- 11. Cancellation: time-to-cancel under mixed traffic. A victim
  //         session runs a heavy 4-d skyline with the result caches off
  //         (every run recomputes); once its statement context is armed,
  //         Session::CancelCurrent() fires from the bench thread and we
  //         measure cancel-issue -> statement-return while writers churn
  //         the table. The signal is the p99: the longest stretch any
  //         operator runs between interrupt polls.
  {
    const int n_writers = mixed_writers > 0 ? mixed_writers : 1;
    constexpr int kSamples = 40;
    const char* heavy_query =
        "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) "
        "AND HIGHEST(power) AND LOWEST(age)";

    auto engine = std::make_shared<prefsql::Engine>();
    prefsql::Connection setup;
    setup.Attach(engine);
    if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) return 1;

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < n_writers; ++w) {
      writers.emplace_back([&, w]() {
        prefsql::Connection conn;
        conn.Attach(engine);
        const int id_base = 700000 + w * 10000;
        for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
          const std::string id = std::to_string(id_base + i % 1000);
          (void)conn.Execute("INSERT INTO car VALUES (" + id +
                             ", 'zz', 'zz', 'zz', 'zz', 999999, 999999, "
                             "1, 1, 0, 0)");
          (void)conn.Execute("DELETE FROM car WHERE id = " + id);
        }
      });
    }

    prefsql::Connection victim;
    victim.Attach(engine);
    (void)victim.Execute("SET evaluation_mode = bnl");
    (void)victim.Execute("SET key_cache = off");
    (void)victim.Execute("SET skyline_cache = off");

    std::vector<double> cancel_ms;
    int completed_early = 0;
    for (int s = 0; s < kSamples; ++s) {
      std::atomic<bool> finished{false};
      Clock::time_point returned;
      prefsql::Status outcome = prefsql::Status::OK();
      std::thread runner([&]() {
        auto r = victim.Execute(heavy_query);
        returned = Clock::now();
        outcome = r.status();
        finished.store(true, std::memory_order_release);
      });
      // Arm-spin: CancelCurrent() succeeds the moment the statement's
      // context is published.
      while (!victim.session().CancelCurrent() &&
             !finished.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const auto issued = Clock::now();
      runner.join();
      if (outcome.IsCancelled()) {
        cancel_ms.push_back(
            std::chrono::duration<double, std::milli>(returned - issued)
                .count());
      } else {
        ++completed_early;  // statement beat the kill switch; not a sample
      }
    }
    done.store(true, std::memory_order_release);
    for (auto& t : writers) t.join();

    std::sort(cancel_ms.begin(), cancel_ms.end());
    auto pct = [&](double p) {
      if (cancel_ms.empty()) return 0.0;
      size_t idx = static_cast<size_t>(p * (cancel_ms.size() - 1));
      return cancel_ms[idx];
    };
    std::printf(
        "cancellation, %zu rows, %d writers churning: %zu cancelled "
        "(%d completed early), time-to-cancel p50 %.3f ms, p99 %.3f ms, "
        "max %.3f ms\n",
        kRows, n_writers, cancel_ms.size(), completed_early, pct(0.5),
        pct(0.99), cancel_ms.empty() ? 0.0 : cancel_ms.back());
    json.BeginRecord()
        .Field("section", "cancellation")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("writers", static_cast<uint64_t>(n_writers))
        .Field("samples", static_cast<uint64_t>(cancel_ms.size()))
        .Field("completed_early", static_cast<uint64_t>(completed_early))
        .Field("cancel_p50_ms", pct(0.5))
        .Field("cancel_p99_ms", pct(0.99))
        .Field("cancel_max_ms", cancel_ms.empty() ? 0.0 : cancel_ms.back());
  }

  // --- 12. Networked serving: concurrent wire-protocol clients against a
  //         prefsqld instance. Eight clients connect over TCP, prepare the
  //         AROUND-target skyline query once, and stream every execution's
  //         rows through FETCH pages — per-query latency includes the bind
  //         ship, the execute round trip, and every page round trip, so the
  //         percentiles measure the full serving stack (framing, reactor,
  //         handler pool, engine) rather than the engine alone.
  {
    constexpr int kClients = 8;
    constexpr int kPerClient = 40;

    std::unique_ptr<prefsql::net::Server> server;
    int port = networked_port;
    if (port == 0) {
      auto engine = std::make_shared<prefsql::Engine>();
      {
        prefsql::Connection setup;
        setup.Attach(engine);
        if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) {
          return 1;
        }
      }
      prefsql::net::ServerOptions options;
      options.max_connections = kClients + 2;
      server = std::make_unique<prefsql::net::Server>(engine, options);
      auto started = server->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      port = server->port();
    }

    std::vector<std::vector<double>> per_client(kClients);
    std::atomic<int> failures{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        auto client = prefsql::net::Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          std::fprintf(stderr, "client %d connect failed: %s\n", c,
                       client.status().ToString().c_str());
          failures.fetch_add(1);
          return;
        }
        (void)(*client)->Execute("SET evaluation_mode = bnl");
        auto stmt = (*client)->Prepare(
            "SELECT id FROM car PREFERRING price AROUND $target AND "
            "LOWEST(mileage)");
        if (!stmt.ok()) {
          std::fprintf(stderr, "client %d prepare failed: %s\n", c,
                       stmt.status().ToString().c_str());
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          (void)stmt->Bind("target", prefsql::Value::Int(
                                         15000 + (c * kPerClient + i) % 64));
          const auto q0 = Clock::now();
          auto cursor = stmt->Open();
          if (!cursor.ok()) {
            std::fprintf(stderr, "client %d open failed: %s\n", c,
                         cursor.status().ToString().c_str());
            failures.fetch_add(1);
            return;
          }
          for (;;) {
            auto row = cursor->Next();
            if (!row.ok()) {
              std::fprintf(stderr, "client %d fetch failed: %s\n", c,
                           row.status().ToString().c_str());
              failures.fetch_add(1);
              return;
            }
            if (!row->has_value()) break;
          }
          per_client[c].push_back(MsSince(q0));
        }
      });
    }
    for (auto& t : clients) t.join();
    const double wall_ms = MsSince(t0);
    if (server != nullptr) server->Shutdown();
    if (failures.load() != 0) return 1;

    std::vector<double> latencies;
    for (const auto& samples : per_client) {
      latencies.insert(latencies.end(), samples.begin(), samples.end());
    }
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
      if (latencies.empty()) return 0.0;
      size_t idx = static_cast<size_t>(p * (latencies.size() - 1));
      return latencies[idx];
    };
    const double qps = latencies.size() * 1000.0 / wall_ms;
    std::printf(
        "networked, %zu rows, %d clients x %d queries over TCP: p50 %.3f "
        "ms, p95 %.3f ms, p99 %.3f ms, %.0f queries/s (%.3f ms wall)\n",
        kRows, kClients, kPerClient, pct(0.5), pct(0.95), pct(0.99), qps,
        wall_ms);
    json.BeginRecord()
        .Field("section", "networked")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("clients", static_cast<uint64_t>(kClients))
        .Field("queries_per_client", static_cast<uint64_t>(kPerClient))
        .Field("queries", static_cast<uint64_t>(latencies.size()))
        .Field("external_daemon", static_cast<uint64_t>(networked_port != 0))
        .Field("p50_ms", pct(0.5))
        .Field("p95_ms", pct(0.95))
        .Field("p99_ms", pct(0.99))
        .Field("wall_ms", wall_ms)
        .Field("qps", qps);
  }

  // --- 13. Write cost vs cached skyline entries (see DmlMaintenance). ---
  DmlMaintenance(json);

  if (!json.Write()) {
    std::fprintf(stderr, "failed to write BENCH_serving.json\n");
    return 1;
  }
  std::printf("wrote BENCH_serving.json\n");
  return 0;
}

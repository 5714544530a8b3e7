// serve_mixed: an in-process net::Server on loopback over generated used
// cars. Three reader connections (SET evaluation_mode = bnl) each Prepare
// the §2.2.2 car-dealer query once, then per read bind a target drawn from
// a seeded Zipf distribution over a few hundred values, Open, and drain
// every row through FETCH pages; a tenth of the reads are plain range
// SELECTs. One writer connection cycles INSERT / UPDATE / DELETE on the
// same table in an open loop, so the plan, key and skyline caches, MVCC
// versions, GC and skyline-cache maintenance all work under invalidation.

#include <map>

#include "net/client.h"
#include "net/server.h"
#include "workload.h"
#include "workload/generators.h"

namespace prefbench {
namespace {

constexpr size_t kCars = 20000;
constexpr size_t kTargets = 300;
const char* kTemplate =
    "SELECT id FROM car PREFERRING price AROUND $target AND LOWEST(mileage)";

std::string PreferenceText(int64_t target) {
  return "SELECT id FROM car PREFERRING price AROUND " +
         std::to_string(target) + " AND LOWEST(mileage)";
}

prefsql::Result<std::vector<std::string>> Drain(
    prefsql::Result<prefsql::net::RemoteCursor> cursor) {
  if (!cursor.ok()) return cursor.status();
  std::vector<std::string> ids;
  for (;;) {
    auto row = cursor->Next();
    if (!row.ok()) return row.status();
    if (!row->has_value()) break;
    ids.push_back((**row)[0].ToString());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

class ServeMixed : public Workload {
 public:
  double write_rate() const override { return 50; }

  prefsql::Status Setup(uint64_t seed) override {
    engine_ = std::make_shared<prefsql::Engine>();
    PSQL_RETURN_IF_ERROR(
        prefsql::GenerateUsedCars(engine_->database(), kCars, seed));
    {
      prefsql::Connection admin;
      admin.Attach(engine_);
      PSQL_RETURN_IF_ERROR(
          admin.Execute("CREATE INDEX car_id ON car (id)").status());
    }
    prefsql::net::ServerOptions so;
    so.max_connections = 8;
    server_ = std::make_unique<prefsql::net::Server>(engine_, so);
    PSQL_RETURN_IF_ERROR(server_->Start());
    for (size_t r = 0; r <= readers(); ++r) {
      Clock::time_point t0 = Clock::now();
      auto client = prefsql::net::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) return client.status();
      connect_ms_.push_back(MsBetween(t0, Clock::now()));
      if (r == readers()) {
        writer_ = std::move(*client);
        break;
      }
      PSQL_RETURN_IF_ERROR(
          (*client)->Execute("SET evaluation_mode = bnl").status());
      auto stmt = (*client)->Prepare(kTemplate);
      if (!stmt.ok()) return stmt.status();
      readers_.push_back(std::move(*client));
      stmts_.push_back(std::move(*stmt));
      shadows_.push_back(std::make_unique<prefsql::Connection>(DirectOptions()));
      shadows_.back()->Attach(engine_);
      auto local = shadows_.back()->Prepare(kTemplate);
      if (!local.ok()) return local.status();
      shadow_stmts_.push_back(std::move(*local));
    }
    // The bindable targets: a seeded permutation of a price grid, so the
    // popular (low Zipf rank) targets differ per seed.
    targets_.clear();
    for (size_t i = 0; i < kTargets; ++i) {
      targets_.push_back(5000 + 250 * static_cast<int64_t>(i));
    }
    prefsql::Random rng(seed ^ 0x7a7a7a7aull);
    for (size_t i = kTargets; i > 1; --i) {
      std::swap(targets_[i - 1],
                targets_[static_cast<size_t>(
                    rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
    return prefsql::Status::OK();
  }

  void Teardown() override {
    shadow_stmts_.clear();
    shadows_.clear();
    stmts_.clear();
    readers_.clear();
    writer_.reset();
    if (server_) server_->Shutdown();
    server_.reset();
    engine_.reset();
  }

  ReadSpec NextRead(prefsql::Random& rng) override {
    ReadSpec spec;
    if (rng.Uniform(0, 9) == 0) {
      int64_t lo = rng.Uniform(5, 120) * 500;
      spec.preference = false;
      spec.shape = "plain_range";
      spec.text = "SELECT id, price FROM car WHERE price >= " +
                  std::to_string(lo) + " AND price <= " +
                  std::to_string(lo + 1500) + " AND mileage < " +
                  std::to_string(rng.Uniform(20, 200) * 1000);
      return spec;
    }
    spec.shape = "around_lowest";
    spec.target = targets_[rng.Zipf(kTargets, 1.0)];
    spec.text = PreferenceText(spec.target);
    spec.candidates_sql = "SELECT id, price, mileage FROM car";
    return spec;
  }

  ReadOutcome Read(size_t reader, const ReadSpec& spec,
                   TraceBuf* trace) override {
    ReadOutcome out;
    prefsql::net::Client& client = *readers_[reader];
    if (!spec.preference) {
      ScopedSpan request(trace, "request", spec.id);
      ScopedSpan s(trace, "net.Client::Execute", spec.id);
      auto res = client.Execute(spec.text);
      out.ok = res.ok();
      if (!out.ok) out.error = res.status().ToString();
      return out;
    }
    prefsql::net::RemoteStatement& stmt = stmts_[reader];
    ScopedSpan request(trace, "request", spec.id);
    prefsql::Status bound = stmt.Bind("target", prefsql::Value::Int(spec.target));
    if (!bound.ok()) {
      out.error = bound.ToString();
      return out;
    }
    prefsql::Result<prefsql::net::RemoteCursor> cursor = [&] {
      ScopedSpan s(trace, "net.RemoteStatement::Open", spec.id);
      return stmt.Open();
    }();
    if (!cursor.ok()) {
      out.error = cursor.status().ToString();
      return out;
    }
    ScopedSpan drain(trace, "net.drain", spec.id);
    for (;;) {
      auto row = cursor->Next();
      if (!row.ok()) {
        out.error = row.status().ToString();
        return out;
      }
      if (!row->has_value()) break;
    }
    out.ok = true;
    return out;
  }

  /// The server's sessions are not reachable from a client, so the same
  /// bound request on an in-process session against the same engine
  /// stands in for their statement statistics.
  bool has_shadow_reads() const override { return true; }
  ReadOutcome ShadowRead(size_t reader, const ReadSpec& spec) override {
    ReadOutcome out;
    prefsql::PreparedStatement& local = shadow_stmts_[reader];
    prefsql::Status st = local.Bind("target", prefsql::Value::Int(spec.target));
    if (st.ok()) st = local.Execute().status();
    out.ok = st.ok();
    if (!out.ok) {
      out.error = st.ToString();
      return out;
    }
    out.has_stats = true;
    out.stats = shadows_[reader]->last_stats();
    return out;
  }

  std::string NextWrite(uint64_t k, prefsql::Random& rng) override {
    const std::string inserted = std::to_string(kCars + k / 3);
    switch (k % 3) {
      case 0:
        return "INSERT INTO car VALUES (" + inserted +
               ", 'BMW', 'BM" + std::to_string(rng.Uniform(100, 999)) +
               "', 'suv', 'red', " + std::to_string(rng.Uniform(5, 120) * 500) +
               ", " + std::to_string(rng.Uniform(0, 200000)) + ", " +
               std::to_string(rng.Uniform(40, 320)) + ", " +
               std::to_string(rng.Uniform(0, 25)) + ", 'no', 'yes')";
      case 1:
        return "UPDATE car SET price = " +
               std::to_string(rng.Uniform(5, 120) * 500) + " WHERE id = " +
               std::to_string(rng.Uniform(0, kCars - 1));
      default:  // removes the row inserted two statements earlier
        return "DELETE FROM car WHERE id = " + inserted;
    }
  }

  prefsql::Status Write(const std::string& sql) override {
    return writer_->Execute(sql).status();
  }

  std::shared_ptr<prefsql::Engine> engine() override { return engine_; }

  prefsql::Result<std::vector<std::string>> ClientRows(
      const ReadSpec& spec) override {
    if (!spec.preference) {
      auto res = readers_[0]->Execute(spec.text);
      if (!res.ok()) return res.status();
      return RenderRows(*res, 1);
    }
    PSQL_RETURN_IF_ERROR(
        stmts_[0].Bind("target", prefsql::Value::Int(spec.target)));
    return Drain(stmts_[0].Open());
  }

  /// The wire rows must equal the same bound request run in-process.
  std::string CrossCheck(const ReadSpec& spec) override {
    auto remote = ClientRows(spec);
    prefsql::Connection local(DirectOptions());
    local.Attach(engine_);
    prefsql::Result<prefsql::ResultTable> rows = [&] {
      if (!spec.preference) return local.Execute(spec.text);
      auto stmt = local.Prepare(kTemplate);
      if (!stmt.ok()) return prefsql::Result<prefsql::ResultTable>(stmt.status());
      prefsql::Status st = stmt->Bind("target", prefsql::Value::Int(spec.target));
      if (!st.ok()) return prefsql::Result<prefsql::ResultTable>(st);
      return stmt->Execute();
    }();
    if (!remote.ok() || !rows.ok()) return "remote or in-process read failed";
    if (*remote != RenderRows(*rows, 1)) {
      return "wire rows differ from the in-process rows";
    }
    return "";
  }

  double SoloLatencyMs(const ReadSpec& spec) override {
    Clock::time_point t0 = Clock::now();
    auto rows = ClientRows(spec);
    return MsBetween(t0, Clock::now());
  }

  void AddLayerMetrics(Metrics& m, const Tracer& tracer,
                       TraceBuf* replay) override {
    m.Set("net.connect_ms", Median(connect_ms_), "ms");
    m.Set("net.open_us", Median(tracer.SelfTimesUs("net.RemoteStatement::Open")),
          "us");
    m.Set("net.drain_us", Median(tracer.SelfTimesUs("net.drain")), "us");
    // Wire overhead: the same bound requests, quiesced, alternately over
    // the wire and on an in-process prepared statement.
    std::vector<double> remote_us, local_us;
    prefsql::Random rng(0x0ddba11);
    for (int i = 0; i < 200; ++i) {
      int64_t target = targets_[rng.Zipf(kTargets, 1.0)];
      for (int side = 0; side < 2; ++side) {
        bool wire = (side == 0) == (i % 2 == 0);
        if (wire) {
          ScopedSpan s(replay, "net.replay.wire", 0);
          if (!stmts_[0].Bind("target", prefsql::Value::Int(target)).ok()) {
            continue;
          }
          auto ids = Drain(stmts_[0].Open());
          remote_us.push_back(s.Finish());
        } else {
          ScopedSpan s(replay, "net.replay.inprocess", 0);
          if (!shadow_stmts_[0].Bind("target", prefsql::Value::Int(target))
                   .ok()) {
            continue;
          }
          auto rows = shadow_stmts_[0].Execute();
          local_us.push_back(s.Finish());
        }
      }
    }
    m.Set("net.overhead_us", Median(remote_us) - Median(local_us), "us");
    auto stats = readers_[0]->Stats();
    if (stats.ok()) {
      std::map<std::string, double> kv;
      for (const auto& [k, v] : *stats) kv[k] = static_cast<double>(v);
      m.Set("net.rows_per_query", Ratio(kv["rows_shipped"], kv["statements"]),
            "rows");
      m.Set("net.protocol_errors", kv["protocol_errors"], "count");
      m.Set("net.refused", kv["connections_refused"], "count");
    }
  }

  uint64_t refused() const override {
    return server_ ? server_->stats().connections_refused.load() +
                         server_->stats().protocol_errors.load()
                   : 0;
  }

 private:
  std::shared_ptr<prefsql::Engine> engine_;
  std::unique_ptr<prefsql::net::Server> server_;
  std::vector<std::unique_ptr<prefsql::net::Client>> readers_;
  std::vector<prefsql::net::RemoteStatement> stmts_;
  std::unique_ptr<prefsql::net::Client> writer_;
  std::vector<std::unique_ptr<prefsql::Connection>> shadows_;
  std::vector<prefsql::PreparedStatement> shadow_stmts_;
  std::vector<int64_t> targets_;
  std::vector<double> connect_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed() {
  return std::make_unique<ServeMixed>();
}

}  // namespace prefbench

// Base of the in-process workloads (jobsearch_adhoc, rewrite_default):
// reader and writer Connections attached to one shared Engine.

#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "workload.h"

namespace prefbench {

class InProcessWorkload : public Workload {
 public:
  explicit InProcessWorkload(prefsql::ConnectionOptions reader_options)
      : reader_options_(reader_options) {}

  prefsql::Status Setup(uint64_t seed) override {
    engine_ = std::make_shared<prefsql::Engine>();
    writer_ = std::make_unique<prefsql::Connection>();
    writer_->Attach(engine_);
    PSQL_RETURN_IF_ERROR(Load(seed));
    readers_.clear();
    for (size_t r = 0; r < readers(); ++r) {
      readers_.push_back(
          std::make_unique<prefsql::Connection>(reader_options_));
      readers_.back()->Attach(engine_);
    }
    return prefsql::Status::OK();
  }

  void Teardown() override {
    readers_.clear();
    writer_.reset();
    engine_.reset();
  }

  /// Opens a cursor on the literal text and drains it, in both halves of a
  /// traced run and in the untraced run alike; the spans of the request's
  /// open and drain stages are no-ops when `trace` is null.
  ReadOutcome Read(size_t reader, const ReadSpec& spec,
                   TraceBuf* trace) override {
    prefsql::Connection& c = *readers_[reader];
    ReadOutcome out;
    ScopedSpan request(trace, "request", spec.id);
    prefsql::Status st = OpenAndDrain(c, spec.text, trace, spec.id, nullptr);
    request.Finish();
    out.ok = st.ok();
    if (!out.ok) {
      out.error = st.ToString();
    } else if (trace != nullptr) {
      out.has_stats = true;
      out.stats = c.last_stats();
    }
    return out;
  }

  prefsql::Status Write(const std::string& sql) override {
    return writer_->Execute(sql).status();
  }

  std::shared_ptr<prefsql::Engine> engine() override { return engine_; }

  prefsql::Result<std::vector<std::string>> ClientRows(
      const ReadSpec& spec) override {
    std::vector<std::string> ids;
    PSQL_RETURN_IF_ERROR(
        OpenAndDrain(*readers_[0], spec.text, nullptr, spec.id, &ids));
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::string CrossCheck(const ReadSpec&) override { return ""; }

  double SoloLatencyMs(const ReadSpec& spec) override {
    Clock::time_point t0 = Clock::now();
    (void)OpenAndDrain(*readers_[0], spec.text, nullptr, spec.id, nullptr);
    return MsBetween(t0, Clock::now());
  }

 protected:
  /// Opens a cursor on `text` and pulls every row, appending the first
  /// column of each to `ids` when set. Records the "core.OpenCursor" and
  /// "core.drain" spans into `trace` (no-ops when null).
  static prefsql::Status OpenAndDrain(prefsql::Connection& c,
                                      const std::string& text, TraceBuf* trace,
                                      uint64_t request,
                                      std::vector<std::string>* ids) {
    prefsql::Result<prefsql::Cursor> cursor = [&] {
      ScopedSpan s(trace, "core.OpenCursor", request);
      return c.OpenCursor(text);
    }();
    if (!cursor.ok()) return cursor.status();
    ScopedSpan s(trace, "core.drain", request);
    for (;;) {
      auto row = cursor->Next();
      if (!row.ok()) return row.status();
      if (!row->has_value()) return prefsql::Status::OK();
      if (ids != nullptr) ids->push_back((**row).row()[0].ToString());
    }
  }

  /// Creates and fills the workload's tables (through `writer()` or the
  /// engine's database for bulk generation).
  virtual prefsql::Status Load(uint64_t seed) = 0;

  prefsql::Engine& shared_engine() { return *engine_; }
  prefsql::Connection& writer() { return *writer_; }

 private:
  prefsql::ConnectionOptions reader_options_;
  std::shared_ptr<prefsql::Engine> engine_;
  std::unique_ptr<prefsql::Connection> writer_;
  std::vector<std::unique_ptr<prefsql::Connection>> readers_;
};

}  // namespace prefbench

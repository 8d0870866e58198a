#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/metrics.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t CounterNow(const std::string& name) {
  return erbium::obs::MetricsRegistry::Global().CounterValue(name);
}

uint64_t CounterSum(const std::string& prefix, const std::string& suffix) {
  uint64_t total = 0;
  auto snap = erbium::obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

HistTotals HistogramNow(const std::string& name) {
  auto snap = erbium::obs::MetricsRegistry::Global().HistogramValue(name);
  return HistTotals{snap.count, snap.sum};
}

int64_t GaugeNow(const std::string& name) {
  return erbium::obs::MetricsRegistry::Global().GaugeValue(name);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Count(const std::string& cls, const ClassCounts& c) {
  classes_[cls].Add(c);
}

void Report::Absorb(const Report& other, const std::string& prefix) {
  for (const auto& [name, vu] : other.metrics_) Add(name, vu.first, vu.second);
  for (const auto& [cls, counts] : other.classes_) Count(prefix + cls, counts);
  wrong_ += other.wrong_;
}

void Report::Wrong(const std::string& what) {
  if (wrong_++ < 5) std::fprintf(stderr, "perfbench: wrong answer: %s\n", what.c_str());
}

double Report::Get(const std::string& name) const {
  for (const auto& [n, vu] : metrics_) {
    if (n == name) return vu.first;
  }
  return 0;
}

void PrintTracingOverhead(const Report& untraced, const Report& traced) {
  for (const auto& [name, vu] : traced.metrics()) {
    double base = untraced.Get(name);
    std::printf("tracing %s untraced %.6g traced %.6g %s overhead %+.2f%%\n",
                name.c_str(), base, vu.first, vu.second.c_str(),
                base == 0 ? 0.0 : 100.0 * (vu.first - base) / base);
  }
}

void Report::Print() const {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [cls, c] : classes_) {
    std::printf("class %s attempted %llu failed %llu\n", cls.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void AddLatencyGeomean(Report* report, const std::vector<double>& class_p50_us) {
  report->Add("latency_geomean_us", GeoMean(class_p50_us), "us");
}

void PrintLatency(const std::string& cls, const std::vector<double>& us) {
  std::printf("latency %s samples %zu p50_us %.6g", cls.c_str(), us.size(),
              Median(us));
  // A p99 needs ten samples beyond it: at least 1000 samples.
  if (us.size() >= 1000) std::printf(" p99_us %.6g", Quantile(us, 0.99));
  std::printf("\n");
}

erbium::Result<erbium::api::StatementOutcome> Send(
    erbium::server::Client* client, const std::string& text, bool traced,
    erbium::server::ServerTiming* timing) {
  if (!traced) return client->Execute(text);
  auto batch = client->ExecuteBatch({text});
  if (!batch.ok()) return batch.status();
  if (!(*batch)[0].status.ok()) return (*batch)[0].status;
  *timing = (*batch)[0].timing;
  return std::move((*batch)[0].outcome);
}

// ---- Generator replay --------------------------------------------------------

Value Figure4Oracle::Field(const Value& fields, const std::string& name) {
  const Value* v = fields.FindField(name);
  return v == nullptr ? Value::Null() : *v;
}

erbium::Result<Figure4Oracle> ReplayFigure4(const erbium::Figure4Config& cfg) {
  Figure4Oracle o;
  erbium::Figure4Sinks sinks;
  sinks.insert_entity = [&o](const std::string& cls, Value fields) {
    if (cls == "S") {
      o.s[Figure4Oracle::Field(fields, "s_id").as_int64()] = std::move(fields);
    } else if (cls == "S1" || cls == "S2") {
      int64_t owner = Figure4Oracle::Field(fields, "s_id").as_int64();
      (cls == "S1" ? o.s1 : o.s2)[owner].push_back(std::move(fields));
    } else {
      int64_t id = Figure4Oracle::Field(fields, "r_id").as_int64();
      if (cls == "R1" || cls == "R3" || cls == "R4") o.r1_family.push_back(id);
      if (cls == "R3") o.r3_ids.push_back(id);
      o.r[id] = Figure4Oracle::Entity{cls, std::move(fields)};
    }
    return erbium::Status::OK();
  };
  sinks.insert_relationship = [&o](const std::string& rel,
                                   erbium::IndexKey left,
                                   erbium::IndexKey right, Value attrs) {
    if (rel == "RS") {
      o.rs[left[0].as_int64()].push_back(
          {right[0].as_int64(),
           Figure4Oracle::Field(attrs, "rs_a1").as_int64()});
    } else if (rel == "R1R3") {
      o.r1r3[left[0].as_int64()].push_back(right[0].as_int64());
    } else if (rel == "R2S1") {
      o.r2s1.push_back(
          {left[0].as_int64(), {right[0].as_int64(), right[1].as_int64()}});
    }
    return erbium::Status::OK();
  };
  ERBIUM_RETURN_NOT_OK(erbium::PopulateFigure4(sinks, cfg));
  return o;
}

namespace {

Value Canonical(const Value& v) {
  if (v.kind() != erbium::TypeKind::kArray) return v;
  Value::ArrayData elements;
  for (const Value& e : v.array()) elements.push_back(Canonical(e));
  std::sort(elements.begin(), elements.end());
  return Value::Array(std::move(elements));
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  for (Row& row : rows) {
    for (Value& v : row) v = Canonical(v);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

bool SameRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  return Sorted(got) == Sorted(want);
}

}  // namespace perfbench

// Shared pieces of the end-to-end benchmark: arguments, clocks, sample
// statistics, registry deltas, the result report, and the generator
// replay that every workload checks its answers against.
#ifndef ERBIUM_PERFBENCH_COMMON_H_
#define ERBIUM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "server/client.h"
#include "workload/figure4.h"

namespace perfbench {

using erbium::Row;
using erbium::Value;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for durable_ingest's databases; inside the checkout.
  std::string data_dir = ".bench_build/perfbench-data";
};

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Resident set of this process in MiB, from /proc/self/statm.
double RssMb();

/// Registry reads (obs::MetricsRegistry::Global()).
uint64_t CounterNow(const std::string& name);
/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix` (e.g. all "index.<name>.probes").
uint64_t CounterSum(const std::string& prefix, const std::string& suffix);
struct HistTotals {
  uint64_t count = 0;
  double sum = 0;
};
HistTotals HistogramNow(const std::string& name);
int64_t GaugeNow(const std::string& name);

/// Operations attempted and failed in one class. A failed operation has
/// no latency sample: it counts as missing every latency limit.
struct ClassCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const ClassCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

inline void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// The benchmark's result: metrics in insertion order, per-class
/// operation counts, and whether every checked answer was right.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Count(const std::string& cls, const ClassCounts& c);
  /// Records a wrong answer; the run then reports correct = false.
  void Wrong(const std::string& what);
  bool correct() const { return wrong_ == 0; }
  /// Value of a metric added earlier; 0 when absent.
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  /// Adds `other`'s metrics, its class counts under `prefix` + class,
  /// and its wrong answers.
  void Absorb(const Report& other, const std::string& prefix);
  /// Prints the per-class lines and, last, the one-line JSON result.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, ClassCounts> classes_;
  uint64_t wrong_ = 0;
};

/// Prints the traced run's own end-to-end numbers beside the untraced
/// ones measured in the same process, and their difference: the cost of
/// tracing. These lines are not part of the final result.
void PrintTracingOverhead(const Report& untraced, const Report& traced);

/// Geometric mean of positive values; 0 if empty.
double GeoMean(const std::vector<double>& v);

/// Adds `latency_geomean_us`, the geometric mean of each operation
/// class's median latency. Every workload reports it, so classes that
/// differ in cost by 100x are summarised without pooling their samples.
void AddLatencyGeomean(Report* report, const std::vector<double>& class_p50_us);

/// Prints "latency <cls> samples N p50_us X [p99_us Y]": the class's
/// own percentiles, beside the result. The p99 is printed only when at
/// least ten samples lie beyond it.
void PrintLatency(const std::string& cls, const std::vector<double>& us);

/// Sends one statement over the wire. Traced, it goes as a one-statement
/// ExecuteBatch so the reply carries the server-timing footer, which
/// fills *timing.
erbium::Result<erbium::api::StatementOutcome> Send(
    erbium::server::Client* client, const std::string& text, bool traced,
    erbium::server::ServerTiming* timing);

// ---- Generator replay --------------------------------------------------------

/// Plain-map copy of what PopulateFigure4 generates for a config, built
/// through its Figure4Sinks without touching the engine.
struct Figure4Oracle {
  struct Entity {
    std::string cls;  // most specific class
    Value fields;     // the generated struct
  };
  std::map<int64_t, Entity> r;                 // r_id -> R-family entity
  std::map<int64_t, Value> s;                  // s_id -> S fields
  std::map<int64_t, std::vector<Value>> s1;    // owner s_id -> S1 fields
  std::map<int64_t, std::vector<Value>> s2;    // owner s_id -> S2 fields
  /// r_id -> (s_id, rs_a1) partners.
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> rs;
  std::map<int64_t, std::vector<int64_t>> r1r3;  // parent -> children
  std::vector<std::pair<int64_t, std::pair<int64_t, int64_t>>> r2s1;
  std::vector<int64_t> r1_family, r3_ids;

  /// Field of a generated struct; Null when absent.
  static Value Field(const Value& fields, const std::string& name);
};
erbium::Result<Figure4Oracle> ReplayFigure4(const erbium::Figure4Config& cfg);

/// Compares two bags of rows, regardless of row order and with arrays
/// compared as multisets (mappings do not keep element order).
bool SameRows(const std::vector<Row>& got, const std::vector<Row>& want);

}  // namespace perfbench

#endif  // ERBIUM_PERFBENCH_COMMON_H_

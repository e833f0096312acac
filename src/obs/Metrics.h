//===- obs/Metrics.h - Profiler self-telemetry registry --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Telemetry for the profiler itself: the paper's evaluation (Section 4,
/// Table 1) reports what the *profiler* spends — event counts, Gcost
/// node/edge growth, shadow-heap footprint, per-phase overhead — and this
/// registry is where the reproduction keeps those numbers.
///
/// A MetricsRegistry is a flat, append-only table of named metrics:
///
///   - **counters**: monotonically accumulated with add() (instructions
///     executed, phase nanoseconds, sessions run);
///   - **gauges**: set() from current state (Gcost node counts, shadow
///     memory bytes, peak frame depth);
///   - **histograms**: power-of-two buckets — observe(v) lands in bucket
///     bit_width(v), so bucket i counts samples in [2^(i-1), 2^i).
///
/// Concurrency model: registries are **per shard** and never shared
/// between threads — each ProfileSession owns one, exactly as each shard
/// owns its SlicingProfiler — so every bump is a plain increment with no
/// atomics or locks on any path. After every shard is done, the per-shard
/// registries fold in shard-index order through mergeFrom(), mirroring
/// SlicingProfiler::mergeFrom: counters sum, gauges apply their declared
/// merge policy, histograms sum bucket-wise. Because shard runs are
/// deterministic and every policy is order-insensitive, the folded
/// registry is identical whatever the thread count; only Unit::Nanos
/// metrics (wall time) vary run to run, and every exporter can exclude
/// them for byte-exact comparison.
///
/// Metric ids are dense indices in registration order; hot callers
/// register once and keep the id, so a bump never hashes a name. The
/// export schema ("lud.stats.v1") is documented in docs/OBSERVABILITY.md
/// and consumed by bench/BenchUtil.h and the CI stats artifacts.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_OBS_METRICS_H
#define LUD_OBS_METRICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lud {

class OutStream;

namespace obs {

using MetricId = uint32_t;
inline constexpr MetricId kNoMetric = 0xFFFFFFFF;

enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

/// What the value measures; Nanos marks wall-time metrics, which exporters
/// can exclude (they are the only nondeterministic values in a registry).
enum class Unit : uint8_t { Count, Bytes, Nanos };

/// How a gauge folds across shards. Counters always Sum and histograms
/// always sum bucket-wise.
enum class Merge : uint8_t { Sum, Max, Last };

/// Number of power-of-two histogram buckets: bucket 0 holds zero samples,
/// bucket i holds samples in [2^(i-1), 2^i), bucket 64 holds >= 2^63.
inline constexpr unsigned kHistBuckets = 65;

class MetricsRegistry {
public:
  /// Registers (or re-finds) a counter. Re-registering an existing name
  /// returns the same id; kind and unit must agree.
  MetricId counter(std::string_view Name, Unit U = Unit::Count);
  /// Registers (or re-finds) a gauge with the given fold policy.
  MetricId gauge(std::string_view Name, Unit U = Unit::Count,
                 Merge M = Merge::Last);
  /// Registers (or re-finds) a histogram.
  MetricId histogram(std::string_view Name, Unit U = Unit::Count);

  /// Counter bump (also legal on gauges for running totals).
  void add(MetricId Id, uint64_t Delta) { Metrics[Id].Value += Delta; }
  /// Gauge assignment.
  void set(MetricId Id, uint64_t V) { Metrics[Id].Value = V; }
  /// Gauge assignment keeping the maximum seen (peak tracking).
  void setMax(MetricId Id, uint64_t V) {
    if (V > Metrics[Id].Value)
      Metrics[Id].Value = V;
  }
  /// Histogram sample.
  void observe(MetricId Id, uint64_t Sample);
  /// Zeroes a metric (histograms drop their buckets). Used by state-derived
  /// metrics that are recomputed from scratch after a run or a merge.
  void clear(MetricId Id);

  uint64_t value(MetricId Id) const { return Metrics[Id].Value; }
  /// Histogram aggregates (zero for scalar metrics).
  uint64_t histCount(MetricId Id) const { return Metrics[Id].Value; }
  uint64_t histSum(MetricId Id) const { return Metrics[Id].Sum; }

  /// Id registered under \p Name, or kNoMetric.
  MetricId find(std::string_view Name) const;
  size_t numMetrics() const { return Metrics.size(); }
  const std::string &name(MetricId Id) const { return Metrics[Id].Name; }
  MetricKind kind(MetricId Id) const { return Metrics[Id].Kind; }

  /// Folds \p O into this registry in metric order: metrics absent here are
  /// registered (appended), counters and Merge::Sum gauges sum, Merge::Max
  /// gauges keep the maximum, Merge::Last gauges take O's value, histograms
  /// sum bucket-wise. \p O is treated as the later of two sequential runs,
  /// exactly like the profiler mergeFrom family.
  void mergeFrom(const MetricsRegistry &O);

  /// Writes the "lud.stats.v1" JSON document. \p IncludeTiming false drops
  /// Unit::Nanos metrics, leaving only deterministic values (the form the
  /// cross-thread-count equivalence test compares byte for byte).
  void writeJson(OutStream &OS, bool IncludeTiming = true) const;
  /// CSV: "name,kind,unit,value,sum" rows (histograms: value = sample
  /// count; buckets are JSON-only).
  void writeCsv(OutStream &OS, bool IncludeTiming = true) const;
  /// Human-readable table for terminal use.
  void writeText(OutStream &OS) const;

private:
  struct Metric {
    std::string Name;
    MetricKind Kind = MetricKind::Counter;
    Unit U = Unit::Count;
    Merge M = Merge::Sum;
    /// Counter/gauge value; histogram sample count.
    uint64_t Value = 0;
    /// Histogram sample sum.
    uint64_t Sum = 0;
    /// Histogram buckets (empty until the first observe()).
    std::vector<uint64_t> Buckets;
  };

  MetricId intern(std::string_view Name, MetricKind K, Unit U, Merge M);

  std::vector<Metric> Metrics;
  std::unordered_map<std::string, MetricId> ByName;
};

/// Export format of a registry: the value of --stats[=text|json|csv] in
/// the tools and the bench binaries, and of LUD_STATS in the latter.
enum class StatsFormat : uint8_t { Off, Text, Json, Csv };

/// Parses a --stats / LUD_STATS value ("" and "text" mean text). Anything
/// else prints "unknown stats format '<V>' (valid: text, json, csv)" to
/// errs() and returns false, leaving \p F unchanged.
bool parseStatsFormat(std::string_view V, StatsFormat &F);

/// Writes \p R to \p OS in format \p F (nothing for Off). Timing metrics
/// are included.
void writeStats(const MetricsRegistry &R, StatsFormat F, OutStream &OS);

} // namespace obs
} // namespace lud

#endif // LUD_OBS_METRICS_H

//===- obs/Metrics.cpp - Profiler self-telemetry registry ------------------===//

#include "obs/Metrics.h"

#include "support/ErrorHandling.h"
#include "support/OutStream.h"

#include <algorithm>
#include <cassert>

using namespace lud;
using namespace lud::obs;

namespace {

unsigned bucketOf(uint64_t Sample) {
  unsigned B = 0;
  while (Sample) {
    ++B;
    Sample >>= 1;
  }
  return B; // bit_width: 0 for 0, 64 for the top bit.
}

const char *kindName(MetricKind K) {
  switch (K) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Gauge:
    return "gauge";
  case MetricKind::Histogram:
    return "histogram";
  }
  lud_unreachable("unknown MetricKind");
}

const char *unitName(Unit U) {
  switch (U) {
  case Unit::Count:
    return "count";
  case Unit::Bytes:
    return "bytes";
  case Unit::Nanos:
    return "nanos";
  }
  lud_unreachable("unknown Unit");
}

} // namespace

MetricId MetricsRegistry::intern(std::string_view Name, MetricKind K, Unit U,
                                 Merge M) {
  auto It = ByName.find(std::string(Name));
  if (It != ByName.end()) {
    assert(Metrics[It->second].Kind == K && Metrics[It->second].U == U &&
           "metric re-registered with a different kind or unit");
    return It->second;
  }
  MetricId Id = MetricId(Metrics.size());
  Metrics.emplace_back();
  Metrics.back().Name = std::string(Name);
  Metrics.back().Kind = K;
  Metrics.back().U = U;
  Metrics.back().M = M;
  ByName.emplace(Metrics.back().Name, Id);
  return Id;
}

MetricId MetricsRegistry::counter(std::string_view Name, Unit U) {
  return intern(Name, MetricKind::Counter, U, Merge::Sum);
}

MetricId MetricsRegistry::gauge(std::string_view Name, Unit U, Merge M) {
  return intern(Name, MetricKind::Gauge, U, M);
}

MetricId MetricsRegistry::histogram(std::string_view Name, Unit U) {
  return intern(Name, MetricKind::Histogram, U, Merge::Sum);
}

void MetricsRegistry::observe(MetricId Id, uint64_t Sample) {
  Metric &M = Metrics[Id];
  if (M.Buckets.empty())
    M.Buckets.assign(kHistBuckets, 0);
  ++M.Buckets[bucketOf(Sample)];
  ++M.Value;
  M.Sum += Sample;
}

void MetricsRegistry::clear(MetricId Id) {
  Metric &M = Metrics[Id];
  M.Value = 0;
  M.Sum = 0;
  M.Buckets.clear();
}

MetricId MetricsRegistry::find(std::string_view Name) const {
  auto It = ByName.find(std::string(Name));
  return It == ByName.end() ? kNoMetric : It->second;
}

void MetricsRegistry::mergeFrom(const MetricsRegistry &O) {
  for (const Metric &Theirs : O.Metrics) {
    MetricId Id = intern(Theirs.Name, Theirs.Kind, Theirs.U, Theirs.M);
    Metric &Mine = Metrics[Id];
    switch (Theirs.Kind) {
    case MetricKind::Counter:
      Mine.Value += Theirs.Value;
      break;
    case MetricKind::Gauge:
      switch (Theirs.M) {
      case Merge::Sum:
        Mine.Value += Theirs.Value;
        break;
      case Merge::Max:
        Mine.Value = std::max(Mine.Value, Theirs.Value);
        break;
      case Merge::Last:
        Mine.Value = Theirs.Value;
        break;
      }
      break;
    case MetricKind::Histogram:
      Mine.Value += Theirs.Value;
      Mine.Sum += Theirs.Sum;
      if (!Theirs.Buckets.empty()) {
        if (Mine.Buckets.empty())
          Mine.Buckets.assign(kHistBuckets, 0);
        for (unsigned B = 0; B != kHistBuckets; ++B)
          Mine.Buckets[B] += Theirs.Buckets[B];
      }
      break;
    }
  }
}

void MetricsRegistry::writeJson(OutStream &OS, bool IncludeTiming) const {
  OS << "{\"schema\": \"lud.stats.v1\", \"metrics\": [";
  bool First = true;
  for (const Metric &M : Metrics) {
    if (!IncludeTiming && M.U == Unit::Nanos)
      continue;
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << "  {\"name\": \"" << M.Name << "\", \"kind\": \""
       << kindName(M.Kind) << "\", \"unit\": \"" << unitName(M.U) << "\"";
    if (M.Kind == MetricKind::Histogram) {
      OS << ", \"count\": " << M.Value << ", \"sum\": " << M.Sum
         << ", \"buckets\": [";
      // Sparse [bucket, count] pairs: bucket i covers [2^(i-1), 2^i).
      bool FirstB = true;
      for (unsigned B = 0; B != unsigned(M.Buckets.size()); ++B) {
        if (!M.Buckets[B])
          continue;
        OS << (FirstB ? "" : ", ") << "[" << B << ", " << M.Buckets[B] << "]";
        FirstB = false;
      }
      OS << "]}";
    } else {
      OS << ", \"value\": " << M.Value << "}";
    }
  }
  OS << "\n]}\n";
}

void MetricsRegistry::writeCsv(OutStream &OS, bool IncludeTiming) const {
  OS << "name,kind,unit,value,sum\n";
  for (const Metric &M : Metrics) {
    if (!IncludeTiming && M.U == Unit::Nanos)
      continue;
    OS << M.Name << "," << kindName(M.Kind) << "," << unitName(M.U) << ","
       << M.Value << ",";
    if (M.Kind == MetricKind::Histogram)
      OS << M.Sum;
    OS << "\n";
  }
}

void MetricsRegistry::writeText(OutStream &OS) const {
  size_t Width = 8;
  for (const Metric &M : Metrics)
    Width = std::max(Width, M.Name.size());
  for (const Metric &M : Metrics) {
    OS << "  ";
    // Left-justify the name into the measured column.
    OS << M.Name;
    for (size_t Pad = M.Name.size(); Pad < Width + 2; ++Pad)
      OS << ' ';
    if (M.Kind == MetricKind::Histogram) {
      OS << M.Value << " samples, sum " << M.Sum;
    } else if (M.U == Unit::Nanos) {
      OS.printFixed(double(M.Value) / 1e6, 3);
      OS << " ms";
    } else if (M.U == Unit::Bytes) {
      OS.printFixed(double(M.Value) / 1024.0, 1);
      OS << " KB";
    } else {
      OS << M.Value;
    }
    OS << "\n";
  }
}

bool obs::parseStatsFormat(std::string_view V, StatsFormat &F) {
  if (V.empty() || V == "text")
    F = StatsFormat::Text;
  else if (V == "json")
    F = StatsFormat::Json;
  else if (V == "csv")
    F = StatsFormat::Csv;
  else {
    errs() << "unknown stats format '" << V << "' (valid: text, json, csv)\n";
    return false;
  }
  return true;
}

void obs::writeStats(const MetricsRegistry &R, StatsFormat F, OutStream &OS) {
  switch (F) {
  case StatsFormat::Off:
    return;
  case StatsFormat::Text:
    return R.writeText(OS);
  case StatsFormat::Json:
    return R.writeJson(OS);
  case StatsFormat::Csv:
    return R.writeCsv(OS);
  }
  lud_unreachable("unknown StatsFormat");
}

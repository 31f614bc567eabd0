#include "obs/metrics.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace paraio::obs {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void Histogram::print(std::ostream& out) const {
  out << "count=" << count_ << " sum=" << sum_ << " min=" << min_
      << " max=" << max_ << " buckets=";
  bool first = true;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (!first) out << ',';
    out << b << ':' << buckets_[b];
    first = false;
  }
  if (first) out << '-';
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

void Registry::dump(std::ostream& out) const {
  out << "# paraio metrics v1\n";
  for (const auto& [name, c] : counters_) {
    out << "counter " << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << "gauge " << name << ' ' << format_double(g.value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out << "histogram " << name << ' ';
    h.print(out);
    out << '\n';
  }
  for (const Sample& s : samples_) {
    out << "sample " << format_double(s.time) << ' ' << *s.name << ' '
        << format_double(s.value) << '\n';
  }
}

std::string Registry::dump_text() const {
  std::ostringstream out;
  dump(out);
  return out.str();
}

DeviceMetrics DeviceMetrics::bind(Registry& registry,
                                  const std::string& prefix) {
  DeviceMetrics m;
  m.requests = &registry.counter(prefix + ".requests");
  m.bytes = &registry.counter(prefix + ".bytes");
  m.seeks = &registry.counter(prefix + ".seeks");
  m.busy_s = &registry.gauge(prefix + ".busy_s");
  m.queue_s = &registry.gauge(prefix + ".queue_s");
  m.qdepth = &registry.histogram(prefix + ".qdepth");
  return m;
}

Sampler::Sampler(sim::Engine& engine, Registry& registry,
                 sim::SimDuration period)
    : engine_(engine),
      registry_(registry),
      period_(period),
      next_(engine.now() + period) {
  engine_.attach(*this);
}

Sampler::~Sampler() { engine_.detach(*this); }

void Sampler::on_event(sim::SimTime when) {
  // Snapshot once per boundary crossed; values are as of the previous
  // event, which is exact — nothing changed in the gap.
  while (when >= next_) {
    snapshot(next_);
    next_ += period_;
  }
}

void Sampler::on_run_complete(sim::SimTime now,
                              std::size_t /*pending_events*/,
                              std::size_t /*live_tasks*/) {
  snapshot(now);  // final values, so every series reaches the run end
}

void Sampler::snapshot(sim::SimTime at) {
  for (const auto& [name, g] : registry_.gauges_) {
    registry_.samples_.push_back({at, &name, g.value()});
  }
  for (const auto& [name, c] : registry_.counters_) {
    registry_.samples_.push_back({at, &name, static_cast<double>(c.value())});
  }
}

}  // namespace paraio::obs

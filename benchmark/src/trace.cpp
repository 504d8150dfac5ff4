#include "trace.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

namespace rb {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request,
                     std::size_t size)
    : tracer_(tracer),
      index_(static_cast<int>(tracer.spans_.size())),
      saved_parent_(tracer.current_) {
  Span span;
  span.name = name;
  span.parent = tracer.current_;
  span.request = request;
  span.size = size;
  tracer.spans_.push_back(std::move(span));
  tracer.current_ = index_;
  // Read the clock last so the bookkeeping above is not charged to the span.
  tracer.spans_[static_cast<std::size_t>(index_)].start_us = tracer.now_us();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end_us = tracer_.now_us();
  tracer_.current_ = saved_parent_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.duration_us());
  }
  return out;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_us();
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration_us();
    }
  }
  return self;
}

double Tracer::root_total_us() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.duration_us();
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_us\tend_us\tself_us\tsize\ttag"
         "\twork\n";
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << fmt(s.start_us, 12) << '\t' << fmt(s.end_us, 12) << '\t'
        << fmt(self[i], 9) << '\t' << s.size << '\t' << s.tag << '\t'
        << s.work << '\n';
  }
}

void write_spans(const Options& opt, const Tracer& tracer) {
  if (opt.trace_dir.empty()) return;
  std::filesystem::create_directories(opt.trace_dir);
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".tsv";
  tracer.write(path);
  note("spans written to " + path);
}

}  // namespace rb

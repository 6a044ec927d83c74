#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace memhd::perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;

std::uint64_t fnv1a(std::span<const float> row) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(row.data());
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < row.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

RowIndex::RowIndex(const common::Matrix& pool) : pool_(&pool) {
  by_hash_.reserve(pool.rows());
  for (std::size_t r = 0; r < pool.rows(); ++r)
    if (!by_hash_.emplace(fnv1a(pool.row(r)), static_cast<std::uint32_t>(r))
             .second)
      unique_ = false;
}

std::optional<std::uint32_t> RowIndex::find(std::span<const float> row) const {
  const auto it = by_hash_.find(fnv1a(row));
  if (it == by_hash_.end()) return std::nullopt;
  const auto candidate = pool_->row(it->second);
  if (candidate.size() != row.size() ||
      std::memcmp(candidate.data(), row.data(), row.size_bytes()) != 0)
    return std::nullopt;
  return it->second;
}

std::uint64_t Tracer::new_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::add_call(ScoreCall call) {
  std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back(std::move(call));
}

void Tracer::set_row_index(const RowIndex* index) {
  std::lock_guard<std::mutex> lock(mutex_);
  row_index_ = index;
}

const RowIndex* Tracer::row_index() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return row_index_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<ScoreCall> Tracer::take_calls() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ScoreCall> out;
  out.swap(calls_);
  return out;
}

bool Tracer::write(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point epoch = Clock::time_point::max();
  for (const Span& s : spans) epoch = std::min(epoch, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_us\":"
                 "%.3f,\"end_us\":%.3f,\"request\":%lld,\"rows\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 us(s.start), us(s.end), static_cast<long long>(s.request),
                 s.rows);
  return std::fclose(f) == 0;
}

Scope::Scope(Tracer* tracer, const char* name, std::uint32_t rows)
    : tracer_(tracer) {
  span_.name = name;
  span_.rows = rows;
  if (tracer_ != nullptr) {
    span_.id = tracer_->new_id();
    span_.parent = t_current_span;
    previous_ = t_current_span;
    t_current_span = span_.id;
  }
  open_ = true;
  span_.start = Clock::now();
}

Clock::time_point Scope::close() {
  if (!open_) return span_.end;
  span_.end = Clock::now();
  open_ = false;
  if (tracer_ != nullptr) {
    t_current_span = previous_;
    tracer_->add(span_);
  }
  return span_.end;
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    const double total = ms_between(s.start, s.end);
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> parts;
      for (const Span* c : it->second)
        parts.emplace_back(std::max(c->start, s.start),
                           std::min(c->end, s.end));
      std::sort(parts.begin(), parts.end());
      Clock::time_point reach = s.start;
      for (const auto& [from, to] : parts) {
        const auto begin = std::max(from, reach);
        if (to > begin) {
          covered += ms_between(begin, to);
          reach = to;
        }
      }
    }
    LayerTime& layer = out[s.name];
    ++layer.count;
    layer.total_ms += total;
    layer.self_ms += total - covered;
  }
  return out;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name) out.push_back(ms_between(s.start, s.end));
  return out;
}

}  // namespace memhd::perfbench

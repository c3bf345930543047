#include "obs/slo_window.h"

#include <bit>
#include <cstring>

namespace snakes {

SloWindow::SloWindow(int buckets)
    : num_buckets_(buckets < 1 ? 1 : buckets),
      cells_(static_cast<size_t>(num_buckets_) * kNumRequestVerbs) {}

void SloWindow::Record(RequestVerb verb, uint64_t latency_ns, bool error) {
  const uint64_t slice = current_.load(std::memory_order_relaxed);
  Cell& c = cell(slice, static_cast<int>(verb));
  c.sum.fetch_add(latency_ns, std::memory_order_relaxed);
  c.hist[std::bit_width(latency_ns)].fetch_add(1, std::memory_order_relaxed);
  if (error) c.errors.fetch_add(1, std::memory_order_relaxed);
}

void SloWindow::Advance() {
  const uint64_t next =
      (current_.load(std::memory_order_relaxed) + 1) %
      static_cast<uint64_t>(num_buckets_);
  // Clear the slice being retired before making it current. A request racing
  // this loop may lose its sample — the window is statistical (class doc).
  for (int v = 0; v < kNumRequestVerbs; ++v) {
    Cell& c = cell(next, v);
    c.errors.store(0, std::memory_order_relaxed);
    c.sum.store(0, std::memory_order_relaxed);
    for (auto& h : c.hist) h.store(0, std::memory_order_relaxed);
  }
  current_.store(next, std::memory_order_relaxed);
  advances_.fetch_add(1, std::memory_order_relaxed);
}

SloWindow::Snapshot SloWindow::Snap() const {
  Snapshot snap;
  snap.advances = advances();
  for (int v = 0; v < kNumRequestVerbs; ++v) {
    VerbStats& stats = snap.verbs[static_cast<size_t>(v)];
    uint64_t merged[Histogram::kNumBuckets];
    std::memset(merged, 0, sizeof(merged));
    for (int s = 0; s < num_buckets_; ++s) {
      const Cell& c = cell(static_cast<uint64_t>(s), v);
      stats.errors += c.errors.load(std::memory_order_relaxed);
      stats.sum_ns += c.sum.load(std::memory_order_relaxed);
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        merged[b] += c.hist[b].load(std::memory_order_relaxed);
      }
    }
    for (const uint64_t b : merged) stats.count += b;
    if (stats.count > 0) {
      stats.error_rate = static_cast<double>(stats.errors) /
                         static_cast<double>(stats.count);
      stats.p50_ns = LogBucketQuantile(merged, 0.50);
      stats.p99_ns = LogBucketQuantile(merged, 0.99);
    }
    snap.total += stats.count;
  }
  return snap;
}

}  // namespace snakes

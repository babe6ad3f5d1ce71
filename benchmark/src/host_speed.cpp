#include "host_speed.hpp"

#include "tracer.hpp"

namespace manet::benchmark {
namespace {

constexpr std::uint32_t kSlots = 4096;
constexpr std::size_t kQueueDepth = 4096;
constexpr int kOpsPerSample = 150'000;

}  // namespace

HostSpeedProbe::HostSpeedProbe() : table_(kSlots), scratch_(64) {
  for (std::size_t i = 0; i < kQueueDepth; ++i) {
    queue_.push({next_random() % 1'000'000, static_cast<std::uint32_t>(next_random() % kSlots)});
  }
}

std::uint64_t HostSpeedProbe::next_random() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

double HostSpeedProbe::ns_per_op() {
  const std::int64_t t0 = host_ns();
  for (int i = 0; i < kOpsPerSample; ++i, ++op_) {
    const Entry e = queue_.top();
    queue_.pop();
    Slot& a = table_[e.second];
    a.words[0] += e.first;
    a.words[7] ^= a.words[0];
    Slot& b = table_[(e.second * 2654435761U) % kSlots];
    b.words[1] += a.words[7];
    if (op_ % 8 == 0) scratch_[op_ % 64].assign(16 + op_ % 32, e.second);
    queue_.push({e.first + 1 + next_random() % 100'000,
                 static_cast<std::uint32_t>(next_random() % kSlots)});
  }
  return static_cast<double>(host_ns() - t0) / kOpsPerSample;
}

}  // namespace manet::benchmark

#include "host_speed.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <unordered_map>

namespace perfbench {

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

namespace {

// Sort 2,048 doubles, build a 1,024-entry hash map and look up 2,048 keys,
// half of them missing (sin() on a miss): ~0.3 ms. Every input comes from
// a fixed xorshift sequence, so each call does the same work.
double reference_kernel() {
  std::uint64_t r = 0x9E3779B97F4A7C15ull;
  const auto next = [&r] {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    return r;
  };
  std::vector<double> v(2048);
  for (double& x : v) x = static_cast<double>(next() >> 11) * 0x1.0p-53;
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, double> m;
  for (std::size_t i = 0; i < 1024; ++i) m[next() >> 53] = v[i];
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto it = m.find(next() >> 53);
    acc += it == m.end() ? std::sin(v[i]) : it->second;
  }
  return acc;
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double probe_kernel_s() {
  const Clock::time_point t0 = Clock::now();
  volatile double sink = reference_kernel();
  (void)sink;
  return seconds_since(t0);
}

SpeedProbe::SpeedProbe(int cpu) {
  thread_ = std::thread([this, cpu] { loop(cpu); });
}

SpeedProbe::~SpeedProbe() {
  stop_ = true;
  thread_.join();
}

void SpeedProbe::loop(int cpu) {
  pin_to_cpu(cpu);
  while (!stop_.load()) {
    const double s = probe_kernel_s();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({Clock::now(), s});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

double SpeedProbe::factor(Clock::time_point t0, Clock::time_point t1) const {
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Sample& s : samples_)
      if (s.end >= t0 && s.end <= t1) window.push_back(s.seconds);
    if (window.empty()) {
      // A window shorter than the probe period: the samples on either side.
      const auto after = std::find_if(samples_.begin(), samples_.end(),
                                      [&](const Sample& s) { return s.end > t1; });
      if (after != samples_.end()) window.push_back(after->seconds);
      if (after != samples_.begin()) window.push_back(std::prev(after)->seconds);
    }
  }
  if (window.empty()) window.push_back(probe_kernel_s());
  std::vector<double> sorted = window;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  const double cap = 4.0 * sorted[sorted.size() / 2];
  double sum = 0.0;
  std::size_t n = 0;
  for (const double s : window) {
    if (s > cap) continue;
    sum += kRefProbeS / s;
    ++n;
  }
  return sum / static_cast<double>(n);
}

SpeedProbes::SpeedProbes(const std::vector<int>& cpus) {
  for (const int c : cpus) {
    if (std::find(cpus_.begin(), cpus_.end(), c) != cpus_.end()) continue;
    cpus_.push_back(c);
    probes_.push_back(std::make_unique<SpeedProbe>(c));
  }
}

double SpeedProbes::factor(int cpu, Clock::time_point t0, Clock::time_point t1) const {
  const auto it = std::find(cpus_.begin(), cpus_.end(), cpu);
  return probes_[static_cast<std::size_t>(it - cpus_.begin())]->factor(t0, t1);
}

}  // namespace perfbench

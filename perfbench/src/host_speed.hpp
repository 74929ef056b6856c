// Host-speed normalization of end-to-end times.
//
// On a shared host a core's speed changes from one second to the next:
// when another tenant runs on the physical core's second hardware thread,
// the same scenario takes up to 1.7x as long (0.14 s, then 0.24 s, within
// one minute, with no steal time and CPU time equal to wall time). Wall
// times measured minutes apart then differ by more than any change a
// benchmark should detect.
//
// A SpeedProbe runs a fixed reference kernel on the core the measured work
// is pinned to, every 20 ms, time-slicing with that work. The kernel is
// the benchmark's own code (a sort, a hash map and libm calls, the mix the
// simulator spends its time in), so a change to the library cannot change
// it. Its duration tracks the core's speed at that moment: over twenty
// runs of each workload, log(wall time) of a repetition follows log(speed
// factor) with correlation 0.89-0.98 and slope 1.1-1.5 (the workload's
// elasticity). The speed factor is the mean of kRefProbeS / probe time
// over the repetition's window; the work's thread CPU time x
// factor^elasticity is the time it would take on a core where the kernel
// takes kRefProbeS: the "reference-core" seconds every end-to-end time is
// reported in.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// A round figure near the reference kernel's typical duration on the
/// reference host (4-core 2.1 GHz x86 VM, gcc 12 -O3: ~0.22 ms with the
/// physical core to itself, up to ~0.45 ms sharing it), so reference-core
/// seconds read close to wall time there. A constant, so the speed factor
/// depends only on what the probe measures during the run.
inline constexpr double kRefProbeS = 300e-6;

/// CPUs this process may run on, in ascending order (at least one).
std::vector<int> allowed_cpus();

/// Pins the calling thread to `cpu` (best effort: a refusal leaves it
/// unpinned, and its speed factor then describes a neighbouring core).
void pin_to_cpu(int cpu);

/// Runs the reference kernel once; returns its wall time in seconds.
double probe_kernel_s();

/// CPU time of the calling thread, in seconds. Unlike wall time it leaves
/// out time the thread waited while another thread or process ran on its
/// CPU, and hypervisor steal time.
double thread_cpu_s();

class SpeedProbe {
 public:
  /// Starts a thread pinned to `cpu` that times the reference kernel
  /// every 20 ms.
  explicit SpeedProbe(int cpu);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Mean of kRefProbeS / t over the probe samples that ended in
  /// [t0, t1]. A sample over 4x the window's median (the probe thread
  /// itself was preempted) is left out. With no sample in the window, the
  /// samples nearest to it are used.
  double factor(Clock::time_point t0, Clock::time_point t1) const;

 private:
  struct Sample {
    Clock::time_point end;
    double seconds;
  };
  void loop(int cpu);

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One probe per distinct CPU a workload's threads are pinned to.
class SpeedProbes {
 public:
  explicit SpeedProbes(const std::vector<int>& cpus);
  /// The factor of the probe on `cpu` (a CPU passed to the constructor).
  double factor(int cpu, Clock::time_point t0, Clock::time_point t1) const;

 private:
  std::vector<int> cpus_;
  std::vector<std::unique_ptr<SpeedProbe>> probes_;
};

}  // namespace perfbench

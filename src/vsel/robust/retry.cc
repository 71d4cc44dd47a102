#include "vsel/robust/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/hash.h"

namespace rdfviews::vsel::robust {

double BackoffDelaySec(double initial_sec, double max_sec, uint64_t stream,
                       size_t attempt) {
  if (attempt < 2) return 0;
  if (initial_sec <= 0) return 0;
  double delay = initial_sec;
  for (size_t k = 2; k < attempt; ++k) {
    delay *= 2;
    if (delay >= max_sec) break;  // further growth is moot
  }
  // Uniform in [0.5, 1.0] from (stream, attempt): deterministic per plan,
  // decorrelated across streams.
  constexpr uint64_t kJitterSeed = 0x5eed;
  const uint64_t u =
      Mix64(kJitterSeed ^ Mix64(stream ^ (uint64_t{attempt} << 32)));
  const double unit = static_cast<double>(u >> 11) * 0x1.0p-53;
  delay *= 0.5 + 0.5 * unit;
  return std::min(delay, max_sec);
}

double SleepWithStop(double sec, const StopToken* stop) {
  if (sec <= 0) return 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (stop != nullptr && stop->stop_requested()) break;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed >= sec) break;
    const double remaining = sec - elapsed;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(remaining, 0.001)));
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace rdfviews::vsel::robust

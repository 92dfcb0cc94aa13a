#include "open_loop.h"

#include <cmath>

#include "core/random.h"

namespace perfbench {

std::vector<int64_t> FixedSchedule(int64_t interval_ns, int64_t end_ns) {
  std::vector<int64_t> due;
  for (int64_t t = 0; t < end_ns; t += interval_ns) due.push_back(t);
  return due;
}

std::vector<int64_t> PoissonSchedule(double rate, int64_t end_ns,
                                     uint64_t seed) {
  ldpm::Rng rng(seed);
  std::vector<int64_t> due;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - U keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.UniformDouble()) / rate * 1e9;
    if (t >= static_cast<double>(end_ns)) return due;
    due.push_back(static_cast<int64_t>(t));
  }
}

}  // namespace perfbench

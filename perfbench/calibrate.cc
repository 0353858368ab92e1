#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/timer.h"

namespace lncl::perfbench {
namespace {

constexpr int kN = 128;
constexpr uint32_t kGatherFloats = 512u << 10;  // 2 MB
constexpr int kGathers = 2000000;

// One thread's working set, allocated once and reused, so a pass never
// pays first-touch page faults.
struct Buffers {
  std::vector<float> a = std::vector<float>(kN * kN, 1.01f);
  std::vector<float> b = std::vector<float>(kN * kN, 0.99f);
  std::vector<float> c = std::vector<float>(kN * kN);
  std::vector<float> gather = std::vector<float>(kGatherFloats, 1.0f);
  volatile float sink = 0.0f;  // keeps the results observable
};

// Five 128x128 float matrix products (~21 MFLOP, operands in L2), then
// independent pseudo-random reads (LCG indices) over 2 MB.
void Pass(Buffers* buf) {
  float sum = 0.0f;
  for (int r = 0; r < 5; ++r) {
    std::fill(buf->c.begin(), buf->c.end(), 0.0f);
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float aik = buf->a[i * kN + k] + 1e-7f * r;
        for (int j = 0; j < kN; ++j) {
          buf->c[i * kN + j] += aik * buf->b[k * kN + j];
        }
      }
    }
    sum += buf->c[r * kN + r];
  }
  uint32_t j = 1;
  for (int i = 0; i < kGathers; ++i) {
    j = j * 1664525u + 1013904223u;
    sum += buf->gather[j & (kGatherFloats - 1)];
  }
  buf->sink = sum;
}

}  // namespace

double CalibrationSeconds(int threads) {
  static std::vector<Buffers> buffers;  // one per thread; harness thread only
  if (static_cast<int>(buffers.size()) < threads) buffers.resize(threads);
  util::Stopwatch sw;
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(Pass, &buffers[t]);
  Pass(&buffers[0]);
  for (std::thread& h : helpers) h.join();
  return sw.Seconds();
}

double Normalized(double seconds, int threads) {
  const int passes = std::clamp(static_cast<int>(seconds / 0.2 + 0.5), 1, 12);
  std::vector<double> pass_s(passes);
  for (double& s : pass_s) s = CalibrationSeconds(threads);
  std::nth_element(pass_s.begin(), pass_s.begin() + passes / 2, pass_s.end());
  return seconds * kNominalCalibrationS / pass_s[passes / 2];
}

}  // namespace lncl::perfbench

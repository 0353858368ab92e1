#pragma once

// Host-speed calibration for the end-to-end timings.
//
// The benchmark host shares its cores with other machines' work, which
// slows the same code by up to 2.7x for stretches of seconds to minutes.
// Timing a fixed kernel right after each operation and dividing by it
// cancels most of that within a round of runs. It does not cancel a host
// period that slows the kernel more than the workloads, which moves every
// normalized median at once; README.md gives the measurements. The harness
// prints raw wall medians next to the normalized ones for that reason.
//
// The kernel is the harness's own code, compiled with pinned flags
// (CMakeLists.txt), so no change to the library or its build flags moves it.

namespace lncl::perfbench {

// Wall seconds of one pass of the calibration kernel: 128x128 float matrix
// products (multiply-add throughput) and 2M pseudo-random reads over 2 MB,
// run on `threads` threads at once (each with its own buffers), so that an
// operation is calibrated on as many cores as it used.
double CalibrationSeconds(int threads);

// The calibration time that normalized seconds refer to: the mean pass
// over a quiet 100-s run on a 4-vCPU Xeon VM.
inline constexpr double kNominalCalibrationS = 0.014;

// `seconds` of an operation that just returned on `threads` threads, scaled
// to the nominal host speed by calibration passes run now: one per 0.2 s
// of the operation (1 to 12), median taken, so that the long operations,
// which a run has few of, are not read against one noisy pass.
double Normalized(double seconds, int threads = 1);

}  // namespace lncl::perfbench

// Exact order statistics over raw samples.
//
// Every percentile the benchmark reports comes from here, computed from
// the full sample array — never from a bucketed histogram, whose bucket
// edges can report values above anything observed.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it. `p` in (0, 100]. Sorts `samples` in place.
/// A single sample is every percentile of itself; the result is always
/// one of the samples, so it never exceeds the maximum. Returns 0 for an
/// empty array.
double Percentile(std::vector<double>* samples, double p);

/// Median of the samples (the 50th nearest-rank percentile).
double Median(std::vector<double> samples);

/// The fast-side quartile of timings taken on a shared host: the 25th
/// nearest-rank percentile of times and latencies, and (FastRate) the
/// 75th of rates. Contention from other tenants only ever adds time and
/// arrives in bursts, so this quartile tracks the program's own speed
/// while up to three quarters of the samples fall in busy periods; a
/// program that is slow in most samples still shows.
double FastTime(std::vector<double> samples);
double FastRate(std::vector<double> samples);

}  // namespace perfbench

/**
 * @file
 * Statistics utilities used by the evaluation harness: summary
 * statistics (median/average/stddev as reported in the paper's
 * Tables 2–4) and fixed-bin histograms (Fig. 9).
 */

#ifndef HYDRA_COMMON_STATS_HH
#define HYDRA_COMMON_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hydra {

/**
 * One digest of a distribution — the shared currency between the
 * bench-side SampleSet (exact, sorted samples) and the obs-side
 * HDR histogram (bucketed): both produce this shape, so tables and
 * reports format through one implementation instead of each call
 * site re-sorting raw vectors.
 */
struct SummaryStats
{
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    /** Sample standard deviation (n-1 denominator); 0 below n=2. */
    double stddev = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** Accumulates samples and reports the paper's summary statistics. */
class SampleSet
{
  public:
    void add(double sample);
    void addAll(const std::vector<double> &samples);
    void clear();

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Summary statistics; every accessor returns 0.0 when empty. */
    double min() const;
    double max() const;
    double mean() const;
    /** Sample standard deviation (n-1 denominator, as for a run). */
    double stddev() const;
    double median() const;
    /** Percentile via linear interpolation; pct clamps to [0, 100]. */
    double percentile(double pct) const;

    /** One pass over the (cached) sorted samples. */
    SummaryStats summary() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sorts the sample buffer if new samples arrived since last sort. */
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
};

/** One bin of a histogram: [lo, hi) and its sample count. */
struct HistogramBin
{
    double lo = 0.0;
    double hi = 0.0;
    std::size_t count = 0;
};

/**
 * Fixed-width histogram over [lo, hi); out-of-range samples clamp.
 * Degenerate arguments are tolerated rather than undefined: zero
 * bins become one bin, and hi <= lo widens to a unit-width range.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double sample);

    std::size_t totalCount() const { return total_; }
    const std::vector<HistogramBin> &bins() const { return bins_; }

    /** Render an ASCII bar chart (for bench output). */
    std::string render(std::size_t width = 50) const;

  private:
    double lo_;
    double binWidth_;
    std::vector<HistogramBin> bins_;
    std::size_t total_ = 0;
};

} // namespace hydra

#endif // HYDRA_COMMON_STATS_HH

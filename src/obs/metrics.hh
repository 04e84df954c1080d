/**
 * @file
 * Per-epoch metric time series (the raw material behind the paper's
 * Figs. 12-17).
 *
 * An EpochSeries is a registry of named probes — closures reading a
 * cumulative counter (RunStats fields, backend aggregates). The
 * harness calls sample() at every epoch boundary (and once after
 * finalize), appending one row of probe readings stamped with the
 * epoch and cycle. Rows store cumulative values; consumers diff
 * adjacent rows for per-epoch rates, which keeps sampling O(#probes)
 * with no state in the probes themselves.
 *
 * Export: CSV (one probe per column) or JSON (column names + row
 * array), embedded in the stats_json file.
 */

#ifndef NVO_OBS_METRICS_HH
#define NVO_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nvo
{
namespace obs
{

class JsonWriter;

class EpochSeries
{
  public:
    /** Register probe @p fn under column @p name (append order). */
    void addProbe(std::string name,
                  std::function<std::uint64_t()> fn);

    /** Append one row: epoch, cycle, then every probe reading.
     *  Under a row cap (setMaxRows) only every decimation()-th call
     *  records; when the cap fills, every other held row is dropped
     *  and the decimation factor doubles, so memory stays bounded on
     *  soak runs of arbitrary length while the kept rows remain
     *  evenly spaced. */
    void sample(EpochWide epoch, Cycle now);

    /** Record unconditionally (the post-finalize closing row). */
    void sampleForced(EpochWide epoch, Cycle now);

    /**
     * Bound the series at @p max_rows held samples (`stats.series_max`;
     * 0 = unbounded, the default). Must be set before sampling
     * starts. The JSON export notes the final decimation factor so
     * consumers know the inter-row spacing.
     */
    void setMaxRows(std::size_t max_rows);

    /** Current decimation factor (1 = every boundary recorded). */
    std::uint64_t decimation() const;

    std::size_t numProbes() const { return probes.size(); }
    std::size_t numSamples() const { return rows; }

    /** Column names including the leading "epoch" and "cycle". */
    std::vector<std::string> columns() const;

    /** Reading of column @p col in sample @p row. */
    std::uint64_t value(std::size_t row, std::size_t col) const;

    /** CSV: header row then one line per sample. */
    void writeCsv(std::ostream &os) const;

    /** JSON object value: {"columns": [...], "rows": [[...], ...]}. */
    void writeJson(JsonWriter &w) const;

  private:
    struct Probe
    {
        std::string name;
        std::function<std::uint64_t()> fn;
    };

    void record(EpochWide epoch, Cycle now);

    std::vector<Probe> probes;
    /** Row-major samples, stride = numProbes() + 2. */
    std::vector<std::uint64_t> data;
    std::size_t rows = 0;
    /** Row cap (0 = unbounded) and decimation state. */
    std::size_t maxRows_ = 0;
    std::uint64_t decim_ = 1;
    std::uint64_t sampleCalls_ = 0;
};

} // namespace obs
} // namespace nvo

#endif // NVO_OBS_METRICS_HH

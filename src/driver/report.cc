#include "driver/report.hh"

namespace stms::driver
{

void
Report::addMetric(const std::string &name, double value)
{
    metrics_.emplace_back(name, value);
}

void
Report::addTable(std::string title, Table table)
{
    tables_.push_back(ReportTable{std::move(title), std::move(table)});
}

void
Report::addNote(const std::string &note)
{
    notes_.push_back(note);
}

std::string
Report::toText() const
{
    std::string out;
    for (const auto &entry : tables_) {
        if (!entry.title.empty())
            out += entry.title + "\n\n";
        out += entry.table.toString() + "\n";
    }
    for (const auto &note : notes_)
        out += note + "\n";
    return out;
}

std::string
Report::toJson() const
{
    std::string out = "{\n  \"experiment\": \"" +
                      jsonEscape(experiment_) + "\",\n";

    out += "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    \"" + jsonEscape(metrics_[i].first) +
               "\": " + jsonNumber(metrics_[i].second);
    }
    out += metrics_.empty() ? "},\n" : "\n  },\n";

    // Timing renders before the model output and only when attached:
    // reports without timing are byte-identical to the pre-timing
    // format, and determinism gates compare timing-free reports.
    if (timing_.present) {
        out += "  \"timing\": {\n";
        out += "    \"wall_s\": " + jsonNumber(timing_.wallSeconds) +
               ",\n";
        out += "    \"threads\": " +
               std::to_string(timing_.threads) + ",\n";
        out += std::string("    \"pipeline\": ") +
               (timing_.pipelined ? "true" : "false") + ",\n";
        out += "    \"records\": " +
               std::to_string(timing_.records) + ",\n";
        out += "    \"records_per_sec\": " +
               jsonNumber(timing_.recordsPerSecond) + ",\n";
        out += "    \"peak_rss_kb\": " +
               std::to_string(timing_.peakRssKb) + ",\n";
        out += "    \"chunk_records\": " +
               std::to_string(timing_.chunkRecords) + ",\n";
        out += "    \"peak_resident_chunks\": " +
               std::to_string(timing_.peakResidentChunks) + ",\n";
        // Sampler keys render only when sampling ran: default timing
        // output stays byte-identical to the pre-telemetry format.
        if (timing_.sampleEvery > 0) {
            out += "    \"sample_every\": " +
                   std::to_string(timing_.sampleEvery) + ",\n";
            out += "    \"sample_columns\": [";
            for (std::size_t c = 0; c < timing_.sampleColumns.size();
                 ++c) {
                if (c)
                    out += ", ";
                out += "\"" + jsonEscape(timing_.sampleColumns[c]) +
                       "\"";
            }
            out += "],\n";
        }
        out += "    \"stages\": {\"acquire_s\": " +
               jsonNumber(timing_.acquireSeconds) +
               ", \"simulate_s\": " +
               jsonNumber(timing_.simulateSeconds) + "},\n";
        out += "    \"runs\": [";
        for (std::size_t r = 0; r < timing_.runs.size(); ++r) {
            const ReportRunTiming &run = timing_.runs[r];
            out += r == 0 ? "\n" : ",\n";
            out += "      {\"id\": \"" + jsonEscape(run.id) +
                   "\", \"acquire_s\": " +
                   jsonNumber(run.acquireSeconds) +
                   ", \"simulate_s\": " +
                   jsonNumber(run.simulateSeconds) + ", \"wall_s\": " +
                   jsonNumber(run.wallSeconds) +
                   ", \"peak_resident_chunks\": " +
                   std::to_string(run.peakResidentChunks);
            if (!run.samples.empty()) {
                // Rows as [accesses, cycle, v0, v1, ...] matching
                // sample_columns; tools/telemetry_report.py renders
                // these into per-run ramp tables.
                out += ", \"samples\": [";
                for (std::size_t s = 0; s < run.samples.rows.size();
                     ++s) {
                    const auto &row = run.samples.rows[s];
                    if (s)
                        out += ", ";
                    out += "[" + std::to_string(row.accesses) + ", " +
                           std::to_string(row.cycle);
                    for (const double value : row.values)
                        out += ", " + jsonNumber(value);
                    out += "]";
                }
                out += "]";
            }
            out += "}";
        }
        out += timing_.runs.empty() ? "]\n" : "\n    ]\n";
        out += "  },\n";
    }

    out += "  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const auto &entry = tables_[t];
        out += t == 0 ? "\n" : ",\n";
        out += "    {\n      \"title\": \"" + jsonEscape(entry.title) +
               "\",\n      \"columns\": [";
        const auto &headers = entry.table.headers();
        for (std::size_t c = 0; c < headers.size(); ++c) {
            if (c)
                out += ", ";
            out += "\"" + jsonEscape(headers[c]) + "\"";
        }
        out += "],\n      \"rows\": [";
        const auto &rows = entry.table.rows();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            out += r == 0 ? "\n" : ",\n";
            out += "        [";
            for (std::size_t c = 0; c < rows[r].size(); ++c) {
                if (c)
                    out += ", ";
                out += "\"" + jsonEscape(rows[r][c]) + "\"";
            }
            out += "]";
        }
        out += rows.empty() ? "]\n    }" : "\n      ]\n    }";
    }
    out += tables_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace stms::driver

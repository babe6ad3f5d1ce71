#include "scenario/sweep.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "core/assert.hpp"

namespace manet {

namespace {

/// CSV fields are labels like "AODV/pause:30" — quote only when needed.
void csv_field(std::ostream& os, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    os << s;
    return;
  }
  os << '"';
  for (const char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

bool write_text_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(p, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "manetsim: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

const SweepCellResult* SweepResult::find(std::string_view label) const {
  for (const SweepCellResult& c : cells) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

std::string SweepResult::to_json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\n  \"name\": \"";
  json::escape(os, name);
  os << "\",\n  \"schema\": 2,\n"
     << "  \"seeds_per_cell\": " << seeds_per_cell << ",\n"
     << "  \"total_events\": " << total_events << ",\n"
     << "  \"peak_queue_depth\": " << peak_queue_depth << ",\n"
     << "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& c = cells[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"label\": \"";
    json::escape(os, c.label);
    os << "\", \"replications\": " << c.aggregate.replications
       << ", \"total_events\": " << c.aggregate.total_events << ",\n     \"metrics\": {";
    bool first = true;
    c.aggregate.for_each([&](const char* mname, const Metric& m) {
      os << (first ? "" : ", ") << '"' << mname << "\": {\"mean\": " << m.mean
         << ", \"se\": " << m.se << '}';
      first = false;
    });
    os << "},\n     \"profile\": {\"peak_queue_depth\": " << c.peak_queue_depth
       << ", \"runs\": [";
    for (std::size_t k = 0; k < c.runs.size(); ++k) {
      const ScenarioResult& r = c.runs[k];
      char digest[17];
      std::snprintf(digest, sizeof digest, "%016" PRIx64, model_digest(r));
      os << (k == 0 ? "" : ", ") << "{\"seed\": " << c.seed + k << ", \"digest\": \"" << digest
         << "\", \"events\": " << r.events
         << ", \"peak_queue_depth\": " << r.peak_queue_depth;
      // FlowMonitor table, present only for transport-enabled runs so
      // transport-free artifacts stay byte-identical to pre-transport ones.
      if (!r.flows.empty()) {
        os << ", \"retransmissions\": " << r.retransmissions << ", \"flows\": [";
        for (std::size_t f = 0; f < r.flows.size(); ++f) {
          const FlowRecord& fr = r.flows[f].second;
          os << (f == 0 ? "" : ", ") << "{\"flow\": " << r.flows[f].first
             << ", \"src\": " << fr.src << ", \"dst\": " << fr.dst
             << ", \"tx_packets\": " << fr.tx_packets << ", \"tx_bytes\": " << fr.tx_bytes
             << ", \"rx_packets\": " << fr.rx_packets << ", \"rx_bytes\": " << fr.rx_bytes
             << ", \"retransmissions\": " << fr.retransmissions
             << ", \"avg_delay_ms\": " << fr.avg_delay_ms()
             << ", \"mean_jitter_ms\": " << fr.mean_jitter_ms() << '}';
        }
        os << ']';
      }
      os << '}';
    }
    os << "]}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string SweepResult::to_csv() const {
  std::ostringstream os;
  os.precision(10);
  os << "label";
  for (const MetricDef& d : kMetricDefs) os << ',' << d.name << "_mean," << d.name << "_se";
  os << ",replications,total_events,peak_queue_depth\n";
  for (const SweepCellResult& c : cells) {
    csv_field(os, c.label);
    c.aggregate.for_each(
        [&](const char*, const Metric& m) { os << ',' << m.mean << ',' << m.se; });
    os << ',' << c.aggregate.replications << ',' << c.aggregate.total_events << ','
       << c.peak_queue_depth << '\n';
  }
  return os.str();
}

bool SweepResult::write_json(const std::string& path) const {
  return write_text_file(path, to_json());
}

bool SweepResult::write_csv(const std::string& path) const {
  return write_text_file(path, to_csv());
}

SweepRunner::SweepRunner(int seeds, unsigned threads) : seeds_(seeds), threads_(threads) {
  MANET_EXPECTS(seeds >= 1);
  if (threads_ == 0) threads_ = std::max(1u, std::thread::hardware_concurrency());
}

SweepResult SweepRunner::run(const std::vector<SweepCell>& cells) const {
  const std::size_t seeds = static_cast<std::size_t>(seeds_);
  const std::size_t total = cells.size() * seeds;

  // The whole grid is one flat work list (cell-major); workers pull items
  // from a shared cursor, so a slow cell's remaining seeds and the next
  // cells' replications run concurrently — no per-cell barrier.
  std::vector<ScenarioResult> results(total);
  std::atomic<std::size_t> cursor{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1);
      if (k >= total) return;
      const std::size_t cell = k / seeds;
      const std::size_t rep = k % seeds;
      ScenarioConfig cfg = cells[cell].config;
      cfg.seed += static_cast<std::uint64_t>(rep);

      results[k] = Scenario::run_once(cfg);
    }
  };

  const unsigned nthreads =
      std::min<unsigned>(threads_, static_cast<unsigned>(std::max<std::size_t>(total, 1)));
  if (nthreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  SweepResult sweep;
  sweep.seeds_per_cell = seeds_;
  sweep.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SweepCellResult cell;
    cell.label = cells[c].label;
    cell.seed = cells[c].config.seed;
    const auto begin = results.begin() + static_cast<std::ptrdiff_t>(c * seeds);
    cell.runs.assign(std::make_move_iterator(begin),
                     std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(seeds)));
    cell.aggregate = aggregate_results(cell.runs);
    for (const ScenarioResult& r : cell.runs) {
      cell.peak_queue_depth = std::max(cell.peak_queue_depth, r.peak_queue_depth);
    }
    sweep.total_events += cell.aggregate.total_events;
    sweep.peak_queue_depth = std::max(sweep.peak_queue_depth, cell.peak_queue_depth);
    sweep.cells.push_back(std::move(cell));
  }
  return sweep;
}

}  // namespace manet

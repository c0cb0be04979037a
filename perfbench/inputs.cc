#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "util/string_util.h"

namespace perfbench {

namespace bd = birnn::datagen;

bd::DatasetPair OfflineTable(bool smoke) {
  return bd::MakeTax({smoke ? 0.005 : 0.1, kTableSeed});
}

bd::DatasetPair ServeTable(bool smoke) {
  return bd::MakeHospital({smoke ? 0.25 : 1.0, kTableSeed});
}

bd::DatasetPair StreamTable(bool smoke) {
  return bd::MakeBeers({smoke ? 0.1 : 1.0, kTableSeed});
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  // splitmix64 finalizer over (seed, purpose).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::vector<std::string>> DistinctColumnValues(
    const birnn::data::Table& table) {
  std::vector<std::vector<std::string>> columns(
      static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    std::unordered_set<std::string> seen;
    for (int r = 0; r < table.num_rows(); ++r) {
      const std::string& v = table.cell(r, c);
      if (seen.insert(v).second) columns[static_cast<size_t>(c)].push_back(v);
    }
  }
  return columns;
}

namespace {

// Fresh values derive from bases of at least this many characters over a
// column alphabet of at least kMinAlphabet characters: ≥ 8^5 variants each.
constexpr size_t kMinBaseLen = 6;
constexpr size_t kMinAlphabet = 8;

std::string SeenKey(int attr, const std::string& value) {
  return std::to_string(attr) + '\x1f' + value;
}

}  // namespace

FreshValues::FreshValues(uint64_t seed,
                         const std::vector<std::vector<std::string>>& columns)
    : rng_(seed), bases_(columns.size()), alphabets_(columns.size()) {
  for (size_t a = 0; a < columns.size(); ++a) {
    std::string alphabet;
    for (const std::string& v : columns[a]) {
      seen_.insert(SeenKey(static_cast<int>(a), v));
      // Bases start with a non-space character (the prepare step trims
      // leading whitespace) and are not the "NaN" empty marker.
      if (v.size() >= kMinBaseLen && v[0] != ' ') bases_[a].push_back(v);
      for (char ch : v) {
        if (std::isalnum(static_cast<unsigned char>(ch)) &&
            alphabet.find(ch) == std::string::npos) {
          alphabet.push_back(ch);
        }
      }
    }
    std::sort(alphabet.begin(), alphabet.end());
    alphabets_[a] = alphabet;
    if (!bases_[a].empty() && alphabet.size() >= kMinAlphabet) {
      attrs_.push_back(static_cast<int>(a));
    }
  }
}

bool FreshValues::CanMake(int attr) const {
  return std::binary_search(attrs_.begin(), attrs_.end(), attr);
}

std::string FreshValues::Next(int attr) {
  const auto& bases = bases_[static_cast<size_t>(attr)];
  const std::string& alphabet = alphabets_[static_cast<size_t>(attr)];
  for (int attempt = 0;; ++attempt) {
    std::string v = bases[rng_.UniformInt(bases.size())];
    // Two replaced characters, one more after every 16 collisions, so the
    // loop ends even on a column whose variants are nearly used up.
    for (int k = 0; k < 2 + attempt / 16; ++k) {
      // Position 0 stays: replacing it could expose leading whitespace.
      const size_t pos = 1 + rng_.UniformInt(v.size() - 1);
      v[pos] = alphabet[rng_.UniformInt(alphabet.size())];
    }
    if (seen_.insert(SeenKey(attr, v)).second) return v;
  }
}

RequestStream::RequestStream(uint64_t seed, const birnn::data::Table& table,
                             double fresh_share)
    : rng_(SubSeed(seed, 1)),
      fresh_share_(fresh_share),
      fresh_(SubSeed(seed, 2), DistinctColumnValues(table)) {
  const auto columns = DistinctColumnValues(table);
  for (size_t a = 0; a < columns.size(); ++a) {
    for (const std::string& v : columns[a]) {
      distinct_.push_back(Cell{static_cast<int>(a), v});
    }
  }
  const size_t n = distinct_.size();
  rank_to_.resize(n);
  for (size_t i = 0; i < n; ++i) rank_to_[i] = static_cast<int32_t>(i);
  rng_.Shuffle(&rank_to_);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

void RequestStream::Next(std::vector<Cell>* cells, std::vector<bool>* fresh) {
  cells->clear();
  fresh->clear();
  for (int i = 0; i < kCellsPerRequest; ++i) {
    if (rng_.Bernoulli(fresh_share_)) {
      const int attr = fresh_.attrs()[rng_.UniformInt(fresh_.attrs().size())];
      cells->push_back(Cell{attr, fresh_.Next(attr)});
      fresh->push_back(true);
    } else {
      const double u = rng_.UniformDouble();
      const size_t rank = std::min(
          cdf_.size() - 1,
          static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                              cdf_.begin()));
      cells->push_back(distinct_[static_cast<size_t>(rank_to_[rank])]);
      fresh->push_back(false);
    }
  }
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  birnn::Rng rng(SubSeed(seed, 3));
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

FeedStream::FeedStream(uint64_t seed, const birnn::data::Table& table,
                       double fresh_share)
    : rng_(SubSeed(seed, 4)),
      fresh_share_(fresh_share),
      table_(table),
      next_row_id_(table.num_rows()),
      fresh_(SubSeed(seed, 5), DistinctColumnValues(table)) {
  live_.resize(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    live_[static_cast<size_t>(r)] = r;
  }
}

int64_t FeedStream::PickLive() {
  return live_[rng_.UniformInt(live_.size())];
}

std::string FeedStream::WrittenValue(int attr, FeedOp* op) {
  if (fresh_.CanMake(attr) && rng_.Bernoulli(fresh_share_)) {
    op->fresh_attrs.push_back(attr);
    return fresh_.Next(attr);
  }
  return table_.cell(static_cast<int>(rng_.UniformInt(
                         static_cast<uint64_t>(table_.num_rows()))),
                     attr);
}

FeedOp FeedStream::Next() {
  namespace bs = birnn::stream;
  FeedOp op;
  const int n_attrs = table_.num_columns();
  const double u = rng_.UniformDouble();
  if (u < 0.25) {
    op.is_read = true;
    op.read_row = PickLive();
    op.read_attr = static_cast<int>(rng_.UniformInt(n_attrs));
  } else if (u < 0.75 || live_.size() < 16) {
    op.delta.kind = bs::DeltaKind::kUpdate;
    op.delta.row_id = PickLive();
    op.delta.attr = static_cast<int>(rng_.UniformInt(n_attrs));
    op.delta.value = WrittenValue(op.delta.attr, &op);
  } else if (u < 0.875) {
    op.delta.kind = bs::DeltaKind::kInsert;
    op.delta.row_id = next_row_id_++;
    for (int a = 0; a < n_attrs; ++a) {
      op.delta.values.push_back(WrittenValue(a, &op));
    }
    live_.push_back(op.delta.row_id);
  } else {
    op.delta.kind = bs::DeltaKind::kDelete;
    const size_t i = rng_.UniformInt(live_.size());
    op.delta.row_id = live_[i];
    live_[i] = live_.back();
    live_.pop_back();
  }
  return op;
}

std::string DumpInputs(uint64_t seed, bool smoke, int n_requests, int n_ops) {
  std::ostringstream out;
  std::ostringstream fresh;
  out << "# serve_schedule\n";
  {
    const bd::DatasetPair table = ServeTable(smoke);
    RequestStream requests(seed, table.dirty, kServeFreshShare);
    const std::vector<double> due = PoissonSchedule(seed, kServeRate, 1.0);
    std::vector<Cell> cells;
    std::vector<bool> is_fresh;
    for (int i = 0; i < n_requests; ++i) {
      requests.Next(&cells, &is_fresh);
      out << (static_cast<size_t>(i) < due.size() ? due[static_cast<size_t>(i)]
                                                  : -1.0);
      for (size_t c = 0; c < cells.size(); ++c) {
        out << '\t' << cells[c].attr << '=' << cells[c].value;
        if (is_fresh[c]) {
          fresh << "serve\t" << cells[c].attr << '=' << cells[c].value << '\n';
        }
      }
      out << '\n';
    }
  }
  out << "# stream_deltas\n";
  {
    const bd::DatasetPair table = StreamTable(smoke);
    FeedStream feed(seed, table.dirty, kStreamFreshShare);
    for (int i = 0; i < n_ops; ++i) {
      const FeedOp op = feed.Next();
      if (op.is_read) {
        out << "read\t" << op.read_row << '\t' << op.read_attr << '\n';
        continue;
      }
      const auto& d = op.delta;
      switch (d.kind) {
        case birnn::stream::DeltaKind::kInsert:
          out << "insert\t" << d.row_id;
          for (const auto& v : d.values) out << '\t' << v;
          for (int a : op.fresh_attrs) {
            fresh << "stream\t" << a << '=' << d.values[static_cast<size_t>(a)]
                  << '\n';
          }
          break;
        case birnn::stream::DeltaKind::kUpdate:
          out << "update\t" << d.row_id << '\t' << d.attr << '\t' << d.value;
          if (!op.fresh_attrs.empty()) {
            fresh << "stream\t" << d.attr << '=' << d.value << '\n';
          }
          break;
        case birnn::stream::DeltaKind::kDelete:
          out << "delete\t" << d.row_id;
          break;
      }
      out << '\n';
    }
  }
  out << "# fresh_values\n" << fresh.str();
  return out.str();
}

}  // namespace perfbench

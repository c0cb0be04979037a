#include "eval/cache.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/obs.h"
#include "util/file.h"
#include "util/hash.h"

namespace birnn::eval {

namespace {

/// Exact-round-trip rendering of a double: hexfloat, parsed back by strtod.
std::string HexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool ParseHexDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(token.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

uint64_t FingerprintTable(const data::Table& table) {
  util::Fnv1a64 h;
  h.AddU64(static_cast<uint64_t>(table.num_rows()));
  h.AddU64(static_cast<uint64_t>(table.num_columns()));
  for (const std::string& name : table.column_names()) {
    h.Add(name);
    h.Add(std::string_view("\x1f", 1));  // unit separator: "ab","c" != "a","bc"
  }
  for (int r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      h.Add(table.cell(r, c));
      h.Add(std::string_view("\x1f", 1));
    }
  }
  return h.digest();
}

uint64_t FingerprintPair(const datagen::DatasetPair& pair) {
  util::Fnv1a64 h;
  h.Add(pair.name);
  h.AddU64(FingerprintTable(pair.dirty));
  h.AddU64(FingerprintTable(pair.clean));
  return h.digest();
}

ArtifactCache::ArtifactCache(std::string dir) : dir_(ResolveDir(dir)) {}

std::string ArtifactCache::ResolveDir(const std::string& dir) {
  if (!dir.empty()) return dir;
  const char* env = std::getenv("BIRNN_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return ".birnn-cache";
}

uint64_t ArtifactCache::Key(uint64_t dataset_fingerprint,
                            const std::string& job_config,
                            uint32_t schema_version) {
  util::Fnv1a64 h;
  h.AddU64(schema_version);
  h.AddU64(dataset_fingerprint);
  h.Add(job_config);
  return h.digest();
}

std::string ArtifactCache::EntryPath(uint64_t key) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + buf + ".birnn";
}

bool ArtifactCache::Lookup(uint64_t key, JobOutcome* out) {
  OBS_SPAN("eval/cache_lookup");
  const auto miss = [this](bool corrupt) {
    misses_.Add(1);
    if (corrupt) corrupt_.Add(1);
    return false;
  };

  std::ifstream in(EntryPath(key));
  if (!in) return miss(false);

  JobOutcome outcome;
  std::string line;
  // Header: magic + schema + key echo (the file must describe itself).
  if (!std::getline(in, line) || line != "birnn-artifact v1") return miss(true);
  {
    std::istringstream ls;
    std::string tag;
    uint32_t schema = 0;
    if (!std::getline(in, line)) return miss(true);
    ls.str(line);
    if (!(ls >> tag >> schema) || tag != "schema" ||
        schema != kCacheSchemaVersion) {
      return miss(true);
    }
  }
  {
    std::istringstream ls;
    std::string tag, hex;
    if (!std::getline(in, line)) return miss(true);
    ls.str(line);
    if (!(ls >> tag >> hex) || tag != "key") return miss(true);
    char* end = nullptr;
    if (std::strtoull(hex.c_str(), &end, 16) != key || *end != '\0') {
      return miss(true);
    }
  }

  const auto read_double_line = [&](const char* want, double* v) {
    std::string tag, token;
    if (!std::getline(in, line)) return false;
    std::istringstream ls(line);
    if (!(ls >> tag >> token) || tag != want) return false;
    return ParseHexDouble(token, v);
  };

  if (!read_double_line("precision", &outcome.metrics.precision) ||
      !read_double_line("recall", &outcome.metrics.recall) ||
      !read_double_line("f1", &outcome.metrics.f1) ||
      !read_double_line("accuracy", &outcome.metrics.accuracy) ||
      !read_double_line("train_seconds", &outcome.train_seconds) ||
      !read_double_line("train_cpu_seconds", &outcome.train_cpu_seconds)) {
    return miss(true);
  }

  size_t n_epochs = 0;
  {
    std::string tag;
    if (!std::getline(in, line)) return miss(true);
    std::istringstream ls(line);
    if (!(ls >> tag >> n_epochs) || tag != "epochs" || n_epochs > 1000000) {
      return miss(true);
    }
  }
  outcome.history.reserve(n_epochs);
  for (size_t e = 0; e < n_epochs; ++e) {
    if (!std::getline(in, line)) return miss(true);
    std::istringstream ls(line);
    std::string tag, loss_tok, train_tok, test_tok;
    core::EpochStats stats;
    int has_test = 0;
    if (!(ls >> tag >> stats.epoch >> loss_tok >> train_tok >> test_tok >>
          has_test) ||
        tag != "e" || !ParseHexDouble(loss_tok, &stats.train_loss) ||
        !ParseHexDouble(train_tok, &stats.train_accuracy) ||
        !ParseHexDouble(test_tok, &stats.test_accuracy)) {
      return miss(true);
    }
    stats.has_test = has_test != 0;
    outcome.history.push_back(stats);
  }
  size_t n_types = 0;
  {
    std::string tag;
    if (!std::getline(in, line)) return miss(true);
    std::istringstream ls(line);
    if (!(ls >> tag >> n_types) || tag != "error_types" || n_types > 64) {
      return miss(true);
    }
  }
  for (size_t t = 0; t < n_types; ++t) {
    if (!std::getline(in, line)) return miss(true);
    std::istringstream ls(line);
    std::string tag;
    int type = 0;
    ErrorTypeCount count;
    if (!(ls >> tag >> type >> count.errors >> count.detected) || tag != "t" ||
        type < 0 ||
        type > static_cast<int>(
                   datagen::ErrorType::kViolatedAttributeDependency)) {
      return miss(true);
    }
    outcome.error_types[static_cast<datagen::ErrorType>(type)] = count;
  }
  if (!std::getline(in, line) || line != "end") return miss(true);

  outcome.ok = true;
  outcome.from_cache = true;
  *out = std::move(outcome);
  hits_.Add(1);
  return true;
}

Status ArtifactCache::Store(uint64_t key, const JobOutcome& outcome) {
  OBS_SPAN("eval/cache_store");
  if (!outcome.ok) {
    return Status::InvalidArgument("refusing to cache a failed job");
  }
  // mkdir -p for a single-level dir; nested paths need existing parents.
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create cache dir " + dir_ + ": " +
                           std::strerror(errno));
  }

  char keyhex[32];
  std::snprintf(keyhex, sizeof(keyhex), "%016llx",
                static_cast<unsigned long long>(key));
  std::ostringstream out;
  out << "birnn-artifact v1\n";
  out << "schema " << kCacheSchemaVersion << "\n";
  out << "key " << keyhex << "\n";
  out << "precision " << HexDouble(outcome.metrics.precision) << "\n";
  out << "recall " << HexDouble(outcome.metrics.recall) << "\n";
  out << "f1 " << HexDouble(outcome.metrics.f1) << "\n";
  out << "accuracy " << HexDouble(outcome.metrics.accuracy) << "\n";
  out << "train_seconds " << HexDouble(outcome.train_seconds) << "\n";
  out << "train_cpu_seconds " << HexDouble(outcome.train_cpu_seconds) << "\n";
  out << "epochs " << outcome.history.size() << "\n";
  for (const core::EpochStats& e : outcome.history) {
    out << "e " << e.epoch << " " << HexDouble(e.train_loss) << " "
        << HexDouble(e.train_accuracy) << " " << HexDouble(e.test_accuracy)
        << " " << (e.has_test ? 1 : 0) << "\n";
  }
  out << "error_types " << outcome.error_types.size() << "\n";
  for (const auto& [type, count] : outcome.error_types) {
    out << "t " << static_cast<int>(type) << " " << count.errors << " "
        << count.detected << "\n";
  }
  out << "end\n";
  BIRNN_RETURN_IF_ERROR(util::WriteFileAtomic(EntryPath(key), out.str()));
  stores_.Add(1);
  return Status::OK();
}

CacheStats ArtifactCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.stores = stores_.Value();
  stats.corrupt = corrupt_.Value();
  return stats;
}

}  // namespace birnn::eval

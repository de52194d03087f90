#include "io/checkpoint_json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "io/json.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest::io {

namespace {

constexpr const char* kSchema = "effitest-checkpoint-v1";

// One table drives both serialization and parsing, so the two sides can
// never drift out of sync. Every FlowMetrics field is persisted: doubles
// through format_double (max_digits10) for an exact bit round-trip.
struct SizeField {
  const char* name;
  std::size_t core::FlowMetrics::* member;
};
struct DoubleField {
  const char* name;
  double core::FlowMetrics::* member;
};

constexpr SizeField kSizeFields[] = {
    {"ns", &core::FlowMetrics::ns},
    {"ng", &core::FlowMetrics::ng},
    {"nb", &core::FlowMetrics::nb},
    {"np", &core::FlowMetrics::np},
    {"npt", &core::FlowMetrics::npt},
    {"num_groups", &core::FlowMetrics::num_groups},
    {"num_batches", &core::FlowMetrics::num_batches},
    {"num_selected", &core::FlowMetrics::num_selected},
    {"forced_resolutions", &core::FlowMetrics::forced_resolutions},
    {"infeasible_configs", &core::FlowMetrics::infeasible_configs},
};

constexpr DoubleField kDoubleFields[] = {
    {"epsilon_ps", &core::FlowMetrics::epsilon_ps},
    {"designated_period", &core::FlowMetrics::designated_period},
    {"ta", &core::FlowMetrics::ta},
    {"tv", &core::FlowMetrics::tv},
    {"ta_pathwise", &core::FlowMetrics::ta_pathwise},
    {"tv_pathwise", &core::FlowMetrics::tv_pathwise},
    {"ra", &core::FlowMetrics::ra},
    {"rv", &core::FlowMetrics::rv},
    {"yield_no_buffer", &core::FlowMetrics::yield_no_buffer},
    {"yield_ideal", &core::FlowMetrics::yield_ideal},
    {"yield_proposed", &core::FlowMetrics::yield_proposed},
    {"yield_drop", &core::FlowMetrics::yield_drop},
    {"tp_seconds", &core::FlowMetrics::tp_seconds},
    {"tt_seconds_per_chip", &core::FlowMetrics::tt_seconds_per_chip},
    {"ts_seconds_per_chip", &core::FlowMetrics::ts_seconds_per_chip},
    // Analytic-SSTA fields (campaign JobKind::kAnalytic); 0 on flow jobs.
    {"untuned_mean", &core::FlowMetrics::untuned_mean},
    {"untuned_sigma", &core::FlowMetrics::untuned_sigma},
    {"tuned_mean", &core::FlowMetrics::tuned_mean},
    {"tuned_sigma", &core::FlowMetrics::tuned_sigma},
};

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw CheckpointError(path + ": " + what);
}

// --- schema reading --------------------------------------------------------

core::FlowMetrics read_metrics(const json::SchemaReader& r,
                               const json::Value& obj) {
  core::FlowMetrics m;
  for (const SizeField& f : kSizeFields) {
    m.*(f.member) = static_cast<std::size_t>(r.checked_integer(
        r.require(obj, f.name, json::Value::Kind::kNumber), f.name));
  }
  for (const DoubleField& f : kDoubleFields) {
    m.*(f.member) = r.require(obj, f.name, json::Value::Kind::kNumber).number;
  }
  if (obj.object.size() != std::size(kSizeFields) + std::size(kDoubleFields)) {
    r.fail(obj, "metrics object has unexpected keys");
  }
  return m;
}

CampaignCheckpoint read_checkpoint(const json::SchemaReader& r,
                                   const json::Value& root) {
  using Kind = json::Value::Kind;
  if (root.kind != Kind::kObject) {
    r.fail(root, "checkpoint must be a JSON object");
  }
  r.reject_unknown_keys(root, {"schema", "identity", "total_jobs", "completed"},
                        "the checkpoint");
  const json::Value& schema = r.require(root, "schema", Kind::kString);
  if (schema.string != kSchema) {
    r.fail(schema, "unsupported schema \"" + schema.string +
                       "\" (expected \"" + kSchema + "\")");
  }

  CampaignCheckpoint out;
  out.identity = r.require(root, "identity", Kind::kString).string;
  out.total_jobs = static_cast<std::size_t>(r.checked_integer(
      r.require(root, "total_jobs", Kind::kNumber), "total_jobs"));
  const json::Value& completed = r.require(root, "completed", Kind::kArray);
  out.completed.reserve(completed.array.size());
  for (const json::Value& entry : completed.array) {
    if (entry.kind != Kind::kObject) {
      r.fail(entry, "completed entry must be an object");
    }
    r.reject_unknown_keys(entry, {"index", "job", "seconds", "metrics"},
                          "a completed entry");
    const std::size_t index = static_cast<std::size_t>(
        r.checked_integer(r.require(entry, "index", Kind::kNumber), "index"));
    if (index >= out.total_jobs) {
      r.fail(entry, "index " + std::to_string(index) + " is out of range (" +
                        std::to_string(out.total_jobs) + " jobs)");
    }
    const json::Value& job = r.require(entry, "job", Kind::kObject);
    r.reject_unknown_keys(job,
                          {"circuit", "designated_period", "quantile", "kind"},
                          "\"job\"");
    core::CampaignJobResult result;
    result.job.circuit = r.require(job, "circuit", Kind::kString).string;
    result.job.designated_period =
        r.require(job, "designated_period", Kind::kNumber).number;
    result.job.quantile = r.require(job, "quantile", Kind::kNumber).number;
    // A checkpoint from before jobs carried a kind reads as flow, and then
    // fails the identity check, which names both identities.
    if (const json::Value* kind = r.optional(job, "kind", Kind::kString)) {
      try {
        result.job.kind = core::job_kind_from(kind->string);
      } catch (const std::invalid_argument& e) {
        r.fail(*kind, e.what());
      }
    }
    result.seconds = r.require(entry, "seconds", Kind::kNumber).number;
    result.metrics =
        read_metrics(r, r.require(entry, "metrics", Kind::kObject));
    result.completed = true;
    out.completed.emplace_back(index, std::move(result));
  }
  return out;
}

// --- serialization ---------------------------------------------------------

void append_metrics(json::Writer& w, const core::FlowMetrics& m) {
  w.raw("{");
  bool first = true;
  const auto sep = [&] {
    if (!first) w.raw(", ");
    first = false;
  };
  for (const SizeField& f : kSizeFields) {
    sep();
    w.key(f.name).number(static_cast<std::uint64_t>(m.*(f.member)));
  }
  for (const DoubleField& f : kDoubleFields) {
    sep();
    w.key(f.name).number(m.*(f.member));
  }
  w.raw("}");
}

void append_entry(json::Writer& w, std::size_t index,
                  const core::CampaignJobResult& result) {
  w.raw("    {").key("index").number(static_cast<std::uint64_t>(index));
  w.raw(",\n     ").key("job");
  w.raw("{").key("circuit").string(result.job.circuit);
  w.raw(", ").key("designated_period").number(result.job.designated_period);
  w.raw(", ").key("quantile").number(result.job.quantile);
  w.raw(", ").key("kind").string(core::job_kind_name(result.job.kind));
  w.raw("},\n     ").key("seconds").number(result.seconds);
  w.raw(",\n     ").key("metrics");
  append_metrics(w, result.metrics);
  w.raw("}");
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string campaign_identity(const std::vector<core::CampaignJob>& jobs,
                              const core::CampaignOptions& options) {
  // Canonical description of everything that feeds the deterministic
  // results. Thread counts are excluded on purpose: results are
  // thread-invariant, so resuming with a different --threads is legal.
  const std::shared_ptr<const scenario::CircuitCatalog> catalog =
      options.catalog ? options.catalog
                      : scenario::CircuitCatalog::shared_paper();
  std::string canon = kSchema;
  canon += "\nchips=" + std::to_string(options.flow.chips);
  canon += " seed=" + std::to_string(options.flow.seed);
  canon += " prediction=" + std::to_string(options.flow.use_prediction ? 1 : 0);
  canon += " align=" +
           std::to_string(options.flow.test.align_with_buffers ? 1 : 0);
  canon += " fill=" + std::to_string(options.flow.fill_slots ? 1 : 0);
  canon += " epsilon=" + json::format_double(options.flow.epsilon_override);
  canon += " inflation=" + json::format_double(options.random_inflation);
  canon += " exclusions=" + std::to_string(options.use_exclusions ? 1 : 0);
  std::vector<std::string> seen;
  for (const core::CampaignJob& job : jobs) {
    bool dup = false;
    for (const std::string& name : seen) dup = dup || name == job.circuit;
    if (!dup) {
      seen.push_back(job.circuit);
      canon += "\ncircuit " + job.circuit + ": " + catalog->describe(job.circuit);
    }
  }
  for (const core::CampaignJob& job : jobs) {
    canon += "\njob " + job.circuit + " td=" +
             json::format_double(job.designated_period) +
             " q=" + json::format_double(job.quantile) +
             " kind=" + core::job_kind_name(job.kind);
  }
  std::ostringstream hex;
  hex << std::hex;
  const std::uint64_t h = fnv1a64(canon);
  for (int shift = 60; shift >= 0; shift -= 4) {
    hex << ((h >> shift) & 0xF);
  }
  return hex.str();
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open checkpoint file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) fail(path, "cannot read checkpoint file");
  const std::string text = buffer.str();

  json::Parser parser(text, path);
  json::Value root;
  try {
    root = parser.parse();
  } catch (const json::ParseError& e) {
    // Name the recovery options: "parse error at line 1" alone reads like
    // a bug in the tool, when the file is simply unusable.
    throw CheckpointError(
        std::string("corrupt checkpoint: ") + e.what() +
        " — the file is not a valid checkpoint (it may predate this "
        "version, or be a partial copy from another filesystem); to "
        "recover, restore a good copy and rerun with --resume, or remove "
        "the file and rerun without --resume to restart the campaign "
        "from job 0");
  }
  try {
    return read_checkpoint(json::SchemaReader(parser), root);
  } catch (const json::ParseError& e) {
    throw CheckpointError(e.what());
  }
}

void validate_campaign_checkpoint(const CampaignCheckpoint& checkpoint,
                                  const std::string& identity,
                                  std::size_t total_jobs,
                                  const std::string& path) {
  if (checkpoint.identity != identity) {
    fail(path, "checkpoint identity " + checkpoint.identity +
                   " does not match this campaign (" + identity +
                   ") — circuits, periods, seed or flow options differ");
  }
  if (checkpoint.total_jobs != total_jobs) {
    fail(path, "checkpoint covers " + std::to_string(checkpoint.total_jobs) +
                   " jobs, this campaign has " + std::to_string(total_jobs));
  }
}

CheckpointWriter::CheckpointWriter(
    std::string path, std::string identity, std::size_t total_jobs,
    std::vector<std::pair<std::size_t, core::CampaignJobResult>> completed)
    : path_(std::move(path)),
      identity_(std::move(identity)),
      total_jobs_(total_jobs),
      completed_(std::move(completed)) {
  const std::lock_guard<std::mutex> lock(mutex_);
  write_locked();
}

void CheckpointWriter::record(std::size_t index,
                              const core::CampaignJobResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  completed_.emplace_back(index, result);
  write_locked();
}

void CheckpointWriter::write_locked() const {
  json::Writer w;
  w.raw("{\n  ").key("schema").string(kSchema);
  w.raw(",\n  ").key("identity").string(identity_);
  w.raw(",\n  ").key("total_jobs").number(
      static_cast<std::uint64_t>(total_jobs_));
  w.raw(",\n  ").key("completed").raw("[");
  bool first = true;
  for (const auto& [index, result] : completed_) {
    w.raw(first ? "\n" : ",\n");
    first = false;
    append_entry(w, index, result);
  }
  w.raw(first ? "]\n}\n" : "\n  ]\n}\n");
  const std::string out = w.take();

  // Temp + fsync + rename + directory fsync: a kill at any instant leaves
  // a complete checkpoint (the previous one or this one) on disk, never a
  // torn file — and that holds across POWER LOSS too. Without the fsync,
  // rename() can be journaled before the temp file's data blocks reach the
  // disk, and a crash then leaves the FINAL path pointing at an empty (or
  // partial) file that fails resume with a confusing parse error. The
  // directory fsync makes the rename itself durable.
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw std::runtime_error("checkpoint: cannot open " + tmp +
                             " for writing: " + std::strerror(errno));
  }
  const char* data = out.data();
  std::size_t remaining = out.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("checkpoint: write to " + tmp +
                               " failed: " + std::strerror(err));
    }
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("checkpoint: fsync of " + tmp +
                             " failed: " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    throw std::runtime_error("checkpoint: close of " + tmp +
                             " failed: " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path_ + ": " + std::strerror(errno));
  }
  // Durable rename: fsync the containing directory. Best-effort — some
  // filesystems refuse fsync on directory fds (EINVAL) and the data fsync
  // above already guarantees an un-torn file either way.
  const std::size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? std::string("/")
                                            : path_.substr(0, slash));
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
}

}  // namespace effitest::io

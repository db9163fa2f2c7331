#include "sweep/shard.hpp"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define DQMA_HAVE_FSYNC 1
#endif

#include "sweep/json.hpp"
#include "sweep/trajectory.hpp"
#include "util/fault.hpp"
#include "util/json_reader.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"

namespace dqma::sweep {
namespace {

/// Log format version; bumped only if the line schema changes.
constexpr int kCheckpointVersion = 1;

/// fsync is on unless DQMA_CHECKPOINT_FSYNC is set to 0/off/false: flush()
/// alone hands the bytes to the OS page cache, so a host crash (power
/// loss, kernel panic) could lose checkpoint lines the process already
/// reported durable to a resume orchestrator.
bool fsync_requested() {
  const char* value = std::getenv("DQMA_CHECKPOINT_FSYNC");
  if (value == nullptr) {
    return true;
  }
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0 &&
         std::strcmp(value, "false") != 0;
}

}  // namespace

std::string ShardSpec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

ShardSpec ShardSpec::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  ShardSpec spec;
  util::require(slash != std::string::npos &&
                    util::parse_number(std::string_view(text).substr(0, slash),
                              spec.index) &&
                    util::parse_number(std::string_view(text).substr(slash + 1),
                              spec.count) &&
                    spec.count >= 1 && spec.index >= 0 &&
                    spec.index < spec.count,
                "invalid shard spec '" + text +
                    "' (expected i/N with 0 <= i < N)");
  return spec;
}

CheckpointLog::CheckpointLog(std::string path, std::uint64_t base_seed,
                             bool smoke, const ShardSpec& shard)
    : path_(std::move(path)) {
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      contents = buffer.str();
    }
  }

  bool have_header = false;
  std::size_t line_start = 0;
  std::size_t line_number = 0;
  // Only newline-terminated lines count as committed. A final line
  // without its '\n' — parseable or not — is the crash-in-mid-write
  // case: the point it described was never acknowledged, so it is
  // dropped AND truncated from the file below (appending after a torn
  // fragment would corrupt the log for every later resume).
  const std::size_t committed_end = contents.rfind('\n') == std::string::npos
                                        ? 0
                                        : contents.rfind('\n') + 1;
  while (line_start < committed_end) {
    const std::size_t line_end = contents.find('\n', line_start);
    const std::string_view line(contents.data() + line_start,
                                line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }

    util::json::Node node;
    try {
      node = util::json::parse(line);
    } catch (const std::invalid_argument&) {
      util::require(false, "checkpoint log " + path_ + ": malformed line " +
                               std::to_string(line_number));
    }

    if (!have_header) {
      util::require(
          node.is_object() && node.find("dqma_checkpoint") != nullptr,
          "checkpoint log " + path_ + ": missing header line");
      util::require(node.at("dqma_checkpoint").as_int() == kCheckpointVersion,
                    "checkpoint log " + path_ +
                        ": unsupported checkpoint version");
      util::require(
          node.at("base_seed").as_uint() == base_seed &&
              node.at("smoke").as_bool() == smoke &&
              node.at("shard").as_string() == shard.label(),
          "checkpoint log " + path_ +
              ": header does not match this run's configuration (seed " +
              std::to_string(base_seed) + ", smoke " +
              (smoke ? "true" : "false") + ", shard " + shard.label() +
              ") — resuming would mix incompatible results");
      have_header = true;
      continue;
    }

    Entry entry;
    entry.key = node.at("key").as_uint();
    entry.params = named_values_from_json(node.at("params"));
    entry.metrics = named_values_from_json(node.at("metrics"));
    entry.wall_ms = node.at("wall_ms").as_double();
    const std::string& experiment = node.at("experiment").as_string();
    const auto order = static_cast<std::size_t>(node.at("order").as_uint());
    entries_[{experiment, order}] = std::move(entry);
  }

  if (committed_end < contents.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, committed_end, ec);
    util::require(!ec, "checkpoint log " + path_ +
                           ": cannot truncate torn final line");
  }

  out_.open(path_, std::ios::app);
  util::require(static_cast<bool>(out_),
                "cannot open checkpoint log " + path_ + " for appending");
#ifdef DQMA_HAVE_FSYNC
  if (fsync_requested()) {
    // A second descriptor on the same file: fsync(2) commits the file's
    // data regardless of which fd wrote it, so the ofstream keeps its
    // buffered formatting path and this fd exists only to sync.
    sync_fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
    util::require(sync_fd_ >= 0,
                  "cannot open checkpoint log " + path_ + " for fsync");
    // fsync on the file commits its *contents*; the directory entry that
    // names a freshly created file is separate metadata. Without a one-time
    // fsync of the containing directory a host crash right after creation
    // can lose the log itself, even though every line in it was synced.
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
      directory_synced_ = ::fsync(dir_fd) == 0;
      ::close(dir_fd);
    }
  }
#endif
  if (!have_header) {
    Json header = Json::object();
    header.add("dqma_checkpoint", Json(kCheckpointVersion));
    header.add("base_seed", Json(base_seed));
    header.add("smoke", Json(smoke));
    header.add("shard", Json(shard.label()));
    header.write_compact(out_);
    out_ << '\n';
    const std::lock_guard<std::mutex> lock(mutex_);
    commit_locked();
  }
}

CheckpointLog::~CheckpointLog() {
#ifdef DQMA_HAVE_FSYNC
  if (sync_fd_ >= 0) {
    ::close(sync_fd_);
  }
#endif
}

void CheckpointLog::commit_locked() {
  out_.flush();
#ifdef DQMA_HAVE_FSYNC
  if (sync_fd_ >= 0) {
    ::fsync(sync_fd_);
  }
#endif
}

const CheckpointLog::Entry* CheckpointLog::find(const std::string& experiment,
                                                std::size_t order) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find({experiment, order});
  return it == entries_.end() ? nullptr : &it->second;
}

std::size_t CheckpointLog::loaded_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void CheckpointLog::append(const std::string& experiment,
                           const std::string& series, std::size_t order,
                           std::uint64_t key, const ParamPoint& params,
                           const JobResult& result) {
  util::fault::point(util::fault::Site::kCheckpoint);
  Json line = Json::object();
  line.add("experiment", Json(experiment));
  line.add("series", Json(series));
  line.add("order", Json(static_cast<std::uint64_t>(order)));
  line.add("key", Json(key));
  line.add("params", Json::from_named_values(params));
  line.add("metrics", Json::from_named_values(result.metrics));
  line.add("wall_ms", Json(result.wall_ms));
  const std::string text = line.dump_compact();

  const std::lock_guard<std::mutex> lock(mutex_);
  if (util::fault::should_tear(util::fault::Site::kCheckpoint)) {
    // Crash-in-mid-write: persist a strict prefix with no newline, then die.
    // The resume path must drop AND truncate exactly this fragment.
    out_ << text.substr(0, text.size() / 2);
    commit_locked();
    util::fault::crash_now();
  }
  out_ << text << '\n';
  commit_locked();

  Entry entry;
  entry.key = key;
  entry.params = params;
  entry.metrics = result.metrics;
  entry.wall_ms = result.wall_ms;
  entries_[{experiment, order}] = std::move(entry);
}

}  // namespace dqma::sweep

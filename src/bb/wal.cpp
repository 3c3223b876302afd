#include "bb/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <tuple>

#include "obs/audit.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace e2e::bb {

namespace {

using obs::chain_json_escape;
using obs::chain_sha256_hex;
using obs::kChainHashMarker;
using obs::kChainHexDigestLen;

constexpr std::size_t kHashMarkerLen = sizeof(obs::kChainHashMarker) - 1;

void fields_to_json(const WalFields& fields, std::string& out) {
  out += '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += chain_json_escape(fields[i].first);
    out += "\":\"";
    out += chain_json_escape(fields[i].second);
    out += '"';
  }
  out += '}';
}

/// The record as JSON *without* the trailing hash field — the exact bytes
/// the chain hash covers (same discipline as obs/audit.cpp).
std::string canonical_body(const WalRecord& record) {
  std::string out;
  out.reserve(192 + 64 * (record.fields.size() +
                          record.items.size() * 8));
  out += "{\"seq\":";
  out += std::to_string(record.seq);
  out += ",\"at\":";
  out += std::to_string(record.at);
  out += ",\"domain\":\"";
  out += chain_json_escape(record.domain);
  out += "\",\"kind\":\"";
  out += chain_json_escape(record.kind);
  out += "\",\"fields\":";
  fields_to_json(record.fields, out);
  if (!record.items.empty()) {
    out += ",\"items\":[";
    for (std::size_t i = 0; i < record.items.size(); ++i) {
      if (i > 0) out += ',';
      fields_to_json(record.items[i], out);
    }
    out += ']';
  }
  out += ",\"prev\":\"";
  out += record.prev_hash;
  out += "\"}";
  return out;
}

// --- strict parser for the writer's exact format -----------------------------

struct Cursor {
  const std::string& s;
  std::size_t pos = 0;

  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s.compare(pos, len, lit) != 0) return false;
    pos += len;
    return true;
  }
  bool peek(char c) const { return pos < s.size() && s[pos] == c; }
};

bool parse_u64(Cursor& c, std::uint64_t& out) {
  const std::size_t start = c.pos;
  std::uint64_t v = 0;
  while (c.pos < c.s.size() && c.s[c.pos] >= '0' && c.s[c.pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(c.s[c.pos] - '0');
    ++c.pos;
  }
  if (c.pos == start) return false;
  out = v;
  return true;
}

bool parse_i64(Cursor& c, std::int64_t& out) {
  bool neg = false;
  if (c.peek('-')) {
    neg = true;
    ++c.pos;
  }
  std::uint64_t v = 0;
  if (!parse_u64(c, v)) return false;
  out = neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
  return true;
}

/// Parse a JSON string body (cursor past the opening quote on entry,
/// past the closing quote on exit). Understands the writer's escapes.
bool parse_string(Cursor& c, std::string& out) {
  out.clear();
  while (c.pos < c.s.size()) {
    const char ch = c.s[c.pos++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.pos >= c.s.size()) return false;
      const char esc = c.s[c.pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        default: return false;
      }
    } else {
      out += ch;
    }
  }
  return false;  // unterminated
}

bool parse_fields_object(Cursor& c, WalFields& out) {
  out.clear();
  if (!c.literal("{")) return false;
  if (c.peek('}')) {
    ++c.pos;
    return true;
  }
  for (;;) {
    std::string key;
    std::string value;
    if (!c.literal("\"") || !parse_string(c, key)) return false;
    if (!c.literal(":\"") || !parse_string(c, value)) return false;
    out.emplace_back(std::move(key), std::move(value));
    if (c.peek(',')) {
      ++c.pos;
      continue;
    }
    return c.literal("}");
  }
}

/// Parse one canonical body (the line with the hash field removed) back
/// into a record. Returns false on any deviation from the writer's format.
bool parse_body(const std::string& body, WalRecord& record) {
  Cursor c{body};
  if (!c.literal("{\"seq\":") || !parse_u64(c, record.seq)) return false;
  if (!c.literal(",\"at\":") || !parse_i64(c, record.at)) return false;
  if (!c.literal(",\"domain\":\"") || !parse_string(c, record.domain)) {
    return false;
  }
  if (!c.literal(",\"kind\":\"") || !parse_string(c, record.kind)) {
    return false;
  }
  if (!c.literal(",\"fields\":") || !parse_fields_object(c, record.fields)) {
    return false;
  }
  record.items.clear();
  if (c.literal(",\"items\":[")) {
    for (;;) {
      WalFields item;
      if (!parse_fields_object(c, item)) return false;
      record.items.push_back(std::move(item));
      if (c.peek(',')) {
        ++c.pos;
        continue;
      }
      break;
    }
    if (!c.literal("]")) return false;
  }
  if (!c.literal(",\"prev\":\"")) return false;
  if (c.pos + kChainHexDigestLen > body.size()) return false;
  record.prev_hash = body.substr(c.pos, kChainHexDigestLen);
  c.pos += kChainHexDigestLen;
  return c.literal("\"}") && c.pos == body.size();
}

/// Validate one complete line: well-formed hash field, hash covering
/// prev+body, parseable body. On success fills `record` (including hash).
bool parse_line(const std::string& line, WalRecord& record) {
  const std::size_t marker = line.rfind(kChainHashMarker);
  if (marker == std::string::npos ||
      marker + kHashMarkerLen + kChainHexDigestLen + 2 != line.size() ||
      line.compare(line.size() - 2, 2, "\"}") != 0) {
    return false;
  }
  const std::string claimed =
      line.substr(marker + kHashMarkerLen, kChainHexDigestLen);
  const std::string body = line.substr(0, marker) + "}";
  if (!parse_body(body, record)) return false;
  if (chain_sha256_hex(record.prev_hash + body) != claimed) return false;
  record.hash = claimed;
  return true;
}

Status write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return make_error(ErrorCode::kInternal,
                        std::string("wal write failed: ") +
                            std::strerror(errno),
                        "bb.wal");
    }
    off += static_cast<std::size_t>(n);
  }
  return {};
}

Result<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path, "bb.wal");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("cannot open dir ") + dir + ": " +
                          std::strerror(errno),
                      "bb.wal");
  }
  Status status;
  if (::fsync(fd) != 0) {
    status = make_error(ErrorCode::kInternal,
                        std::string("dir fsync failed: ") +
                            std::strerror(errno),
                        "bb.wal");
  }
  ::close(fd);
  return status;
}

}  // namespace

Status wal_replace_file_durable(const std::string& path,
                                const std::string& content, bool durable) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("cannot open ") + tmp + ": " +
                          std::strerror(errno),
                      "bb.wal");
  }
  Status status = write_all(fd, content);
  // fsync BEFORE rename: the rename must never make a file visible whose
  // data could still be lost (a crash would then leave an empty/corrupt
  // replacement where the old state used to be).
  if (status.ok() && durable && ::fsync(fd) != 0) {
    status = make_error(ErrorCode::kInternal,
                        std::string("fsync failed for ") + tmp + ": " +
                            std::strerror(errno),
                        "bb.wal");
  }
  ::close(fd);
  if (!status.ok()) return status;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("cannot rename ") + tmp + " to " + path +
                          ": " + std::strerror(errno),
                      "bb.wal");
  }
  // ... and fsync the directory AFTER rename, so the rename itself is
  // durable before the caller acts on it (e.g. truncates the WAL).
  return durable ? fsync_parent_dir(path) : Status::ok_status();
}

std::string wal_format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<double> wal_parse_double(const std::string& s) {
  if (s.empty()) {
    return make_error(ErrorCode::kBadMessage, "empty numeric field",
                      "bb.wal");
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return make_error(ErrorCode::kBadMessage,
                      "malformed numeric field: " + s, "bb.wal");
  }
  return v;
}

Result<std::string> wal_field(const WalFields& fields,
                              const std::string& key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return make_error(ErrorCode::kBadMessage, "missing field " + key,
                    "bb.wal");
}

std::string wal_render_flat_object(const WalFields& fields) {
  std::string out;
  fields_to_json(fields, out);
  return out;
}

Result<WalFields> wal_parse_flat_object(const std::string& line) {
  Cursor c{line};
  WalFields out;
  if (!parse_fields_object(c, out) || c.pos != line.size()) {
    return make_error(ErrorCode::kBadMessage,
                      "malformed snapshot line: " + line, "bb.wal");
  }
  return out;
}

WalFields reservation_to_fields(const Reservation& reservation) {
  const ResSpec& spec = reservation.spec;
  return {
      {"id", reservation.id},
      {"upstream", reservation.upstream_domain},
      {"user", spec.user},
      {"src", spec.source_domain},
      {"dst", spec.destination_domain},
      {"rate", wal_format_double(spec.rate_bits_per_s)},
      {"burst", wal_format_double(spec.burst_bits)},
      {"start", std::to_string(spec.interval.start)},
      {"end", std::to_string(spec.interval.end)},
      {"max_cost", wal_format_double(spec.max_cost)},
      {"cpu", spec.linked_cpu_reservation},
      {"tunnel", spec.is_tunnel ? "1" : "0"},
  };
}

Result<Reservation> reservation_from_fields(const WalFields& fields) {
  Reservation out;
  out.state = ReservationState::kGranted;
  auto get = [&](const char* key) { return wal_field(fields, key); };
  auto id = get("id");
  if (!id.ok()) return id.error();
  out.id = *id;
  auto upstream = get("upstream");
  if (!upstream.ok()) return upstream.error();
  out.upstream_domain = *upstream;
  ResSpec& spec = out.spec;
  auto user = get("user");
  auto src = get("src");
  auto dst = get("dst");
  auto cpu = get("cpu");
  auto tunnel = get("tunnel");
  if (!user.ok() || !src.ok() || !dst.ok() || !cpu.ok() || !tunnel.ok()) {
    return make_error(ErrorCode::kBadMessage,
                      "reservation record missing fields", "bb.wal");
  }
  spec.user = *user;
  spec.source_domain = *src;
  spec.destination_domain = *dst;
  spec.linked_cpu_reservation = *cpu;
  spec.is_tunnel = (*tunnel == "1");
  for (auto [key, target] :
       {std::pair<const char*, double*>{"rate", &spec.rate_bits_per_s},
        {"burst", &spec.burst_bits},
        {"max_cost", &spec.max_cost}}) {
    auto raw = get(key);
    if (!raw.ok()) return raw.error();
    auto value = wal_parse_double(*raw);
    if (!value.ok()) return value.error();
    *target = *value;
  }
  for (auto [key, target] :
       {std::pair<const char*, SimTime*>{"start", &spec.interval.start},
        {"end", &spec.interval.end}}) {
    auto raw = get(key);
    if (!raw.ok()) return raw.error();
    Cursor c{*raw};
    if (!parse_i64(c, *target) || c.pos != raw->size()) {
      return make_error(ErrorCode::kBadMessage,
                        "malformed time field: " + *raw, "bb.wal");
    }
  }
  return out;
}

std::string WalRecord::to_jsonl() const {
  std::string body = canonical_body(*this);
  body.pop_back();  // drop the closing '}' to splice the hash in
  return body + kChainHashMarker + hash + "\"}";
}

WriteAheadLog::WriteAheadLog(std::string path, SyncMode mode, int fd,
                             std::uint64_t next_seq, std::string head_hash)
    : path_(std::move(path)),
      mode_(mode),
      fd_(fd),
      next_seq_(next_seq),
      durable_seq_(next_seq - 1),
      head_hash_(std::move(head_hash)) {
  ensure_instruments();
}

WriteAheadLog::~WriteAheadLog() {
  // Flush anything appended but never committed (best effort — those
  // records were never acked, but keeping them is harmless because replay
  // is idempotent). Never after a latched failure: the failed batch is
  // gone, so flushing later appends would put a sequence gap on disk.
  if (!buffer_.empty() && fail_status_.ok()) (void)write_all(fd_, buffer_);
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::ensure_instruments() {
  auto& registry = obs::MetricsRegistry::global();
  bytes_counter_ = &registry.counter(obs::kBbWalBytesTotal);
  fsyncs_counter_ = &registry.counter(obs::kBbWalFsyncsTotal);
  group_size_hist_ = &registry.histogram(obs::kBbWalGroupCommitRecords);
  constexpr const char* kKinds[] = {
      wal_kind::kAdmit,          wal_kind::kRelease,
      wal_kind::kReleaseBatch,   wal_kind::kTunnelRegister,
      wal_kind::kTunnelAuthorize, wal_kind::kTunnelAlloc,
      wal_kind::kTunnelRelease,  wal_kind::kDelegationSerial,
  };
  static_assert(std::size(kKinds) ==
                std::tuple_size_v<decltype(records_counters_)>);
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    records_counters_[i] = {
        kKinds[i],
        &registry.counter(obs::kBbWalRecordsTotal, {{"kind", kKinds[i]}})};
  }
}

obs::Counter* WriteAheadLog::records_counter_for(
    const std::string& kind) const {
  for (const auto& [name, counter] : records_counters_) {
    if (kind == name) return counter;
  }
  // Unknown kinds never occur in practice (the wal_kind set is closed);
  // keep the slow path so a future kind still counts somewhere.
  return &obs::MetricsRegistry::global().counter(obs::kBbWalRecordsTotal,
                                                 {{"kind", kind}});
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::open(
    const std::string& path, SyncMode mode, std::uint64_t min_next_seq,
    const std::string& head_hash_floor) {
  std::uint64_t next_seq = std::max<std::uint64_t>(1, min_next_seq);
  std::string head_hash =
      head_hash_floor == genesis_hash() ? std::string() : head_hash_floor;
  auto content = slurp(path);
  if (content.ok()) {
    auto read = read_content(*content);
    if (!read.ok()) return read.error();
    if (read->torn_tail) {
      // Drop the unacked torn fragment on disk so appends continue from a
      // clean line boundary.
      std::size_t good_bytes = 0;
      for (const WalRecord& record : read->records) {
        good_bytes += record.to_jsonl().size() + 1;
      }
      if (::truncate(path.c_str(), static_cast<off_t>(good_bytes)) != 0) {
        return make_error(ErrorCode::kInternal,
                          std::string("wal truncate failed: ") +
                              std::strerror(errno),
                          "bb.wal");
      }
    }
    if (!read->records.empty()) {
      next_seq = std::max(next_seq, read->records.back().seq + 1);
      head_hash = read->records.back().hash;
    }
  }
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("cannot open wal ") + path + ": " +
                          std::strerror(errno),
                      "bb.wal");
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, mode, fd, next_seq, std::move(head_hash)));
}

std::uint64_t WriteAheadLog::append(const std::string& domain,
                                    const std::string& kind, WalFields fields,
                                    std::vector<WalFields> items) {
  WalRecord record;
  record.seq = next_seq_++;
  record.at = obs::current_span_ref().at;
  record.domain = domain;
  record.kind = kind;
  record.fields = std::move(fields);
  record.items = std::move(items);
  record.prev_hash = head_hash_.empty() ? genesis_hash() : head_hash_;
  std::string body = canonical_body(record);
  head_hash_ = chain_sha256_hex(record.prev_hash + body);
  body.pop_back();  // drop the closing '}' to splice the hash in
  body += kChainHashMarker;
  body += head_hash_;
  body += "\"}\n";
  buffer_ += body;
  ++buffered_records_;
  records_counter_for(kind)->increment();
  bytes_counter_->increment(body.size());
  return record.seq;
}

Status WriteAheadLog::commit(std::uint64_t lsn) {
  if (durable_seq_ >= lsn) return {};  // an earlier commit covered it
  if (!fail_status_.ok()) return fail_status_;  // latched: never ack
  Status status =
      fail_next_commit_for_testing_
          ? Status(make_error(ErrorCode::kInternal,
                              "wal write failed: injected fault", "bb.wal"))
          : write_all(fd_, buffer_);
  fail_next_commit_for_testing_ = false;
  if (status.ok() && mode_ == SyncMode::kFsync && ::fsync(fd_) != 0) {
    status = make_error(ErrorCode::kInternal,
                        std::string("wal fsync failed: ") +
                            std::strerror(errno),
                        "bb.wal");
  }
  const std::size_t group = buffered_records_;
  buffer_.clear();
  buffered_records_ = 0;
  if (!status.ok()) {
    // The buffered group is lost; anything appended after it would chain
    // past the hole (sequence gap + prev-hash break on disk, which would
    // poison every later acked record at recovery time). Latch instead:
    // all further commits fail with this error.
    fail_status_ = status;
    return status;
  }
  durable_seq_ = next_seq_ - 1;  // everything appended so far
  if (group > 0 && mode_ == SyncMode::kFsync) {
    fsyncs_counter_->increment();
    group_size_hist_->observe(static_cast<double>(group));
  }
  return status;
}

Status WriteAheadLog::log(const std::string& domain, const std::string& kind,
                          WalFields fields, std::vector<WalFields> items) {
  return commit(append(domain, kind, std::move(fields), std::move(items)));
}

void WriteAheadLog::inject_commit_failure_for_testing() {
  fail_next_commit_for_testing_ = true;
}

std::string WriteAheadLog::head_hash() const {
  return head_hash_.empty() ? genesis_hash() : head_hash_;
}

Result<std::size_t> WriteAheadLog::truncate_through(
    std::uint64_t covered_seq) {
  if (!fail_status_.ok()) return fail_status_.error();
  // Make everything appended durable first so the rewrite sees it.
  if (!buffer_.empty()) {
    Status status = write_all(fd_, buffer_);
    if (!status.ok()) return status.error();
    buffer_.clear();
    buffered_records_ = 0;
    durable_seq_ = next_seq_ - 1;
  }
  if (mode_ == SyncMode::kFsync) (void)::fsync(fd_);

  auto content = slurp(path_);
  if (!content.ok()) return content.error();
  auto read = read_content(*content);
  if (!read.ok()) return read.error();

  std::string surviving;
  std::size_t dropped = 0;
  for (const WalRecord& record : read->records) {
    if (record.seq <= covered_seq) {
      ++dropped;
      continue;
    }
    surviving += record.to_jsonl();
    surviving += '\n';
  }

  // Rewrite atomically and durably, then move appends to the new fd.
  Status replaced = wal_replace_file_durable(path_, surviving,
                                             mode_ == SyncMode::kFsync);
  if (!replaced.ok()) return replaced.error();
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("cannot reopen wal ") + path_ + ": " +
                          std::strerror(errno),
                      "bb.wal");
  }
  ::close(fd_);
  fd_ = fd;

  if (dropped > 0) {
    obs::MetricsRegistry::global()
        .counter(obs::kBbWalTruncatedRecordsTotal)
        .increment(dropped);
  }
  return dropped;
}

Result<std::size_t> WriteAheadLog::verify_file(const std::string& path) {
  auto content = slurp(path);
  if (!content.ok()) return content.error();
  auto read = read_content(*content);
  if (!read.ok()) return read.error();
  return read->records.size();
}

Result<WriteAheadLog::ReadResult> WriteAheadLog::read_file(
    const std::string& path) {
  auto content = slurp(path);
  if (!content.ok()) return content.error();
  return read_content(*content);
}

Result<WriteAheadLog::ReadResult> WriteAheadLog::read_content(
    const std::string& content) {
  ReadResult out;
  std::string expected_prev;  // empty = accept any (post-truncation file)
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      // Trailing bytes without a newline: a torn final write. The record
      // was never acked (the ack waits on fsync of the full line), so
      // dropping it is safe.
      out.torn_tail = true;
      return out;
    }
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++line_no;
    WalRecord record;
    if (!parse_line(line, record)) {
      // A newline-terminated line that fails verification is corruption,
      // not a torn write — a crash tears the FINAL line at a byte
      // boundary, leaving no trailing newline (the no-eol case above).
      // Treating a complete-but-malformed final line as droppable would
      // let an edit to the last acked record pass as a "crash".
      return make_error(ErrorCode::kBadMessage,
                        "wal line " + std::to_string(line_no) +
                            ": record hash mismatch or malformed record "
                            "(tampered log, refusing to replay)",
                        "bb.wal");
    }
    if (!expected_prev.empty() && record.prev_hash != expected_prev) {
      return make_error(ErrorCode::kBadMessage,
                        "wal line " + std::to_string(line_no) +
                            ": chain link broken (prev mismatch)",
                        "bb.wal");
    }
    if (!out.records.empty() &&
        record.seq != out.records.back().seq + 1) {
      return make_error(ErrorCode::kBadMessage,
                        "wal line " + std::to_string(line_no) +
                            ": sequence gap (missing records)",
                        "bb.wal");
    }
    expected_prev = record.hash;
    out.records.push_back(std::move(record));
  }
  return out;
}

const std::string& WriteAheadLog::genesis_hash() {
  return obs::AuditLog::genesis_hash();
}

}  // namespace e2e::bb

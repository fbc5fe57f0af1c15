#include "svc/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ckpt/codec.hpp"
#include "common/error.hpp"

namespace prs::svc {
namespace {

constexpr std::uint32_t kJournalMagic = 0x4a535250;  // "PRSJ"
constexpr std::uint32_t kJournalVersion = 1;
// Header: magic + version + payload_len + checksum.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
// A payload larger than this is corruption, not a record: no legitimate
// record (spec tokens + result lines) comes anywhere close.
constexpr std::uint64_t kMaxPayload = 16ull * 1024 * 1024;

}  // namespace

const char* journal_record_name(JournalRecordType t) {
  switch (t) {
    case JournalRecordType::kSubmit: return "submit";
    case JournalRecordType::kStart: return "start";
    case JournalRecordType::kGate: return "gate";
    case JournalRecordType::kDone: return "done";
    case JournalRecordType::kFail: return "fail";
    case JournalRecordType::kCancel: return "cancel";
  }
  return "unknown";
}

bool parse_journal_record_name(const std::string& name,
                               JournalRecordType* out) {
  for (JournalRecordType t :
       {JournalRecordType::kSubmit, JournalRecordType::kStart,
        JournalRecordType::kGate, JournalRecordType::kDone,
        JournalRecordType::kFail, JournalRecordType::kCancel}) {
    if (name == journal_record_name(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

std::string encode_journal_record(const JournalRecord& rec) {
  ckpt::Writer payload;
  payload.u8(static_cast<std::uint8_t>(rec.type));
  payload.i32(rec.job_id);
  switch (rec.type) {
    case JournalRecordType::kSubmit:
      payload.str(rec.tenant);
      payload.str(rec.dedup);
      payload.str(rec.spec_tokens);
      break;
    case JournalRecordType::kStart:
      break;
    case JournalRecordType::kGate:
      payload.i32(rec.stages);
      break;
    case JournalRecordType::kDone:
      payload.str(rec.digest);
      payload.u32(static_cast<std::uint32_t>(rec.lines.size()));
      for (const std::string& line : rec.lines) payload.str(line);
      break;
    case JournalRecordType::kFail:
    case JournalRecordType::kCancel:
      payload.str(rec.error);
      break;
  }
  ckpt::Writer frame;
  frame.u32(kJournalMagic);
  frame.u32(kJournalVersion);
  frame.u64(payload.size());
  frame.u64(ckpt::fnv1a64(payload.bytes()));
  std::string out = frame.take();
  out += payload.bytes();
  return out;
}

JournalReplay decode_journal(const std::string& bytes) {
  JournalReplay out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kHeaderBytes) {
      out.torn_tail = true;
      break;
    }
    ckpt::Reader header(std::string_view(bytes).substr(pos, kHeaderBytes));
    const std::uint32_t magic = header.u32();
    const std::uint32_t version = header.u32();
    const std::uint64_t payload_len = header.u64();
    const std::uint64_t checksum = header.u64();
    if (magic != kJournalMagic || version != kJournalVersion ||
        payload_len > kMaxPayload ||
        payload_len > bytes.size() - pos - kHeaderBytes) {
      out.torn_tail = true;
      break;
    }
    const std::string_view payload =
        std::string_view(bytes).substr(pos + kHeaderBytes, payload_len);
    if (ckpt::fnv1a64(payload) != checksum) {
      out.torn_tail = true;
      break;
    }
    JournalRecord rec;
    bool ok = true;
    try {
      ckpt::Reader r(payload);
      const std::uint8_t type = r.u8();
      if (type < 1 || type > 6) throw Error("bad journal record type");
      rec.type = static_cast<JournalRecordType>(type);
      rec.job_id = r.i32();
      switch (rec.type) {
        case JournalRecordType::kSubmit:
          rec.tenant = r.str();
          rec.dedup = r.str();
          rec.spec_tokens = r.str();
          break;
        case JournalRecordType::kStart:
          break;
        case JournalRecordType::kGate:
          rec.stages = r.i32();
          break;
        case JournalRecordType::kDone: {
          rec.digest = r.str();
          const std::uint32_t n = r.u32();
          // Each line carries an 8-byte length prefix, so a count the rest
          // of the payload cannot hold is malformed, not a reservation to
          // attempt: the checksum is no MAC, and 2^32 - 1 lines would throw
          // std::bad_alloc past this decoder.
          if (n > r.remaining() / 8) {
            throw Error("journal DONE record claims more lines than it holds");
          }
          rec.lines.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i) rec.lines.push_back(r.str());
          break;
        }
        case JournalRecordType::kFail:
        case JournalRecordType::kCancel:
          rec.error = r.str();
          break;
      }
    } catch (const Error&) {
      ok = false;  // checksum matched but the payload grammar did not
    }
    if (!ok) {
      out.torn_tail = true;
      break;
    }
    out.records.push_back(std::move(rec));
    pos += kHeaderBytes + payload_len;
    out.bytes_consumed = pos;
  }
  return out;
}

JournalReplay read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return JournalReplay{};  // missing file = empty journal
  std::ostringstream buf;
  buf << in.rdbuf();
  return decode_journal(buf.str());
}

Journal::Journal(Config cfg) : cfg_(std::move(cfg)) {
  PRS_REQUIRE(!cfg_.path.empty(), "journal path must not be empty");
  PRS_REQUIRE(cfg_.max_pending >= 1, "journal max_pending must be >= 1");
  fd_ = ::open(cfg_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw Error("cannot open journal " + cfg_.path + ": " +
                std::strerror(errno));
  }
  flusher_ = std::thread(&Journal::flusher_main, this);
}

Journal::~Journal() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    paused_ = false;
    cv_.notify_all();
  }
  flusher_.join();
  ::close(fd_);
}

JournalReplay Journal::replay() const { return read_journal(cfg_.path); }

bool Journal::append_durable(const JournalRecord& rec) {
  std::uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (static_cast<int>(queue_.size()) >= cfg_.max_pending) {
      shed_++;
      return false;
    }
    seq = next_seq_++;
    queue_.push_back({encode_journal_record(rec), rec.type, seq});
    cv_.notify_all();
    flushed_cv_.wait(lk, [&] { return flushed_seq_ >= seq || stopping_; });
    return flushed_seq_ >= seq;
  }
}

bool Journal::append_async(const JournalRecord& rec) {
  std::lock_guard<std::mutex> lk(mu_);
  if (static_cast<int>(queue_.size()) >= cfg_.max_pending) {
    shed_++;
    return false;
  }
  queue_.push_back({encode_journal_record(rec), rec.type, next_seq_++});
  cv_.notify_all();
  return true;
}

void Journal::flush() {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t target = next_seq_ - 1;
  flushed_cv_.wait(lk, [&] { return flushed_seq_ >= target || stopping_; });
}

std::uint64_t Journal::records_appended() const {
  std::lock_guard<std::mutex> lk(mu_);
  return appended_;
}

std::uint64_t Journal::records_shed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shed_;
}

void Journal::set_post_sync_hook(
    std::function<void(JournalRecordType, std::uint64_t)> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  post_sync_hook_ = std::move(hook);
}

void Journal::pause_flush(bool paused) {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = paused;
  cv_.notify_all();
}

void Journal::flusher_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Group commit: take the whole queue, write it as one batch, fsync
    // once, then wake every durable waiter covered by the batch.
    std::deque<Pending> batch;
    batch.swap(queue_);
    lk.unlock();
    std::string data;
    for (const Pending& p : batch) data += p.bytes;
    std::size_t off = 0;
    bool io_ok = true;
    while (off < data.size()) {
      ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        io_ok = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (io_ok) ::fsync(fd_);
    lk.lock();
    // A failed write still advances flushed_seq_ so durable waiters do not
    // hang; the journal is best-effort once the disk itself fails.
    for (const Pending& p : batch) {
      flushed_seq_ = std::max(flushed_seq_, p.seq);
      if (io_ok) {
        appended_++;
        const auto idx = static_cast<std::size_t>(p.type);
        type_counts_[idx]++;
        if (post_sync_hook_) {
          auto hook = post_sync_hook_;
          const std::uint64_t count = type_counts_[idx];
          lk.unlock();
          hook(p.type, count);
          lk.lock();
        }
      }
    }
    flushed_cv_.notify_all();
  }
}

}  // namespace prs::svc

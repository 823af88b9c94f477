#include "ledger/ledger.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/buffer.h"

namespace ccf::ledger {

namespace {
constexpr char kChunkMagic[] = "CCFLEDG1";
constexpr size_t kMagicLen = 8;
}  // namespace

Bytes Entry::Serialize() const {
  BufWriter w;
  w.U64(view);
  w.U64(seqno);
  w.U8(static_cast<uint8_t>(type));
  w.Blob(public_ws);
  w.Blob(private_sealed);
  w.Raw(ByteSpan(claims_digest.data(), claims_digest.size()));
  return w.Take();
}

Result<Entry> Entry::Deserialize(ByteSpan data) {
  BufReader r(data);
  Entry e;
  ASSIGN_OR_RETURN(e.view, r.U64());
  ASSIGN_OR_RETURN(e.seqno, r.U64());
  ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type > static_cast<uint8_t>(EntryType::kInternal)) {
    return Status::Corruption("ledger: unknown entry type");
  }
  e.type = static_cast<EntryType>(type);
  ASSIGN_OR_RETURN(e.public_ws, r.Blob());
  ASSIGN_OR_RETURN(e.private_sealed, r.Blob());
  ASSIGN_OR_RETURN(Bytes digest, r.Raw(crypto::kSha256DigestSize));
  std::copy(digest.begin(), digest.end(), e.claims_digest.begin());
  if (!r.AtEnd()) {
    return Status::Corruption("ledger: trailing entry bytes");
  }
  return e;
}

crypto::Sha256Digest Entry::WriteSetDigest() const {
  BufWriter w;
  w.U8(static_cast<uint8_t>(type));
  w.Blob(public_ws);
  w.Blob(private_sealed);
  return crypto::Sha256::Hash(w.data());
}

Status Ledger::SetBase(uint64_t base) {
  if (!entries_.empty()) {
    return Status::FailedPrecondition(
        "ledger: SetBase on non-empty ledger (last seqno " +
        std::to_string(last_seqno()) + ")");
  }
  base_seqno_ = base;
  return Status::Ok();
}

Status Ledger::Append(Entry entry) {
  if (entry.seqno != last_seqno() + 1) {
    return Status::FailedPrecondition(
        "ledger: non-contiguous append at " + std::to_string(entry.seqno));
  }
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

Result<const Entry*> Ledger::Get(uint64_t seqno) const {
  if (seqno <= base_seqno_) {
    return Status::OutOfRange("ledger: seqno " + std::to_string(seqno) +
                              " compacted below snapshot horizon " +
                              std::to_string(base_seqno_));
  }
  if (seqno > last_seqno()) {
    return Status::NotFound("ledger: no entry at seqno " +
                            std::to_string(seqno));
  }
  return &entries_[seqno - base_seqno_ - 1];
}

Status Ledger::Truncate(uint64_t seqno) {
  if (seqno < base_seqno_) {
    return Status::FailedPrecondition(
        "ledger: cannot truncate to " + std::to_string(seqno) +
        " below snapshot base " + std::to_string(base_seqno_));
  }
  if (seqno - base_seqno_ < entries_.size()) {
    entries_.resize(seqno - base_seqno_);
  }
  return Status::Ok();
}

Status Ledger::RetireBelow(uint64_t horizon) {
  if (horizon <= base_seqno_) return Status::Ok();
  if (horizon > last_seqno()) {
    return Status::FailedPrecondition(
        "ledger: cannot retire below " + std::to_string(horizon) +
        " past last seqno " + std::to_string(last_seqno()));
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() +
                     static_cast<ptrdiff_t>(horizon - base_seqno_));
  base_seqno_ = horizon;
  return Status::Ok();
}

namespace {

Status WriteChunk(const std::string& path, const std::deque<Entry>& entries,
                  size_t first_idx, size_t last_idx) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("ledger: cannot open " + path);
  }
  out.write(kChunkMagic, kMagicLen);
  for (size_t i = first_idx; i <= last_idx; ++i) {
    Bytes frame = entries[i].Serialize();
    uint32_t len = static_cast<uint32_t>(frame.size());
    char len_le[4] = {static_cast<char>(len), static_cast<char>(len >> 8),
                      static_cast<char>(len >> 16),
                      static_cast<char>(len >> 24)};
    out.write(len_le, 4);
    out.write(reinterpret_cast<const char*>(frame.data()), frame.size());
  }
  if (!out) {
    return Status::Internal("ledger: write failed for " + path);
  }
  return Status::Ok();
}

Result<std::vector<Entry>> ReadChunk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal("ledger: cannot open " + path);
  }
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::memcmp(magic, kChunkMagic, kMagicLen) != 0) {
    return Status::Corruption("ledger: bad chunk magic in " + path);
  }
  std::vector<Entry> entries;
  while (true) {
    char len_le[4];
    in.read(len_le, 4);
    if (in.eof()) {
      // A partial read (1-3 bytes) sets eofbit as well as failbit; only a
      // clean EOF at a frame boundary (0 bytes read) ends the chunk.
      if (in.gcount() == 0) break;
      return Status::Corruption("ledger: truncated frame length");
    }
    if (!in) return Status::Corruption("ledger: truncated frame length");
    uint32_t len = static_cast<uint8_t>(len_le[0]) |
                   (static_cast<uint8_t>(len_le[1]) << 8) |
                   (static_cast<uint8_t>(len_le[2]) << 16) |
                   (static_cast<uint8_t>(len_le[3]) << 24);
    if (len > (64u << 20)) {
      return Status::Corruption("ledger: oversized frame");
    }
    Bytes frame(len);
    in.read(reinterpret_cast<char*>(frame.data()), len);
    if (!in) return Status::Corruption("ledger: truncated frame body");
    ASSIGN_OR_RETURN(Entry e, Entry::Deserialize(frame));
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

Status SaveToDir(const Ledger& ledger, const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("ledger: cannot create dir " + dir);
  }
  // Remove stale chunk files so the directory mirrors this ledger exactly.
  for (const auto& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("ledger_", 0) == 0) fs::remove(de.path(), ec);
  }

  const auto& entries = ledger.entries();
  size_t chunk_start = 0;
  while (chunk_start < entries.size()) {
    // A chunk extends to the next signature entry (inclusive), or to the
    // end of the ledger as a partial chunk.
    size_t end = chunk_start;
    bool closed = false;
    for (size_t i = chunk_start; i < entries.size(); ++i) {
      end = i;
      if (entries[i].type == EntryType::kSignature) {
        closed = true;
        break;
      }
    }
    // Closed committed-range chunk "ledger_<first>-<last>"; the trailing
    // unsigned suffix is the open chunk "ledger_<first>".
    std::string name =
        "ledger_" + std::to_string(ledger.base_seqno() + chunk_start + 1);
    if (closed) {
      name += "-" + std::to_string(ledger.base_seqno() + end + 1);
    }
    RETURN_IF_ERROR(WriteChunk(dir + "/" + name, entries, chunk_start, end));
    chunk_start = end + 1;
  }
  return Status::Ok();
}

Result<Ledger> LoadFromDir(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    return Status::NotFound("ledger: no such directory " + dir);
  }
  // Collect chunk files sorted by their first seqno.
  std::vector<std::pair<uint64_t, std::string>> files;
  for (const auto& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("ledger_", 0) != 0) continue;
    uint64_t first = std::strtoull(name.c_str() + 7, nullptr, 10);
    files.emplace_back(first, de.path().string());
  }
  std::sort(files.begin(), files.end());

  Ledger ledger;
  // After a snapshot, the earliest chunk on disk starts past seqno 1; the
  // restored ledger's base is whatever precedes that first chunk.
  if (!files.empty() && files[0].first > 0) {
    RETURN_IF_ERROR(ledger.SetBase(files[0].first - 1));
  }
  for (const auto& [first, path] : files) {
    ASSIGN_OR_RETURN(std::vector<Entry> entries, ReadChunk(path));
    for (Entry& e : entries) {
      RETURN_IF_ERROR(ledger.Append(std::move(e)));
    }
  }
  return ledger;
}

}  // namespace ccf::ledger

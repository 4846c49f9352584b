#include "durability/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <limits>

#include "common/crc32c.h"

namespace mmv {
namespace durability {

namespace {

constexpr char kMagic[] = "mmv-checkpoint v1";
constexpr char kDeltaMagic[] = "mmv-checkpoint-delta v2";
constexpr char kSeparator[] = "---\n";

std::string Hex32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

// Every uint64_t fits in 20 decimal digits.
constexpr size_t kPaddedDigits = 20;

std::string Padded(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020" PRIu64, v);
  return buf;
}

// Reads one "key value\n" line at *at, returning the value or an error.
Result<std::string> TakeField(std::string_view file, size_t* at,
                              std::string_view key) {
  size_t eol = file.find('\n', *at);
  if (eol == std::string_view::npos) {
    return Status::ParseError("checkpoint header truncated at field '" +
                              std::string(key) + "'");
  }
  std::string_view line = file.substr(*at, eol - *at);
  if (line.size() < key.size() + 2 ||
      line.compare(0, key.size(), key) != 0 || line[key.size()] != ' ') {
    return Status::ParseError("checkpoint header: expected field '" +
                              std::string(key) + "', got '" +
                              std::string(line) + "'");
  }
  *at = eol + 1;
  return std::string(line.substr(key.size() + 1));
}

Result<uint32_t> ToHex32(const std::string& s, std::string_view field) {
  if (s.size() != 8) {
    return Status::ParseError("checkpoint header: bad " +
                              std::string(field) + " '" + s + "'");
  }
  uint32_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::ParseError("checkpoint header: bad " +
                                std::string(field) + " '" + s + "'");
    }
    v = (v << 4) | static_cast<uint32_t>(digit);
  }
  return v;
}

// Accepts exactly the names Padded writes: any other digit count is a
// foreign file, not a durability file with a different epoch.
Result<uint64_t> ParseNamed(std::string_view name, std::string_view prefix,
                            std::string_view suffix) {
  if (name.size() != prefix.size() + kPaddedDigits + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
    return Status::ParseError("not a durability file name: " +
                              std::string(name));
  }
  return ParseU64(name.substr(prefix.size(), kPaddedDigits),
                  "file name epoch");
}

}  // namespace

Result<uint64_t> ParseU64(std::string_view s, std::string_view what) {
  if (s.empty()) {
    return Status::ParseError("checkpoint: empty " + std::string(what));
  }
  uint64_t v = 0;
  for (char c : s) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (c < '0' || c > '9' ||
        v > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return Status::ParseError("checkpoint: bad " + std::string(what) +
                                " '" + std::string(s) + "'");
    }
    v = v * 10 + digit;
  }
  return v;
}

std::string EncodeCheckpoint(const CheckpointMeta& meta,
                             std::string_view body) {
  std::string header;
  header += kMagic;
  header += '\n';
  header += "epoch " + std::to_string(meta.epoch) + "\n";
  header += "ext_counter " + std::to_string(meta.ext_counter) + "\n";
  header += "program " + Hex32(meta.program_crc) + "\n";
  header += "wal_offset " + std::to_string(meta.wal_offset) + "\n";
  header += "atoms " + std::to_string(meta.atoms) + "\n";
  // Whole-file checksum: every byte except the checksum line itself.
  uint32_t crc = Crc32cExtend(Crc32cExtend(Crc32c(header), kSeparator), body);
  std::string out;
  out.reserve(header.size() + 16 + sizeof(kSeparator) + body.size());
  out += header;
  out += "checksum " + Hex32(crc) + "\n";
  out += kSeparator;
  out.append(body);
  return out;
}

Result<CheckpointMeta> DecodeCheckpoint(std::string_view file,
                                        std::string* body) {
  size_t at = 0;
  size_t magic_eol = file.find('\n');
  if (magic_eol == std::string_view::npos ||
      file.substr(0, magic_eol) != kMagic) {
    return Status::ParseError("not a checkpoint file (bad magic)");
  }
  at = magic_eol + 1;

  CheckpointMeta meta;
  MMV_ASSIGN_OR_RETURN(std::string epoch_s, TakeField(file, &at, "epoch"));
  MMV_ASSIGN_OR_RETURN(meta.epoch, ParseU64(epoch_s, "epoch"));
  MMV_ASSIGN_OR_RETURN(std::string counter_s,
                       TakeField(file, &at, "ext_counter"));
  {
    // The external-support counter is <= 0 by construction.
    bool neg = !counter_s.empty() && counter_s[0] == '-';
    MMV_ASSIGN_OR_RETURN(
        uint64_t mag,
        ParseU64(neg ? counter_s.substr(1) : counter_s, "ext_counter"));
    meta.ext_counter = neg ? -static_cast<int>(mag) : static_cast<int>(mag);
  }
  MMV_ASSIGN_OR_RETURN(std::string program_s,
                       TakeField(file, &at, "program"));
  MMV_ASSIGN_OR_RETURN(meta.program_crc, ToHex32(program_s, "program"));
  MMV_ASSIGN_OR_RETURN(std::string offset_s,
                       TakeField(file, &at, "wal_offset"));
  MMV_ASSIGN_OR_RETURN(meta.wal_offset, ParseU64(offset_s, "wal_offset"));
  MMV_ASSIGN_OR_RETURN(std::string atoms_s, TakeField(file, &at, "atoms"));
  MMV_ASSIGN_OR_RETURN(meta.atoms, ParseU64(atoms_s, "atoms"));

  size_t checksum_at = at;
  MMV_ASSIGN_OR_RETURN(std::string checksum_s,
                       TakeField(file, &at, "checksum"));
  MMV_ASSIGN_OR_RETURN(uint32_t expected, ToHex32(checksum_s, "checksum"));

  if (file.size() - at < sizeof(kSeparator) - 1 ||
      file.compare(at, sizeof(kSeparator) - 1, kSeparator) != 0) {
    return Status::ParseError("checkpoint missing '---' separator");
  }
  std::string_view tail = file.substr(at);  // "---\n" + body
  uint32_t actual =
      Crc32cExtend(Crc32c(file.substr(0, checksum_at)), tail);
  if (actual != expected) {
    return Status::ParseError("checkpoint checksum mismatch (file is torn "
                              "or corrupt)");
  }
  *body = std::string(tail.substr(sizeof(kSeparator) - 1));
  return meta;
}

std::string EncodeDeltaCheckpoint(const DeltaCheckpointMeta& meta,
                                  std::string_view body) {
  std::string header;
  header += kDeltaMagic;
  header += '\n';
  header += "epoch " + std::to_string(meta.epoch) + "\n";
  header += "parent " + std::to_string(meta.parent) + "\n";
  header += "ext_counter " + std::to_string(meta.ext_counter) + "\n";
  header += "program " + Hex32(meta.program_crc) + "\n";
  header += "wal_offset " + std::to_string(meta.wal_offset) + "\n";
  header += "atoms " + std::to_string(meta.atoms) + "\n";
  // Same whole-file checksum discipline as full checkpoints: every byte
  // except the checksum line itself.
  uint32_t crc = Crc32cExtend(Crc32cExtend(Crc32c(header), kSeparator), body);
  std::string out;
  out.reserve(header.size() + 16 + sizeof(kSeparator) + body.size());
  out += header;
  out += "checksum " + Hex32(crc) + "\n";
  out += kSeparator;
  out.append(body);
  return out;
}

Result<DeltaCheckpointMeta> DecodeDeltaCheckpoint(std::string_view file,
                                                  std::string* body) {
  size_t at = 0;
  size_t magic_eol = file.find('\n');
  if (magic_eol == std::string_view::npos ||
      file.substr(0, magic_eol) != kDeltaMagic) {
    return Status::ParseError("not a delta checkpoint file (bad magic)");
  }
  at = magic_eol + 1;

  DeltaCheckpointMeta meta;
  MMV_ASSIGN_OR_RETURN(std::string epoch_s, TakeField(file, &at, "epoch"));
  MMV_ASSIGN_OR_RETURN(meta.epoch, ParseU64(epoch_s, "epoch"));
  MMV_ASSIGN_OR_RETURN(std::string parent_s, TakeField(file, &at, "parent"));
  MMV_ASSIGN_OR_RETURN(meta.parent, ParseU64(parent_s, "parent"));
  MMV_ASSIGN_OR_RETURN(std::string counter_s,
                       TakeField(file, &at, "ext_counter"));
  {
    // The external-support counter is <= 0 by construction.
    bool neg = !counter_s.empty() && counter_s[0] == '-';
    MMV_ASSIGN_OR_RETURN(
        uint64_t mag,
        ParseU64(neg ? counter_s.substr(1) : counter_s, "ext_counter"));
    meta.ext_counter = neg ? -static_cast<int>(mag) : static_cast<int>(mag);
  }
  MMV_ASSIGN_OR_RETURN(std::string program_s,
                       TakeField(file, &at, "program"));
  MMV_ASSIGN_OR_RETURN(meta.program_crc, ToHex32(program_s, "program"));
  MMV_ASSIGN_OR_RETURN(std::string offset_s,
                       TakeField(file, &at, "wal_offset"));
  MMV_ASSIGN_OR_RETURN(meta.wal_offset, ParseU64(offset_s, "wal_offset"));
  MMV_ASSIGN_OR_RETURN(std::string atoms_s, TakeField(file, &at, "atoms"));
  MMV_ASSIGN_OR_RETURN(meta.atoms, ParseU64(atoms_s, "atoms"));

  size_t checksum_at = at;
  MMV_ASSIGN_OR_RETURN(std::string checksum_s,
                       TakeField(file, &at, "checksum"));
  MMV_ASSIGN_OR_RETURN(uint32_t expected, ToHex32(checksum_s, "checksum"));

  if (file.size() - at < sizeof(kSeparator) - 1 ||
      file.compare(at, sizeof(kSeparator) - 1, kSeparator) != 0) {
    return Status::ParseError("delta checkpoint missing '---' separator");
  }
  std::string_view tail = file.substr(at);  // "---\n" + body
  uint32_t actual =
      Crc32cExtend(Crc32c(file.substr(0, checksum_at)), tail);
  if (actual != expected) {
    return Status::ParseError(
        "delta checkpoint checksum mismatch (file is torn or corrupt)");
  }
  *body = std::string(tail.substr(sizeof(kSeparator) - 1));
  return meta;
}

std::string CheckpointFileName(uint64_t epoch) {
  return "ckpt-" + Padded(epoch) + ".mmv";
}

std::string DeltaCheckpointFileName(uint64_t epoch) {
  return "dckpt-" + Padded(epoch) + ".mmv";
}

std::string WalSegmentFileName(uint64_t base) {
  return "wal-" + Padded(base) + ".log";
}

Result<uint64_t> ParseCheckpointFileName(std::string_view name) {
  return ParseNamed(name, "ckpt-", ".mmv");
}

Result<uint64_t> ParseDeltaCheckpointFileName(std::string_view name) {
  return ParseNamed(name, "dckpt-", ".mmv");
}

Result<uint64_t> ParseWalSegmentFileName(std::string_view name) {
  return ParseNamed(name, "wal-", ".log");
}

}  // namespace durability
}  // namespace mmv

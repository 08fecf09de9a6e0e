#include "ats/persist/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "ats/util/serialize.h"

// The POSIX fast path: fsync'd write-rename and the mmap open. Other
// platforms get the buffered fallback below (same validation, weaker
// durability: no fsync barrier between the data and the rename).
#if defined(__unix__) || defined(__APPLE__)
#define ATS_PERSIST_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ats::persist {

const char* CheckpointFaultName(CheckpointFault fault) {
  switch (fault) {
    case CheckpointFault::kNone: return "none";
    case CheckpointFault::kIoError: return "io_error";
    case CheckpointFault::kTruncated: return "truncated";
    case CheckpointFault::kBadMagic: return "bad_magic";
    case CheckpointFault::kBadVersion: return "bad_version";
    case CheckpointFault::kBadKind: return "bad_kind";
    case CheckpointFault::kCorruptBody: return "corrupt_body";
    case CheckpointFault::kBadPayload: return "bad_payload";
  }
  return "unknown";
}

std::string EncodeCheckpoint(SchemeKind kind, uint64_t epoch,
                             std::string_view payload) {
  ByteWriter w;
  w.WriteU32(kCheckpointMagic);
  w.WriteU32(kCheckpointVersion);
  w.WriteU32(static_cast<uint32_t>(kind));
  w.WriteU64(epoch);
  w.WriteU64(payload.size());
  std::string bytes = w.Take();
  bytes.append(payload);
  const uint32_t checksum = FrameChecksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

CheckpointFault DecodeCheckpoint(std::string_view bytes,
                                 CheckpointInfo* out) {
  // Normative rejection order (see the header comment): each layer is
  // checked only once every enclosing layer passed, so one defect maps
  // to one reason regardless of what the damaged bytes beyond it decode
  // to.
  if (bytes.size() < kCheckpointHeaderSize) return CheckpointFault::kTruncated;
  ByteReader r(bytes);
  const uint32_t magic = *r.ReadU32();
  if (magic != kCheckpointMagic) return CheckpointFault::kBadMagic;
  if (*r.ReadU32() != kCheckpointVersion) return CheckpointFault::kBadVersion;
  const uint32_t kind = *r.ReadU32();
  if (kind < kMinSchemeKind || kind > kMaxSchemeKind) {
    return CheckpointFault::kBadKind;
  }
  const uint64_t epoch = *r.ReadU64();
  const uint64_t payload_len = *r.ReadU64();
  // Overflow-safe: compare the payload+checksum budget against what is
  // actually present, never header + payload_len (which can wrap).
  const uint64_t available = bytes.size() - kCheckpointHeaderSize;
  if (payload_len > available ||
      available - payload_len < sizeof(uint32_t)) {
    return CheckpointFault::kTruncated;
  }
  if (available - payload_len > sizeof(uint32_t)) {
    return CheckpointFault::kCorruptBody;  // trailing junk
  }
  const std::string_view covered =
      bytes.substr(0, kCheckpointHeaderSize + payload_len);
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + covered.size(), sizeof(stored));
  if (stored != FrameChecksum(covered)) return CheckpointFault::kCorruptBody;
  if (out != nullptr) {
    out->kind = static_cast<SchemeKind>(kind);
    out->epoch = epoch;
    out->payload = bytes.substr(kCheckpointHeaderSize, payload_len);
  }
  return CheckpointFault::kNone;
}

// ---------------------------------------------------------------- writer

#if ATS_PERSIST_POSIX
namespace {

bool WriteAll(int fd, std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// fsync the directory holding `path`, so the rename that installed the
// checkpoint is itself durable. Best-effort by contract: some
// filesystems reject directory fsync; the data fsync already happened.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) return;
  ::fsync(dfd);
  ::close(dfd);
}

}  // namespace

CheckpointFault CheckpointWriter::Write(const std::string& path,
                                        SchemeKind kind, uint64_t epoch,
                                        std::string_view payload) {
  const std::string bytes = EncodeCheckpoint(kind, epoch, payload);
  const std::string tmp = path + ".tmp";
  // O_TRUNC deliberately reclaims a torn temp file left by a previous
  // crashed writer: the temp name is the ONLY place torn bytes can
  // exist, and no reader opens it.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return CheckpointFault::kIoError;
  if (!WriteAll(fd, bytes) || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return CheckpointFault::kIoError;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return CheckpointFault::kIoError;
  }
  // The atomic commit point: after this rename the path names the new
  // complete image; before it, the old one. Never a mixture.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return CheckpointFault::kIoError;
  }
  SyncParentDir(path);
  return CheckpointFault::kNone;
}
#else
CheckpointFault CheckpointWriter::Write(const std::string& path,
                                        SchemeKind kind, uint64_t epoch,
                                        std::string_view payload) {
  const std::string bytes = EncodeCheckpoint(kind, epoch, payload);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()))) {
      return CheckpointFault::kIoError;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return CheckpointFault::kIoError;
  }
  return CheckpointFault::kNone;
}
#endif

// ---------------------------------------------------------------- reader

void CheckpointReader::Release() {
#if ATS_PERSIST_POSIX
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
  buffer_.clear();
  payload_ = {};
}

namespace {

// Reads the whole file into `out`; false on any I/O failure.
bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

}  // namespace

CheckpointFault CheckpointReader::Open(const std::string& path,
                                       CheckpointReader* out,
                                       OpenMode mode) {
  CheckpointReader reader;
  CheckpointInfo info;

#if ATS_PERSIST_POSIX
  if (mode == OpenMode::kPreferMmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return CheckpointFault::kIoError;
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return CheckpointFault::kIoError;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      // mmap rejects zero-length maps; classify directly (an empty file
      // is the 0-byte prefix of every checkpoint).
      ::close(fd);
      return CheckpointFault::kTruncated;
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping outlives the descriptor
    if (map != MAP_FAILED) {
      const std::string_view bytes(static_cast<const char*>(map), size);
      const CheckpointFault fault = DecodeCheckpoint(bytes, &info);
      if (fault != CheckpointFault::kNone) {
        ::munmap(map, size);
        return fault;
      }
      reader.map_ = map;
      reader.map_len_ = size;
      reader.kind_ = info.kind;
      reader.epoch_ = info.epoch;
      reader.payload_ = info.payload;
      *out = std::move(reader);
      return CheckpointFault::kNone;
    }
    // mmap unavailable for this file: fall through to the buffered path.
  }
#endif

  if (!ReadWholeFile(path, &reader.buffer_)) {
    return CheckpointFault::kIoError;
  }
  const CheckpointFault fault = DecodeCheckpoint(reader.buffer_, &info);
  if (fault != CheckpointFault::kNone) return fault;
  reader.kind_ = info.kind;
  reader.epoch_ = info.epoch;
  // info.payload views reader.buffer_, which moves WITH the reader
  // (std::string's heap bytes keep their address through the move).
  reader.payload_ = info.payload;
  *out = std::move(reader);
  return CheckpointFault::kNone;
}

}  // namespace ats::persist

#include "common/serialization.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <type_traits>

#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/strings.h"

namespace hmmm {

namespace {

template <typename T>
void AppendRaw(std::string& buffer, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  buffer.append(bytes, sizeof(T));
}

}  // namespace

void BinaryWriter::WriteUint8(uint8_t v) { AppendRaw(buffer_, v); }
void BinaryWriter::WriteUint32(uint32_t v) { AppendRaw(buffer_, v); }
void BinaryWriter::WriteUint64(uint64_t v) { AppendRaw(buffer_, v); }
void BinaryWriter::WriteInt32(int32_t v) { AppendRaw(buffer_, v); }
void BinaryWriter::WriteInt64(int64_t v) { AppendRaw(buffer_, v); }
void BinaryWriter::WriteDouble(double v) { AppendRaw(buffer_, v); }

void BinaryWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  buffer_.append(s.data(), s.size());
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteVarint(v.size());
  for (double x : v) WriteDouble(x);
}

void BinaryWriter::WriteInt32Vector(const std::vector<int32_t>& v) {
  WriteVarint(v.size());
  for (int32_t x : v) WriteInt32(x);
}

void BinaryWriter::WriteMatrix(const Matrix& m) {
  WriteVarint(m.rows());
  WriteVarint(m.cols());
  const double* values = m.ptr();
  for (size_t i = 0; i < m.size(); ++i) WriteDouble(values[i]);
}

Status BinaryReader::Need(size_t n) const {
  // Compared against the bytes left, so a hostile length near 2^64
  // cannot wrap the sum and pass.
  if (n > data_.size() - pos_) {
    return Status::DataLoss(
        StrFormat("truncated input: need %zu bytes at offset %zu of %zu", n,
                  pos_, data_.size()));
  }
  return Status::OK();
}

namespace {

template <typename T>
StatusOr<T> ReadRaw(std::string_view data, size_t& pos) {
  T v;
  std::memcpy(&v, data.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace

Status BinaryReader::Skip(size_t n) {
  HMMM_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::OK();
}

StatusOr<uint8_t> BinaryReader::ReadUint8() {
  HMMM_RETURN_IF_ERROR(Need(sizeof(uint8_t)));
  return ReadRaw<uint8_t>(data_, pos_);
}
StatusOr<uint32_t> BinaryReader::ReadUint32() {
  HMMM_RETURN_IF_ERROR(Need(sizeof(uint32_t)));
  return ReadRaw<uint32_t>(data_, pos_);
}
StatusOr<uint64_t> BinaryReader::ReadUint64() {
  HMMM_RETURN_IF_ERROR(Need(sizeof(uint64_t)));
  return ReadRaw<uint64_t>(data_, pos_);
}
StatusOr<int32_t> BinaryReader::ReadInt32() {
  HMMM_RETURN_IF_ERROR(Need(sizeof(int32_t)));
  return ReadRaw<int32_t>(data_, pos_);
}
StatusOr<int64_t> BinaryReader::ReadInt64() {
  HMMM_RETURN_IF_ERROR(Need(sizeof(int64_t)));
  return ReadRaw<int64_t>(data_, pos_);
}
StatusOr<double> BinaryReader::ReadDouble() {
  HMMM_RETURN_IF_ERROR(Need(sizeof(double)));
  return ReadRaw<double>(data_, pos_);
}

StatusOr<uint64_t> BinaryReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    HMMM_RETURN_IF_ERROR(Need(1));
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift >= 64 || (shift == 63 && (byte & 0x7E))) {
      return Status::DataLoss("varint overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

StatusOr<std::string> BinaryReader::ReadString() {
  HMMM_ASSIGN_OR_RETURN(uint64_t size, ReadVarint());
  HMMM_RETURN_IF_ERROR(Need(size));
  std::string out(data_.substr(pos_, size));
  pos_ += size;
  return out;
}

StatusOr<std::vector<double>> BinaryReader::ReadDoubleVector() {
  HMMM_ASSIGN_OR_RETURN(uint64_t size, ReadVarint());
  // Guard before allocating: a crafted size must not overflow the byte
  // arithmetic or trigger a huge allocation.
  if (size > remaining() / sizeof(double)) {
    return Status::DataLoss("vector length exceeds remaining input");
  }
  std::vector<double> out(size);
  for (uint64_t i = 0; i < size; ++i) {
    HMMM_ASSIGN_OR_RETURN(out[i], ReadDouble());
  }
  return out;
}

StatusOr<std::vector<int32_t>> BinaryReader::ReadInt32Vector() {
  HMMM_ASSIGN_OR_RETURN(uint64_t size, ReadVarint());
  if (size > remaining() / sizeof(int32_t)) {
    return Status::DataLoss("vector length exceeds remaining input");
  }
  std::vector<int32_t> out(size);
  for (uint64_t i = 0; i < size; ++i) {
    HMMM_ASSIGN_OR_RETURN(out[i], ReadInt32());
  }
  return out;
}

StatusOr<Matrix> BinaryReader::ReadMatrix() {
  HMMM_ASSIGN_OR_RETURN(uint64_t rows, ReadVarint());
  HMMM_ASSIGN_OR_RETURN(uint64_t cols, ReadVarint());
  // Bound each dimension before multiplying so the product cannot wrap,
  // then require the payload to actually be present before allocating.
  constexpr uint64_t kMaxDim = 1ull << 24;
  if (rows > kMaxDim || cols > kMaxDim ||
      rows * cols > remaining() / sizeof(double)) {
    return Status::DataLoss("matrix dimensions exceed remaining input");
  }
  Matrix m(rows, cols);
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      HMMM_ASSIGN_OR_RETURN(m.at(r, c), ReadDouble());
    }
  }
  return m;
}

namespace {

Status WriteFileOnce(const std::string& path, std::string_view contents) {
  if (HMMM_FAULT_FIRED("storage.write")) {
    return Status::IOError(
        StrFormat("injected fault: storage.write on %s", path.c_str()));
  }
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError(StrFormat("cannot open %s for writing",
                                     tmp_path.c_str()));
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool write_ok = written == contents.size();
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError(StrFormat("short write to %s", tmp_path.c_str()));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError(StrFormat("rename to %s failed", path.c_str()));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToStringOnce(const std::string& path) {
  if (HMMM_FAULT_FIRED("storage.read")) {
    return Status::IOError(
        StrFormat("injected fault: storage.read on %s", path.c_str()));
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // A missing file is an answer, not an IO failure: callers like the
    // catalog journal treat it as "start empty", and the retry loop must
    // not burn its budget on it.
    if (errno == ENOENT) {
      return Status::NotFound(StrFormat("no such file: %s", path.c_str()));
    }
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  std::string out;
  char buf[1 << 16];
  while (true) {
    const size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError(StrFormat("read error on %s", path.c_str()));
  }
  return out;
}

}  // namespace

Status WriteFile(const std::string& path, std::string_view contents) {
  return WithIoRetry([&] { return WriteFileOnce(path, contents); });
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  return WithIoRetry([&] { return ReadFileToStringOnce(path); });
}

std::string WrapChecksummed(uint32_t magic, uint32_t version,
                            std::string_view payload) {
  BinaryWriter w;
  w.WriteUint32(magic);
  w.WriteUint32(version);
  w.WriteUint64(payload.size());
  w.WriteUint32(Crc32c(payload.data(), payload.size()));
  std::string out = std::move(w).TakeBuffer();
  out.append(payload.data(), payload.size());
  return out;
}

StatusOr<std::string> UnwrapChecksummed(uint32_t magic, std::string_view data,
                                        uint32_t* version_out) {
  BinaryReader r(data);
  HMMM_ASSIGN_OR_RETURN(uint32_t file_magic, r.ReadUint32());
  if (file_magic != magic) {
    return Status::DataLoss(StrFormat("bad magic 0x%08x (want 0x%08x)",
                                      file_magic, magic));
  }
  HMMM_ASSIGN_OR_RETURN(uint32_t version, r.ReadUint32());
  HMMM_ASSIGN_OR_RETURN(uint64_t payload_size, r.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(uint32_t expected_crc, r.ReadUint32());
  if (r.remaining() != payload_size) {
    return Status::DataLoss(
        StrFormat("payload size mismatch: header says %llu, have %zu",
                  static_cast<unsigned long long>(payload_size),
                  r.remaining()));
  }
  std::string payload(data.substr(r.position(), payload_size));
  const uint32_t actual_crc = Crc32c(payload.data(), payload.size());
  if (actual_crc != expected_crc) {
    return Status::DataLoss(StrFormat("checksum mismatch: 0x%08x vs 0x%08x",
                                      actual_crc, expected_crc));
  }
  if (version_out != nullptr) *version_out = version;
  return payload;
}

}  // namespace hmmm

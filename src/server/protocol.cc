#include "server/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "durability/serde.h"

namespace erbium {
namespace server {

namespace {

using durability::ByteReader;
using durability::Crc32;
using durability::PutString;
using durability::PutU8;
using durability::PutU32;
using durability::PutU64;
using durability::PutValues;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string EncodeFrame(FrameType type, const std::string& body) {
  std::string payload;
  payload.reserve(1 + body.size());
  PutU8(static_cast<uint8_t>(type), &payload);
  payload += body;
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload.data(), payload.size()), &frame);
  frame += payload;
  return frame;
}

std::string EncodeHelloBody(const std::string& client_name) {
  std::string body;
  PutU32(kProtocolVersion, &body);
  PutString(client_name, &body);
  return body;
}

std::string EncodeHelloOkBody(uint64_t session_id, const std::string& banner) {
  std::string body;
  PutU32(kProtocolVersion, &body);
  PutU64(session_id, &body);
  PutString(banner, &body);
  return body;
}

std::string EncodeStatementBody(const std::string& statement) {
  std::string body;
  PutString(statement, &body);
  return body;
}

std::string EncodeResultBody(const api::StatementOutcome& outcome) {
  std::string body;
  PutU8(static_cast<uint8_t>(outcome.shape), &body);
  PutU32(static_cast<uint32_t>(outcome.shard), &body);
  PutString(outcome.message, &body);
  PutU32(static_cast<uint32_t>(outcome.result.columns.size()), &body);
  for (const std::string& column : outcome.result.columns) {
    PutString(column, &body);
  }
  PutU32(static_cast<uint32_t>(outcome.result.rows.size()), &body);
  for (const Row& row : outcome.result.rows) {
    PutValues(row, &body);
  }
  return body;
}

std::string EncodeErrorBody(const Status& status) {
  std::string body;
  PutU32(static_cast<uint32_t>(StatusCodeToWire(status.code())), &body);
  PutString(status.message(), &body);
  return body;
}

std::string EncodeStatementSeqBody(uint64_t seq, const std::string& statement) {
  std::string body;
  PutU64(seq, &body);
  PutString(statement, &body);
  return body;
}

std::string EncodeResultSeqBody(uint64_t seq,
                                const api::StatementOutcome& outcome) {
  std::string body;
  PutU64(seq, &body);
  body += EncodeResultBody(outcome);
  return body;
}

std::string EncodeErrorSeqBody(uint64_t seq, const Status& status) {
  std::string body;
  PutU64(seq, &body);
  body += EncodeErrorBody(status);
  return body;
}

Result<HelloBody> DecodeHelloBody(const std::string& body) {
  ByteReader reader(body.data(), body.size());
  HelloBody hello;
  ERBIUM_ASSIGN_OR_RETURN(hello.version, reader.U32());
  ERBIUM_ASSIGN_OR_RETURN(hello.client_name, reader.String());
  return hello;
}

Result<HelloOkBody> DecodeHelloOkBody(const std::string& body) {
  ByteReader reader(body.data(), body.size());
  HelloOkBody hello;
  ERBIUM_ASSIGN_OR_RETURN(hello.version, reader.U32());
  ERBIUM_ASSIGN_OR_RETURN(hello.session_id, reader.U64());
  ERBIUM_ASSIGN_OR_RETURN(hello.banner, reader.String());
  return hello;
}

Result<std::string> DecodeStatementBody(const std::string& body) {
  ByteReader reader(body.data(), body.size());
  return reader.String();
}

std::string EncodeServerTimingFooter(const ServerTiming& timing) {
  std::string footer;
  PutU8(kServerTimingMarker, &footer);
  PutU8(2, &footer);
  PutString("queue_wait_us", &footer);
  PutU64(timing.queue_wait_us, &footer);
  PutString("execute_us", &footer);
  PutU64(timing.execute_us, &footer);
  return footer;
}

Result<api::StatementOutcome> DecodeResultBody(const std::string& body) {
  return DecodeResultBody(body, nullptr);
}

Result<api::StatementOutcome> DecodeResultBody(const std::string& body,
                                               ServerTiming* timing) {
  ByteReader reader(body.data(), body.size());
  api::StatementOutcome outcome;
  ERBIUM_ASSIGN_OR_RETURN(uint8_t shape, reader.U8());
  if (shape > static_cast<uint8_t>(api::OutputShape::kLines)) {
    return Status::IOError("result frame carries unknown output shape " +
                           std::to_string(shape));
  }
  outcome.shape = static_cast<api::OutputShape>(shape);
  ERBIUM_ASSIGN_OR_RETURN(uint32_t shard, reader.U32());
  outcome.shard = static_cast<int32_t>(shard);
  ERBIUM_ASSIGN_OR_RETURN(outcome.message, reader.String());
  ERBIUM_ASSIGN_OR_RETURN(uint32_t n_columns, reader.U32());
  // Trust counts only as far as the bytes present (a column name costs
  // at least its 4-byte length prefix).
  if (n_columns > reader.remaining() / 4) {
    return Status::IOError("result frame column count exceeds frame size");
  }
  outcome.result.columns.reserve(n_columns);
  for (uint32_t i = 0; i < n_columns; ++i) {
    ERBIUM_ASSIGN_OR_RETURN(std::string column, reader.String());
    outcome.result.columns.push_back(std::move(column));
  }
  ERBIUM_ASSIGN_OR_RETURN(uint32_t n_rows, reader.U32());
  if (n_rows > reader.remaining() / 4) {
    return Status::IOError("result frame row count exceeds frame size");
  }
  outcome.result.rows.reserve(n_rows);
  for (uint32_t i = 0; i < n_rows; ++i) {
    ERBIUM_ASSIGN_OR_RETURN(Row row, reader.ReadValues());
    outcome.result.rows.push_back(std::move(row));
  }
  if (!reader.AtEnd() && timing != nullptr) {
    // Optional server-timing footer. Fields are name-tagged so the
    // server may append new ones without a version bump; unknown names
    // are skipped. A malformed footer is a framing error like any other
    // truncated body.
    ERBIUM_ASSIGN_OR_RETURN(uint8_t marker, reader.U8());
    if (marker != kServerTimingMarker) {
      return Status::IOError("result frame has trailing bytes");
    }
    ERBIUM_ASSIGN_OR_RETURN(uint8_t n_fields, reader.U8());
    for (uint8_t i = 0; i < n_fields; ++i) {
      ERBIUM_ASSIGN_OR_RETURN(std::string name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(uint64_t value, reader.U64());
      if (name == "queue_wait_us") {
        timing->queue_wait_us = value;
      } else if (name == "execute_us") {
        timing->execute_us = value;
      }
    }
    timing->present = true;
  }
  if (!reader.AtEnd()) {
    return Status::IOError("result frame has trailing bytes");
  }
  return outcome;
}

Result<StatementSeqBody> DecodeStatementSeqBody(const std::string& body) {
  ByteReader reader(body.data(), body.size());
  StatementSeqBody out;
  ERBIUM_ASSIGN_OR_RETURN(out.seq, reader.U64());
  ERBIUM_ASSIGN_OR_RETURN(out.statement, reader.String());
  return out;
}

Result<uint64_t> DecodeSeqPrefix(const std::string& body, std::string* rest) {
  ByteReader reader(body.data(), body.size());
  ERBIUM_ASSIGN_OR_RETURN(uint64_t seq, reader.U64());
  *rest = body.substr(8);
  return seq;
}

Status DecodeErrorBody(const std::string& body, Status* out) {
  ByteReader reader(body.data(), body.size());
  ERBIUM_ASSIGN_OR_RETURN(uint32_t wire_code, reader.U32());
  ERBIUM_ASSIGN_OR_RETURN(std::string message, reader.String());
  *out = Status(StatusCodeFromWire(static_cast<int32_t>(wire_code)),
                std::move(message));
  return Status::OK();
}

void FrameDecoder::Feed(const char* data, size_t size) {
  // Compact the consumed prefix before growing — keeps the buffer bounded
  // by (one partial frame + one read) instead of the connection's history.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, size);
}

Result<bool> FrameDecoder::Next(Frame* out) {
  if (buffered() < 8) return false;
  ByteReader head(buf_.data() + pos_, 8);
  uint32_t payload_len = head.U32().value();
  uint32_t expected_crc = head.U32().value();
  if (payload_len == 0) {
    return Status::IOError("frame has empty payload");
  }
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::IOError("frame payload of " + std::to_string(payload_len) +
                           " bytes exceeds the " +
                           std::to_string(kMaxFramePayloadBytes) +
                           "-byte limit");
  }
  if (buffered() < 8 + static_cast<size_t>(payload_len)) return false;
  const char* payload = buf_.data() + pos_ + 8;
  if (Crc32(payload, payload_len) != expected_crc) {
    return Status::IOError("frame CRC mismatch");
  }
  out->type = static_cast<FrameType>(static_cast<uint8_t>(payload[0]));
  out->body.assign(payload + 1, payload_len - 1);
  pos_ += 8 + payload_len;
  return true;
}

FrameSocket::~FrameSocket() {
  if (fd_ >= 0) ::close(fd_);
}

Status FrameSocket::Send(FrameType type, const std::string& body) {
  std::string frame = EncodeFrame(type, body);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

/// Reads exactly `size` bytes, honoring an absolute deadline (ms since
/// the steady clock epoch; negative = no deadline). `any_read` reports
/// whether at least one byte arrived before an EOF/timeout, so callers
/// can tell an orderly close (EOF at a frame boundary) from a torn frame.
Status ReadExact(int fd, char* out, size_t size, int64_t deadline_ms,
                 bool* any_read) {
  size_t have = 0;
  while (have < size) {
    if (deadline_ms >= 0) {
      int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) {
        return Status::DeadlineExceeded("read timed out");
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("poll failed: ") +
                               std::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("read timed out");
      }
    }
    ssize_t n = ::recv(fd, out + have, size - have, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::Unavailable("peer closed the connection");
    }
    have += static_cast<size_t>(n);
    *any_read = true;
  }
  return Status::OK();
}

}  // namespace

Result<Frame> FrameSocket::Recv(int timeout_ms) {
  int64_t deadline_ms = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  char header[8];
  bool any_read = false;
  Status st = ReadExact(fd_, header, sizeof(header), deadline_ms, &any_read);
  if (!st.ok()) {
    // EOF or timeout cleanly between frames keeps its taxonomy; the same
    // condition mid-frame means the peer tore a frame.
    if (any_read && st.code() != StatusCode::kIOError) {
      return Status::IOError("connection dropped mid-frame: " + st.message());
    }
    return st;
  }
  ByteReader head(header, sizeof(header));
  uint32_t payload_len = head.U32().value();
  uint32_t expected_crc = head.U32().value();
  if (payload_len == 0) {
    return Status::IOError("frame has empty payload");
  }
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::IOError("frame payload of " + std::to_string(payload_len) +
                           " bytes exceeds the " +
                           std::to_string(kMaxFramePayloadBytes) +
                           "-byte limit");
  }
  std::string payload(payload_len, '\0');
  st = ReadExact(fd_, payload.data(), payload.size(), deadline_ms, &any_read);
  if (!st.ok()) {
    if (st.code() != StatusCode::kIOError) {
      return Status::IOError("connection dropped mid-frame: " + st.message());
    }
    return st;
  }
  if (Crc32(payload.data(), payload.size()) != expected_crc) {
    return Status::IOError("frame CRC mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<uint8_t>(payload[0]));
  frame.body = payload.substr(1);
  return frame;
}

void FrameSocket::ShutdownRead() { ::shutdown(fd_, SHUT_RD); }

}  // namespace server
}  // namespace erbium

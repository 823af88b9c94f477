#include "host/live_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "host/tcp.h"
#include "host/ticker.h"

namespace ccf::host {

LiveClient::LiveClient(std::string client_id,
                       crypto::PublicKeyBytes service_identity,
                       const crypto::KeyPair* key,
                       std::optional<crypto::Certificate> cert)
    : ClientCore(
          service_identity, key, std::move(cert), &drbg_,
          [this](Bytes wire) {
            AppendFrame(&outbuf_, wire);
            TryWrite();
          },
          [this](const std::function<bool()>& done, uint64_t timeout_ms) {
            return PollUntil(done, timeout_ms);
          }),
      drbg_("ccf-live-client-" + client_id, 0) {}

LiveClient::~LiveClient() { Close(); }

void LiveClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  outbuf_.clear();
  out_off_ = 0;
  EndSession(Status::Unavailable("connection closed"));
}

Status LiveClient::Connect(const std::string& host, uint16_t port,
                           uint64_t timeout_ms) {
  Close();
  ASSIGN_OR_RETURN(fd_, DialNonBlocking(host, port));
  // The hello waits in outbuf_ until the non-blocking connect resolves.
  StartSession();
  Status handshake = PollUntil([this] { return established(); }, timeout_ms);
  if (handshake.ok()) return handshake;
  Close();
  return Status::Unavailable("connect: " + handshake.message());
}

Status LiveClient::PollUntil(const std::function<bool()>& done,
                             uint64_t timeout_ms) {
  const uint64_t deadline = SteadyNowMs() + timeout_ms;
  while (!done()) {
    uint64_t now = SteadyNowMs();
    if (now >= deadline) return Status::Unavailable("timed out");
    if (!PollOnce(static_cast<int>(std::min<uint64_t>(deadline - now, 50))) &&
        !done()) {
      return Status::Unavailable("connection closed");
    }
  }
  return Status::Ok();
}

bool LiveClient::TryWrite() {
  while (out_off_ < outbuf_.size()) {
    // MSG_NOSIGNAL: a node that went away is an EPIPE here, not a signal
    // that kills the process.
    ssize_t n = send(fd_, outbuf_.data() + out_off_,
                     outbuf_.size() - out_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    out_off_ += static_cast<size_t>(n);
  }
  outbuf_.clear();
  out_off_ = 0;
  return true;
}

bool LiveClient::PollOnce(int timeout_ms) {
  if (fd_ < 0) return false;
  if (PumpSocket(timeout_ms)) return true;
  Close();  // fails all pending callbacks
  return false;
}

bool LiveClient::PumpSocket(int timeout_ms) {
  short want = POLLIN;
  if (out_off_ < outbuf_.size()) want |= POLLOUT;
  pollfd pfd{fd_, want, 0};
  int n = poll(&pfd, 1, timeout_ms);
  if (n < 0) return errno == EINTR;
  if (n == 0) return true;
  if ((pfd.revents & POLLOUT) != 0 && !TryWrite()) return false;
  if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return true;
  uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t r = read(fd_, buf, sizeof(buf));
    if (r > 0) {
      inbuf_.insert(inbuf_.end(), buf, buf + r);
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF or error
  }
  std::vector<Bytes> frames;
  if (!ExtractFrames(&inbuf_, &frames)) return false;
  for (const Bytes& f : frames) {
    if (!OnWire(f)) return false;  // the node announced connection: close
  }
  return true;
}

}  // namespace ccf::host

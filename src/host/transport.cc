#include "host/transport.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "host/ticker.h"

namespace ccf::host {

namespace {

// Node links introduce themselves with one hello frame: magic + node id.
constexpr uint8_t kHelloMagic[4] = {'C', 'C', 'F', 'H'};

Bytes MakeHello(const std::string& node_id) {
  Bytes body(kHelloMagic, kHelloMagic + 4);
  Append(&body, ToBytes(node_id));
  return body;
}

bool ParseHello(ByteSpan frame, std::string* id) {
  if (frame.size() < 4 || std::memcmp(frame.data(), kHelloMagic, 4) != 0) {
    return false;
  }
  id->assign(frame.begin() + 4, frame.end());
  return !id->empty();
}

}  // namespace

LiveTransport::LiveTransport(TransportConfig cfg, DeliverFn deliver,
                             DisconnectFn on_disconnect)
    : cfg_(std::move(cfg)),
      deliver_(std::move(deliver)),
      on_disconnect_(std::move(on_disconnect)) {
  for (const auto& [id, addr] : cfg_.peers) {
    PeerState p;
    p.addr = addr;
    peers_.emplace(id, std::move(p));
  }
}

LiveTransport::~LiveTransport() { Stop(); }

Status LiveTransport::Start() {
  RETURN_IF_ERROR(rpc_listener_.Listen(cfg_.bind_host, cfg_.rpc_port));
  RETURN_IF_ERROR(node_listener_.Listen(cfg_.bind_host, cfg_.node_port));
  RETURN_IF_ERROR(epoll_.Add(rpc_listener_.fd(), EPOLLIN,
                             static_cast<uint64_t>(rpc_listener_.fd())));
  RETURN_IF_ERROR(epoll_.Add(node_listener_.fd(), EPOLLIN,
                             static_cast<uint64_t>(node_listener_.fd())));
  RETURN_IF_ERROR(
      epoll_.Add(waker_.fd(), EPOLLIN, static_cast<uint64_t>(waker_.fd())));
  stop_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

void LiveTransport::Stop() {
  if (!started_.exchange(false)) return;
  stop_.store(true, std::memory_order_release);
  waker_.Wake();
  if (io_thread_.joinable()) io_thread_.join();
  rpc_listener_.Close();
  node_listener_.Close();
}

void LiveTransport::AddPeer(const std::string& id, const std::string& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  cmds_.push_back(Command{Command::kAddPeer, id, ToBytes(addr)});
  waker_.Wake();
}

void LiveTransport::NetSend(const std::string& to, Bytes payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cmds_.push_back(Command{Command::kSend, to, std::move(payload)});
  }
  waker_.Wake();
}

void LiveTransport::CloseSession(const std::string& peer) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cmds_.push_back(Command{Command::kClose, peer, {}});
  }
  waker_.Wake();
}

// ------------------------------------------------------------- IO thread

void LiveTransport::IoLoop() {
  std::vector<Epoll::Event> events;
  while (!stop_.load(std::memory_order_acquire)) {
    DialDuePeers(SteadyNowMs());
    epoll_.Wait(&events, WaitTimeoutMs());
    for (const Epoll::Event& ev : events) {
      int fd = static_cast<int>(ev.tag);
      if (fd == waker_.fd()) {
        waker_.Drain();
        continue;
      }
      if (fd == rpc_listener_.fd()) {
        AcceptAll(&rpc_listener_, /*node_link=*/false);
        continue;
      }
      if (fd == node_listener_.fd()) {
        AcceptAll(&node_listener_, /*node_link=*/true);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* c = it->second.get();
      if (c->dead) continue;
      if (c->connecting && (ev.events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
        int err = SoError(fd);
        if (err != 0) {
          MarkDead(c);
          continue;
        }
        c->connecting = false;
        SendHello(c);
        UpdateInterest(c);
      }
      if (ev.events & EPOLLIN) HandleReadable(c);
      if (!c->dead && (ev.events & EPOLLOUT) && !c->connecting) {
        HandleWritable(c);
      }
      if (!c->dead && (ev.events & EPOLLERR)) MarkDead(c);
      if (!c->dead && (ev.events & EPOLLHUP) && !(ev.events & EPOLLIN)) {
        MarkDead(c);
      }
    }
    ProcessCommands();
    RetryParked();
    // Session-closed notices that bounced off a full ring, oldest first.
    while (!pending_disconnects_.empty() &&
           on_disconnect_(pending_disconnects_.front())) {
      pending_disconnects_.pop_front();
    }
    ReapDead();
  }
  for (auto& [fd, c] : conns_) {
    epoll_.Del(fd);
    close(fd);
  }
  conns_.clear();
  label_to_fd_.clear();
  live_conns_.store(0, std::memory_order_relaxed);
}

int LiveTransport::WaitTimeoutMs() const {
  if (parked_conns_ > 0 || !pending_disconnects_.empty()) return 1;
  uint64_t now = SteadyNowMs();
  int timeout = 50;
  for (const auto& [id, p] : peers_) {
    if (p.fd >= 0 || p.addr.empty()) continue;
    uint64_t due = p.next_dial_ms > now ? p.next_dial_ms - now : 0;
    timeout = std::min<int>(timeout, static_cast<int>(due));
  }
  return std::max(timeout, 1);
}

void LiveTransport::ProcessCommands() {
  std::vector<Command> cmds;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cmds.swap(cmds_);
  }
  for (Command& cmd : cmds) {
    switch (cmd.kind) {
      case Command::kSend:
        RouteSend(cmd.to, std::move(cmd.payload));
        break;
      case Command::kClose: {
        auto it = label_to_fd_.find(cmd.to);
        if (it == label_to_fd_.end()) break;
        auto cit = conns_.find(it->second);
        if (cit == conns_.end() || cit->second->dead) break;
        Conn* c = cit->second.get();
        c->closing = true;
        if (c->outq.empty()) {
          MarkDead(c);
        } else {
          UpdateInterest(c);
        }
        break;
      }
      case Command::kAddPeer: {
        PeerState& p = peers_[cmd.to];
        p.addr = ToString(cmd.payload);
        p.next_dial_ms = 0;
        p.backoff_ms = 0;
        break;
      }
    }
  }
}

void LiveTransport::RouteSend(const std::string& to, Bytes payload) {
  auto pit = peers_.find(to);
  if (pit != peers_.end()) {
    PeerState& p = pit->second;
    if (p.fd >= 0) {
      auto cit = conns_.find(p.fd);
      if (cit != conns_.end() && !cit->second->dead &&
          cit->second->hello_done) {
        EnqueueFrame(cit->second.get(), payload);
        return;
      }
    }
    // Link down or not yet verified: queue (bounded) for the reconnect.
    if (p.queued.size() >= cfg_.max_peer_queue) p.queued.pop_front();
    p.queued.push_back(std::move(payload));
    return;
  }
  auto it = label_to_fd_.find(to);
  if (it == label_to_fd_.end()) {
    LOG_DEBUG << cfg_.node_id << " host: no route to " << to << ", dropping";
    return;
  }
  auto cit = conns_.find(it->second);
  if (cit == conns_.end() || cit->second->dead) return;
  EnqueueFrame(cit->second.get(), payload);
}

void LiveTransport::AcceptAll(TcpListener* listener, bool node_link) {
  for (;;) {
    int fd = listener->Accept();
    if (fd < 0) return;
    Conn* c = AddConn(fd, node_link, /*dialed=*/false);
    if (c == nullptr) continue;
    if (node_link) {
      // Acceptor announces itself immediately; the remote's hello must be
      // its first frame.
      SendHello(c);
    } else {
      c->label = "tcp:" + std::to_string(next_client_label_++);
      label_to_fd_[c->label] = fd;
    }
    UpdateInterest(c);
  }
}

LiveTransport::Conn* LiveTransport::AddConn(int fd, bool node_link,
                                            bool dialed) {
  auto c = std::make_unique<Conn>();
  c->fd = fd;
  c->node_link = node_link;
  c->dialed = dialed;
  c->connecting = dialed;
  Conn* raw = c.get();
  if (!epoll_.Add(fd, EPOLLIN | (dialed ? EPOLLOUT : 0u),
                  static_cast<uint64_t>(fd))
           .ok()) {
    close(fd);
    return nullptr;
  }
  conns_.emplace(fd, std::move(c));
  live_conns_.store(conns_.size(), std::memory_order_relaxed);
  return raw;
}

void LiveTransport::HandleReadable(Conn* c) {
  uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t n = read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      c->inbuf.insert(c->inbuf.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    MarkDead(c);  // EOF or hard error
    return;
  }
  std::vector<Bytes> frames;
  if (!ExtractFrames(&c->inbuf, &frames)) {
    LOG_WARN << cfg_.node_id << " host: oversized frame from "
             << (c->label.empty() ? "<unlabelled>" : c->label)
             << ", closing connection";
    MarkDead(c);
    return;
  }
  for (Bytes& f : frames) {
    if (c->dead) return;
    HandleFrame(c, std::move(f));
  }
}

void LiveTransport::HandleFrame(Conn* c, Bytes frame) {
  if (c->node_link && !c->hello_done) {
    std::string id;
    if (!ParseHello(frame, &id)) {
      MarkDead(c);
      return;
    }
    if (c->dialed && id != c->label) {
      LOG_WARN << cfg_.node_id << " host: dialled " << c->label
               << " but peer announced " << id << ", closing";
      MarkDead(c);
      return;
    }
    c->label = id;
    c->hello_done = true;
    label_to_fd_[id] = c->fd;
    auto pit = peers_.find(id);
    if (pit != peers_.end()) {
      PeerState& p = pit->second;
      if (p.fd < 0 || p.fd == c->fd || conns_.find(p.fd) == conns_.end()) {
        p.fd = c->fd;
      }
      p.backoff_ms = 0;
      // The verified link drains anything queued while it was down.
      if (p.fd == c->fd) {
        while (!p.queued.empty()) {
          EnqueueFrame(c, p.queued.front());
          p.queued.pop_front();
        }
      }
    }
    return;
  }
  if (!c->parked.empty()) {
    // Order within a connection is sacred: behind a parked frame,
    // everything parks.
    c->parked.push_back(std::move(frame));
    parked_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  DeliverOrPark(c, std::move(frame));
}

bool LiveTransport::DeliverOrPark(Conn* c, Bytes frame) {
  if (deliver_(c->label, frame)) return true;
  // Ring full: park the connection — stop reading, keep the frame, retry
  // until the enclave drains (tee.ring_full counts these on the boundary).
  bool first = c->parked.empty();
  c->parked.push_back(std::move(frame));
  parked_total_.fetch_add(1, std::memory_order_relaxed);
  if (first) {
    ++parked_conns_;
    UpdateInterest(c);
  }
  return false;
}

void LiveTransport::RetryParked() {
  if (parked_conns_ == 0) return;
  for (auto& [fd, c] : conns_) {
    if (c->dead || c->parked.empty()) continue;
    while (!c->parked.empty() && deliver_(c->label, c->parked.front())) {
      c->parked.pop_front();
    }
    if (c->parked.empty()) {
      --parked_conns_;
      UpdateInterest(c.get());
    }
  }
}

void LiveTransport::SendHello(Conn* c) { EnqueueFrame(c, MakeHello(cfg_.node_id)); }

void LiveTransport::EnqueueFrame(Conn* c, ByteSpan payload) {
  if (c->dead || c->closing) return;
  Bytes framed;
  framed.reserve(payload.size() + 4);
  AppendFrame(&framed, payload);
  c->outq.push_back(std::move(framed));
  UpdateInterest(c);
  // Try to write immediately: common case, saves one epoll round trip.
  if (!c->connecting) HandleWritable(c);
}

void LiveTransport::HandleWritable(Conn* c) {
  while (!c->outq.empty()) {
    const Bytes& front = c->outq.front();
    // MSG_NOSIGNAL: a peer that left mid-response is an EPIPE here, not a
    // signal that kills the process.
    ssize_t n = send(c->fd, front.data() + c->out_off,
                     front.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      MarkDead(c);
      return;
    }
    c->out_off += static_cast<size_t>(n);
    if (c->out_off < front.size()) return;  // kernel buffer full
    c->out_off = 0;
    c->outq.pop_front();
  }
  if (c->closing) {
    MarkDead(c);
    return;
  }
  UpdateInterest(c);
}

void LiveTransport::UpdateInterest(Conn* c) {
  if (c->dead) return;
  uint32_t events = 0;
  if (c->parked.empty() && !c->closing) events |= EPOLLIN;
  if (!c->outq.empty() || c->connecting) events |= EPOLLOUT;
  epoll_.Mod(c->fd, events, static_cast<uint64_t>(c->fd));
}

void LiveTransport::MarkDead(Conn* c) {
  if (c->dead) return;
  c->dead = true;
  if (!c->parked.empty()) --parked_conns_;
  dead_fds_.push_back(c->fd);
}

void LiveTransport::ReapDead() {
  if (dead_fds_.empty()) return;
  uint64_t now = SteadyNowMs();
  for (int fd : dead_fds_) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* c = it->second.get();
    if (!c->label.empty()) {
      auto lit = label_to_fd_.find(c->label);
      if (lit != label_to_fd_.end() && lit->second == fd) {
        label_to_fd_.erase(lit);
      }
      if (c->node_link) {
        auto pit = peers_.find(c->label);
        if (pit != peers_.end() && pit->second.fd == fd) {
          pit->second.fd = -1;
          if (!pit->second.addr.empty()) ScheduleRedial(&pit->second, now);
        }
      } else {
        // The enclave holds session state for this label; tell it the
        // connection is gone (retried if the ring is momentarily full).
        pending_disconnects_.push_back(c->label);
      }
    }
    epoll_.Del(fd);
    close(fd);
    conns_.erase(it);
  }
  dead_fds_.clear();
  live_conns_.store(conns_.size(), std::memory_order_relaxed);
}

void LiveTransport::ScheduleRedial(PeerState* p, uint64_t now_ms) {
  p->backoff_ms = p->backoff_ms == 0
                      ? cfg_.backoff_min_ms
                      : std::min(p->backoff_ms * 2, cfg_.backoff_max_ms);
  p->next_dial_ms = now_ms + p->backoff_ms;
}

void LiveTransport::DialDuePeers(uint64_t now_ms) {
  for (auto& [id, p] : peers_) {
    if (p.fd >= 0 || p.addr.empty() || p.next_dial_ms > now_ms) continue;
    size_t colon = p.addr.rfind(':');
    if (colon == std::string::npos) {
      LOG_WARN << cfg_.node_id << " host: bad peer address " << p.addr;
      p.addr.clear();
      continue;
    }
    std::string host = p.addr.substr(0, colon);
    uint16_t port =
        static_cast<uint16_t>(std::strtoul(p.addr.c_str() + colon + 1,
                                           nullptr, 10));
    auto fd = DialNonBlocking(host, port);
    if (!fd.ok()) {
      ScheduleRedial(&p, now_ms);
      continue;
    }
    Conn* c = AddConn(*fd, /*node_link=*/true, /*dialed=*/true);
    if (c == nullptr) {
      ScheduleRedial(&p, now_ms);
      continue;
    }
    c->label = id;  // expected identity, verified against the peer's hello
    p.fd = *fd;
  }
}

}  // namespace ccf::host

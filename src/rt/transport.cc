#include "rt/transport.h"

#include <cstdio>

#include "rt/comm_world.h"
#include "rt/tcp_transport.h"
#include "rt/worker_protocol.h"
#include "util/string_util.h"

namespace grape {

std::string CommStats::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "messages=%llu bytes=%s",
                static_cast<unsigned long long>(messages),
                HumanBytes(bytes).c_str());
  return buf;
}

MailboxTransport::MailboxTransport(uint32_t size) : size_(size) {
  mailboxes_.reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void MailboxTransport::Deliver(RtMessage msg) {
  Mailbox& box = *mailboxes_[msg.to];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_one();
}

std::optional<RtMessage> MailboxTransport::TryRecv(uint32_t rank) {
  Mailbox& box = *mailboxes_[rank];
  std::lock_guard<std::mutex> lock(box.mu);
  if (box.queue.empty()) return std::nullopt;
  RtMessage msg = std::move(box.queue.front());
  box.queue.pop_front();
  return msg;
}

std::optional<RtMessage> MailboxTransport::TryRecv(uint32_t rank,
                                                   uint32_t tag) {
  Mailbox& box = *mailboxes_[rank];
  std::lock_guard<std::mutex> lock(box.mu);
  for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
    if (it->tag == tag) {
      RtMessage msg = std::move(*it);
      box.queue.erase(it);
      return msg;
    }
  }
  return std::nullopt;
}

Result<RtMessage> MailboxTransport::Recv(uint32_t rank,
                                         RecvDeadline deadline) {
  Mailbox& box = *mailboxes_[rank];
  std::unique_lock<std::mutex> lock(box.mu);
  auto ready = [&box, this] {
    return !box.queue.empty() || box.woken || closed();
  };
  if (deadline == kNoDeadline) {
    box.cv.wait(lock, ready);
  } else {
    box.cv.wait_until(lock, deadline, ready);
  }
  if (!box.queue.empty()) {
    RtMessage msg = std::move(box.queue.front());
    box.queue.pop_front();
    return msg;
  }
  if (closed()) {
    return Status::Cancelled("transport closed while waiting in Recv");
  }
  if (box.woken) {
    box.woken = false;
    return Status::Cancelled("Recv woken");
  }
  return Status::Unavailable("no message before the Recv deadline");
}

void MailboxTransport::Wake(uint32_t rank) {
  Mailbox& box = *mailboxes_[rank];
  std::lock_guard<std::mutex> lock(box.mu);
  box.woken = true;
  box.cv.notify_all();
}

std::vector<RtMessage> MailboxTransport::DrainAll(uint32_t rank) {
  Mailbox& box = *mailboxes_[rank];
  std::lock_guard<std::mutex> lock(box.mu);
  std::vector<RtMessage> out(std::make_move_iterator(box.queue.begin()),
                             std::make_move_iterator(box.queue.end()));
  box.queue.clear();
  return out;
}

size_t MailboxTransport::PendingCount(uint32_t rank) const {
  const Mailbox& box = *mailboxes_[rank];
  std::lock_guard<std::mutex> lock(box.mu);
  return box.queue.size();
}

void MailboxTransport::CountSendTagged(uint32_t tag, size_t payload_bytes) {
  if (!IsWorkerTag(tag) || IsStatsCountedWorkerTag(tag)) {
    CountSend(payload_bytes);
  }
}

CommStats MailboxTransport::stats() const {
  CommStats s;
  s.messages = total_messages_.load(std::memory_order_relaxed);
  s.bytes = total_bytes_.load(std::memory_order_relaxed);
  return s;
}

void MailboxTransport::ResetStats() {
  total_messages_.store(0);
  total_bytes_.store(0);
}

void MailboxTransport::ResetForRecovery() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    for (RtMessage& msg : box->queue) {
      pool_.Release(std::move(msg.payload));
    }
    box->queue.clear();
    box->woken = false;
  }
  closed_.store(false, std::memory_order_release);
}

bool MailboxTransport::MarkClosed() {
  bool was = closed_.exchange(true, std::memory_order_acq_rel);
  if (was) return false;
  for (auto& box : mailboxes_) {
    // Take the lock so a Recv between its predicate check and wait cannot
    // miss the wakeup.
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  return true;
}

Result<std::unique_ptr<Transport>> MakeTransport(const std::string& name,
                                                 uint32_t size) {
  if (name == "inproc") {
    return std::unique_ptr<Transport>(std::make_unique<CommWorld>(size));
  }
  if (name == "tcp") {
    auto t = TcpTransport::Create(size);
    GRAPE_RETURN_NOT_OK(t.status());
    return std::unique_ptr<Transport>(std::move(t).value());
  }
  return Status::InvalidArgument("unknown transport '" + name +
                                 "' (expected inproc|tcp)");
}

const std::vector<std::string>& TransportNames() {
  static const std::vector<std::string> kNames = {"inproc", "tcp"};
  return kNames;
}

}  // namespace grape

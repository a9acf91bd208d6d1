#ifndef GRAPE_TESTS_PROBING_TRANSPORT_H_
#define GRAPE_TESTS_PROBING_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rt/remote_worker.h"
#include "rt/transport.h"
#include "rt/worker_protocol.h"

namespace grape {
namespace testing {

/// Forwards everything to an inner transport, counts the kTagWkLoad and
/// kTagWkDeposit frames the coordinator sends (and keeps each deposit's
/// token), and on demand turns one rank's next kTagWkMutateAck, or the next
/// few kTagWkBuildAcks, into kTagWkErrors as the coordinator receives them.
class ProbingTransport final : public Transport {
 public:
  explicit ProbingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  uint64_t loads() const { return loads_.load(); }
  uint64_t deposits() const { return deposits_.load(); }
  /// Distinct deposit tokens, in the order their first frame was sent.
  std::vector<uint64_t> deposit_tokens() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deposit_tokens_;
  }
  void FailNextMutateAckFrom(uint32_t rank) { fail_ack_from_.store(rank); }
  /// The next `count` deposit (or distributed-build) acks fail.
  void FailNextBuildAcks(uint32_t count) { fail_build_acks_.store(count); }

  uint32_t size() const override { return inner_->size(); }
  std::string name() const override { return "probing+" + inner_->name(); }
  Status Send(uint32_t from, uint32_t to, uint32_t tag,
              std::vector<uint8_t> payload) override {
    if (tag == kTagWkLoad) loads_.fetch_add(1);
    if (tag == kTagWkDeposit) {
      deposits_.fetch_add(1);
      Decoder dec(payload);
      uint64_t token = 0;
      if (dec.ReadU64(&token).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (deposit_tokens_.empty() || deposit_tokens_.back() != token) {
          deposit_tokens_.push_back(token);
        }
      }
    }
    return inner_->Send(from, to, tag, std::move(payload));
  }
  std::optional<RtMessage> TryRecv(uint32_t rank) override {
    return inner_->TryRecv(rank);
  }
  std::optional<RtMessage> TryRecv(uint32_t rank, uint32_t tag) override {
    return inner_->TryRecv(rank, tag);
  }
  Result<RtMessage> Recv(uint32_t rank, RecvDeadline deadline) override {
    Result<RtMessage> msg = inner_->Recv(rank, deadline);
    if (msg.ok() && rank == kCoordinatorRank) MaybeFail(msg.value());
    return msg;
  }
  void Wake(uint32_t rank) override { inner_->Wake(rank); }
  std::vector<RtMessage> DrainAll(uint32_t rank) override {
    return inner_->DrainAll(rank);
  }
  size_t PendingCount(uint32_t rank) const override {
    return inner_->PendingCount(rank);
  }
  Status Flush() override { return inner_->Flush(); }
  void Close() override { inner_->Close(); }
  bool healthy() const override { return inner_->healthy(); }
  bool has_remote_endpoints() const override {
    return inner_->has_remote_endpoints();
  }
  CommStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  BufferPool& buffer_pool() override { return inner_->buffer_pool(); }

 private:
  /// Rewrites a coordinator-bound ack into the kTagWkError an armed fault
  /// asks for.
  void MaybeFail(RtMessage& msg) {
    const char* what = nullptr;
    if (msg.tag == kTagWkMutateAck && fail_ack_from_.load() == msg.from) {
      fail_ack_from_.store(0);
      what = "injected mutation failure";
    } else if (msg.tag == kTagWkBuildAck && fail_build_acks_.load() > 0) {
      fail_build_acks_.fetch_sub(1);
      what = "injected deposit failure";
    }
    if (what == nullptr) return;
    Encoder enc;
    EncodeWorkerError(enc, Status::Internal(what));
    msg.tag = kTagWkError;
    msg.payload = enc.TakeBuffer();
  }

  std::unique_ptr<Transport> inner_;
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> deposits_{0};
  mutable std::mutex mu_;
  std::vector<uint64_t> deposit_tokens_;
  std::atomic<uint32_t> fail_ack_from_{0};
  std::atomic<uint32_t> fail_build_acks_{0};
};

}  // namespace testing
}  // namespace grape

#endif  // GRAPE_TESTS_PROBING_TRANSPORT_H_

// Differential conformance suite for Transport backends: every test runs
// against both — "inproc" (CommWorld) and "tcp" (TcpTransport, endpoint
// processes full-meshed over TCP). The suite IS the Transport
// contract — FIFO per channel, tag filtering, concurrent senders, large
// and empty payloads, drain semantics, the Flush delivery barrier
// (including barriers interleaved across ranks and racing Close),
// TryRecv liveness under saturation, Recv's deadline, the wakes that end
// a blocked Recv early (a frame, Close, Wake, a killed FlakyTransport),
// and backend-identical CommStats. A backend that passes here is safe to
// plug under the engine; the end-to-end guarantee (bit-identical outputs
// and counters) is frozen separately by tests/message_path_golden_test.cc.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "rt/flaky_transport.h"
#include "rt/transport.h"
#include "util/status.h"

namespace grape {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;
using std::chrono::seconds;

class TransportConformanceTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Transport> Make(uint32_t size) {
    auto t = MakeTransport(GetParam(), size);
    EXPECT_TRUE(t.ok()) << t.status();
    return std::move(t).value();
  }
};

TEST_P(TransportConformanceTest, ReportsNameAndSize) {
  auto t = Make(3);
  EXPECT_EQ(t->name(), GetParam());
  EXPECT_EQ(t->size(), 3u);
}

TEST_P(TransportConformanceTest, PointToPointDelivery) {
  auto t = Make(3);
  ASSERT_TRUE(t->Send(0, 2, kTagControl, {1, 2, 3}).ok());
  ASSERT_TRUE(t->Flush().ok());
  auto msg = t->TryRecv(2);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 0u);
  EXPECT_EQ(msg->to, 2u);
  EXPECT_EQ(msg->tag, kTagControl);
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(t->TryRecv(2).has_value());
  EXPECT_FALSE(t->TryRecv(0).has_value());
}

TEST_P(TransportConformanceTest, FifoPerChannel) {
  auto t = Make(2);
  for (uint32_t i = 0; i < 200; ++i) {
    std::vector<uint8_t> payload = {static_cast<uint8_t>(i),
                                    static_cast<uint8_t>(i >> 8)};
    ASSERT_TRUE(t->Send(0, 1, kTagControl, std::move(payload)).ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  for (uint32_t i = 0; i < 200; ++i) {
    auto msg = t->TryRecv(1);
    ASSERT_TRUE(msg.has_value()) << "message " << i << " missing";
    uint32_t seq = msg->payload[0] | (msg->payload[1] << 8);
    EXPECT_EQ(seq, i) << "FIFO order violated";
  }
}

TEST_P(TransportConformanceTest, TagFilteredReceive) {
  auto t = Make(2);
  ASSERT_TRUE(t->Send(0, 1, kTagControl, {1}).ok());
  ASSERT_TRUE(t->Send(0, 1, kTagParamUpdate, {2}).ok());
  ASSERT_TRUE(t->Send(0, 1, kTagControl, {3}).ok());
  ASSERT_TRUE(t->Flush().ok());
  auto msg = t->TryRecv(1, kTagParamUpdate);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload[0], 2);
  EXPECT_FALSE(t->TryRecv(1, kTagParamUpdate).has_value());
  // Filtering must not disturb the order of what remains.
  EXPECT_EQ(t->PendingCount(1), 2u);
  EXPECT_EQ(t->TryRecv(1, kTagControl)->payload[0], 1);
  EXPECT_EQ(t->TryRecv(1)->payload[0], 3);
}

TEST_P(TransportConformanceTest, ConcurrentSendersKeepPerChannelFifo) {
  constexpr uint32_t kSenders = 4;
  constexpr uint32_t kPerSender = 100;
  auto t = Make(kSenders + 1);
  std::vector<std::thread> senders;
  for (uint32_t s = 1; s <= kSenders; ++s) {
    senders.emplace_back([&t, s] {
      for (uint32_t i = 0; i < kPerSender; ++i) {
        std::vector<uint8_t> payload = {static_cast<uint8_t>(s),
                                        static_cast<uint8_t>(i),
                                        static_cast<uint8_t>(i >> 8)};
        ASSERT_TRUE(t->Send(s, 0, kTagParamUpdate, std::move(payload)).ok());
      }
    });
  }
  for (auto& th : senders) th.join();
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_EQ(t->PendingCount(0), kSenders * kPerSender);
  // Interleaving across channels is unspecified; within one sender's
  // channel the sequence numbers must arrive in order.
  std::map<uint8_t, uint32_t> next;
  while (auto msg = t->TryRecv(0)) {
    uint8_t s = msg->payload[0];
    uint32_t seq = msg->payload[1] | (msg->payload[2] << 8);
    EXPECT_EQ(seq, next[s]) << "channel " << int(s) << " reordered";
    next[s] = seq + 1;
    EXPECT_EQ(msg->from, s);
  }
  for (uint32_t s = 1; s <= kSenders; ++s) {
    EXPECT_EQ(next[static_cast<uint8_t>(s)], kPerSender);
  }
}

TEST_P(TransportConformanceTest, LargePayloadRoundTripsByteIdentical) {
  auto t = Make(2);
  // Several multiples of the kernel socket buffer, exercising chunked
  // relay through the endpoint process.
  std::vector<uint8_t> payload(4 * 1024 * 1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 2654435761u) >> 13);
  }
  std::vector<uint8_t> expected = payload;
  ASSERT_TRUE(t->Send(1, 0, kTagPartialResult, std::move(payload)).ok());
  ASSERT_TRUE(t->Flush().ok());
  auto msg = t->TryRecv(0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->payload == expected);
}

TEST_P(TransportConformanceTest, EmptyPayloadIsDelivered) {
  auto t = Make(2);
  ASSERT_TRUE(t->Send(0, 1, kTagControl, {}).ok());
  ASSERT_TRUE(t->Flush().ok());
  auto msg = t->TryRecv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->payload.empty());
  EXPECT_EQ(msg->tag, kTagControl);
}

TEST_P(TransportConformanceTest, SelfSendWorks) {
  auto t = Make(2);
  ASSERT_TRUE(t->Send(1, 1, kTagControl, {7}).ok());
  ASSERT_TRUE(t->Flush().ok());
  auto msg = t->TryRecv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 1u);
  EXPECT_EQ(msg->payload[0], 7);
}

TEST_P(TransportConformanceTest, DrainAllReturnsDeliveryOrderAndEmpties) {
  auto t = Make(2);
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(t->Send(0, 1, kTagControl, {i}).ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  auto all = t->DrainAll(1);
  ASSERT_EQ(all.size(), 5u);
  for (uint8_t i = 0; i < 5; ++i) EXPECT_EQ(all[i].payload[0], i);
  EXPECT_EQ(t->PendingCount(1), 0u);
  EXPECT_TRUE(t->DrainAll(1).empty());
}

TEST_P(TransportConformanceTest, FlushIsTheVisibilityBarrier) {
  auto t = Make(2);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(t->Send(0, 1, kTagParamUpdate, {static_cast<uint8_t>(i)}).ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  EXPECT_EQ(t->PendingCount(1), 32u);
  // Idempotent with nothing in flight.
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Flush().ok());
  EXPECT_EQ(t->PendingCount(1), 32u);
}

TEST_P(TransportConformanceTest, BlockingRecvGetsCrossThreadMessage) {
  auto t = Make(2);
  const auto start = Clock::now();
  std::thread sender([&t] {
    std::this_thread::sleep_for(milliseconds(20));
    ASSERT_TRUE(t->Send(0, 1, kTagControl, {42}).ok());
    ASSERT_TRUE(t->Flush().ok());
  });
  auto msg = t->Recv(1, start + seconds(30));
  const auto waited = Clock::now() - start;
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->payload[0], 42);
  EXPECT_LT(waited, seconds(5)) << "the frame, not the deadline, ends Recv";
  sender.join();
}

TEST_P(TransportConformanceTest, RecvOnAnEmptyMailboxReturnsAtItsDeadline) {
  auto t = Make(2);
  const auto start = Clock::now();
  auto msg = t->Recv(1, start + milliseconds(200));
  const auto waited = Clock::now() - start;
  EXPECT_FALSE(msg.ok());
  EXPECT_TRUE(t->healthy()) << "a deadline is not a death";
  EXPECT_GE(waited, milliseconds(200)) << "Recv gave up before its deadline";
  EXPECT_LT(waited, seconds(5));
  // A deadline already past returns at once without taking anything.
  EXPECT_FALSE(t->Recv(1, Clock::now()).ok());
}

TEST_P(TransportConformanceTest, CloseWakesBlockedReceiversWithCancelled) {
  auto t = Make(3);
  std::atomic<int> cancelled{0};
  const auto start = Clock::now();
  std::vector<std::thread> receivers;
  for (uint32_t r = 0; r < 3; ++r) {
    receivers.emplace_back([&t, &cancelled, r, start] {
      auto msg = t->Recv(r, start + seconds(60));
      if (!msg.ok() && msg.status().IsCancelled()) cancelled++;
    });
  }
  // Let the receivers block, then shut down.
  std::this_thread::sleep_for(milliseconds(50));
  t->Close();
  for (auto& th : receivers) th.join();
  EXPECT_EQ(cancelled.load(), 3);
  EXPECT_LT(Clock::now() - start, seconds(10)) << "Close, not the deadline";
  EXPECT_FALSE(t->healthy());
  EXPECT_TRUE(t->Send(0, 1, kTagControl, {1}).IsCancelled());
}

TEST_P(TransportConformanceTest, WakeEndsOneRecvAndIsKeptUntilConsumed) {
  auto t = Make(2);
  // A wake with nobody waiting is kept for the next Recv...
  t->Wake(1);
  auto start = Clock::now();
  auto woken = t->Recv(1, start + seconds(30));
  EXPECT_TRUE(woken.status().IsCancelled()) << woken.status();
  EXPECT_LT(Clock::now() - start, seconds(5));
  EXPECT_TRUE(t->healthy()) << "a wake is not a death";
  // ...and consumed by it: the one after waits out its deadline.
  start = Clock::now();
  EXPECT_FALSE(t->Recv(1, start + milliseconds(50)).ok());
  EXPECT_GE(Clock::now() - start, milliseconds(50));

  // A wake reaches a receiver that is already blocked.
  start = Clock::now();
  std::thread receiver([&t, start] {
    auto msg = t->Recv(1, start + seconds(60));
    EXPECT_TRUE(msg.status().IsCancelled()) << msg.status();
  });
  std::this_thread::sleep_for(milliseconds(50));
  t->Wake(1);
  receiver.join();
  EXPECT_LT(Clock::now() - start, seconds(10));

  // Delivered frames come before a pending wake.
  ASSERT_TRUE(t->Send(0, 1, kTagControl, {7}).ok());
  ASSERT_TRUE(t->Flush().ok());
  t->Wake(1);
  auto msg = t->Recv(1, Clock::now() + seconds(30));
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->payload[0], 7);
  EXPECT_TRUE(t->Recv(1, Clock::now() + seconds(30)).status().IsCancelled());
}

// FlakyTransport's kill_after_frames stands in for a SIGKILLed endpoint in
// the recovery tests, so it must end a blocked Recv the way a broken real
// transport does, not leave the receiver to its deadline.
TEST_P(TransportConformanceTest, KilledFlakyTransportWakesABlockedRecv) {
  auto inner = Make(3);
  FlakyOptions opts;
  opts.kill_after_frames = 1;
  FlakyTransport flaky(inner.get(), opts);
  const auto start = Clock::now();
  Status got;
  std::thread receiver([&flaky, &got, start] {
    got = flaky.Recv(1, start + seconds(60)).status();
  });
  std::this_thread::sleep_for(milliseconds(50));
  ASSERT_TRUE(flaky.Send(0, 2, kTagControl, {1}).ok());
  EXPECT_TRUE(flaky.Send(0, 2, kTagControl, {2}).IsUnavailable());
  receiver.join();
  EXPECT_TRUE(got.IsUnavailable()) << got;
  EXPECT_LT(Clock::now() - start, seconds(10)) << "the kill, not the deadline";
  EXPECT_FALSE(flaky.healthy());
  // What was delivered before the kill is still handed out first.
  ASSERT_TRUE(inner->Flush().ok());
  auto before = flaky.Recv(2, Clock::now() + seconds(30));
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->payload[0], 1);
  EXPECT_TRUE(flaky.Recv(2, Clock::now() + seconds(30)).status()
                  .IsUnavailable());
}

TEST_P(TransportConformanceTest, MessagesSurviveClose) {
  auto t = Make(2);
  ASSERT_TRUE(t->Send(0, 1, kTagControl, {9}).ok());
  ASSERT_TRUE(t->Flush().ok());
  t->Close();
  auto msg = t->TryRecv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload[0], 9);
}

TEST_P(TransportConformanceTest, RejectsBadRanks) {
  auto t = Make(2);
  EXPECT_TRUE(t->Send(0, 5, kTagControl, {}).IsInvalidArgument());
  EXPECT_TRUE(t->Send(9, 0, kTagControl, {}).IsInvalidArgument());
}

TEST_P(TransportConformanceTest, StatsCountIdenticallyAcrossBackends) {
  auto t = Make(2);
  t->ResetStats();
  ASSERT_TRUE(t->Send(0, 1, kTagControl, std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(t->Send(1, 0, kTagControl, std::vector<uint8_t>(50)).ok());
  ASSERT_TRUE(t->Flush().ok());
  CommStats stats = t->stats();
  EXPECT_EQ(stats.messages, 2u);
  // 16-byte envelope per message, on every backend.
  EXPECT_EQ(stats.bytes, 100u + 50u + 32u);
  t->ResetStats();
  EXPECT_EQ(t->stats().messages, 0u);
  EXPECT_EQ(t->stats().bytes, 0u);
}

TEST_P(TransportConformanceTest, BufferPoolRecyclesAcrossSendAndRecv) {
  auto t = Make(2);
  BufferPool& pool = t->buffer_pool();
  for (int round = 0; round < 4; ++round) {
    std::vector<uint8_t> buf = pool.Acquire();
    buf.clear();  // recycled buffers keep their old size; adopt like Encoder
    buf.resize(1024, static_cast<uint8_t>(round));
    ASSERT_TRUE(t->Send(0, 1, kTagParamUpdate, std::move(buf)).ok());
    ASSERT_TRUE(t->Flush().ok());
    auto msg = t->TryRecv(1);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->payload.size(), 1024u);
    EXPECT_EQ(msg->payload[17], static_cast<uint8_t>(round));
    pool.Release(std::move(msg->payload));
  }
  // After a full cycle at least one buffer must be parked in the pool
  // (sender-side release for tcp, receiver-side release everywhere).
  EXPECT_GT(pool.pooled(), 0u);
}

TEST_P(TransportConformanceTest, ManySmallMessagesAcrossAllRanks) {
  constexpr uint32_t kRanks = 5;
  auto t = Make(kRanks);
  uint32_t sent = 0;
  for (uint32_t from = 0; from < kRanks; ++from) {
    for (uint32_t to = 0; to < kRanks; ++to) {
      for (uint8_t k = 0; k < 3; ++k) {
        ASSERT_TRUE(t->Send(from, to, kTagParamUpdate,
                            {static_cast<uint8_t>(from),
                             static_cast<uint8_t>(to), k})
                        .ok());
        ++sent;
      }
    }
  }
  ASSERT_TRUE(t->Flush().ok());
  uint32_t received = 0;
  for (uint32_t to = 0; to < kRanks; ++to) {
    for (auto& msg : t->DrainAll(to)) {
      EXPECT_EQ(msg.payload[1], to);
      EXPECT_EQ(msg.payload[0], msg.from);
      ++received;
    }
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(t->stats().messages, sent);
}

// Several ranks flushing concurrently: Flush is one global barrier, so a
// rank's Flush may also wait out other ranks' traffic — but when it
// returns OK, that rank's own previously-returned Sends must all be
// visible, every round, regardless of how the barriers interleave.
TEST_P(TransportConformanceTest, InterleavedFlushBarriersFromMultipleRanks) {
  constexpr uint32_t kRanks = 4;
  constexpr uint32_t kRounds = 8;
  constexpr uint32_t kPerRound = 25;
  auto t = Make(kRanks);
  std::vector<std::thread> ranks;
  for (uint32_t s = 0; s < kRanks; ++s) {
    ranks.emplace_back([&t, s] {
      // Only rank s targets mailbox s, so visibility is exactly countable.
      const uint32_t from = (s + 1) % kRanks;
      for (uint32_t round = 0; round < kRounds; ++round) {
        for (uint32_t i = 0; i < kPerRound; ++i) {
          const uint32_t seq = round * kPerRound + i;
          ASSERT_TRUE(t->Send(from, s, kTagParamUpdate,
                              {static_cast<uint8_t>(seq),
                               static_cast<uint8_t>(seq >> 8)})
                          .ok());
        }
        ASSERT_TRUE(t->Flush().ok()) << "rank " << s << " round " << round;
        EXPECT_EQ(t->PendingCount(s), (round + 1) * kPerRound)
            << "rank " << s << "'s barrier returned before its own sends "
            << "were visible (round " << round << ")";
      }
    });
  }
  for (auto& th : ranks) th.join();
  for (uint32_t s = 0; s < kRanks; ++s) {
    uint32_t expect = 0;
    while (auto msg = t->TryRecv(s)) {
      const uint32_t seq = msg->payload[0] | (msg->payload[1] << 8);
      EXPECT_EQ(seq, expect++) << "rank " << s << " reordered";
    }
    EXPECT_EQ(expect, kRounds * kPerRound);
  }
}

// A peer saturating one channel must not starve anything: the flooded
// mailbox's TryRecv keeps yielding in FIFO order, a tag-filtered receive
// still finds its message behind the flood, and an idle rank's TryRecv
// stays non-blocking throughout.
TEST_P(TransportConformanceTest, TryRecvStarvationUnderSaturatedPeer) {
  constexpr uint32_t kFlood = 2000;
  auto t = Make(4);
  std::thread flooder([&t] {
    for (uint32_t i = 0; i < kFlood; ++i) {
      ASSERT_TRUE(t->Send(0, 1, kTagParamUpdate,
                          {static_cast<uint8_t>(i),
                           static_cast<uint8_t>(i >> 8)})
                      .ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  });
  ASSERT_TRUE(t->Send(2, 1, kTagControl, {0xee}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  // The control message must surface through the flood by tag.
  for (;;) {
    if (auto ctl = t->TryRecv(1, kTagControl)) {
      EXPECT_EQ(ctl->payload[0], 0xee);
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "tag-filtered TryRecv starved by a saturated channel";
    std::this_thread::yield();
  }
  // Consume the flood concurrently with its production; FIFO must hold.
  uint32_t got = 0;
  while (got < kFlood) {
    auto msg = t->TryRecv(1);
    if (!msg.has_value()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "TryRecv starved: " << got << " of " << kFlood << " received";
      std::this_thread::yield();
      continue;
    }
    const uint32_t seq = msg->payload[0] | (msg->payload[1] << 8);
    EXPECT_EQ(seq, got) << "flooded channel reordered";
    ++got;
    // An idle rank's TryRecv stays non-blocking and empty under load.
    EXPECT_FALSE(t->TryRecv(3).has_value());
  }
  flooder.join();
}

// Two ranks exchanging far more than a socket buffer of data in BOTH
// directions before any barrier. A substrate that relays with blocking
// peer-to-peer writes and no read servicing deadlocks here: each side's
// outbound fills the other's unread receive window (the classic
// full-duplex pipe deadlock), so this case is the liveness gate for
// mesh-topology backends.
TEST_P(TransportConformanceTest, BidirectionalBulkExchangeDoesNotDeadlock) {
  constexpr size_t kMsgBytes = 256 * 1024;
  constexpr uint32_t kEach = 24;  // ~6MB per direction
  auto t = Make(3);
  auto exchanged = std::async(std::launch::async, [&t] {
    std::thread ab([&t] {
      for (uint32_t i = 0; i < kEach; ++i) {
        ASSERT_TRUE(t->Send(1, 2, kTagParamUpdate,
                            std::vector<uint8_t>(kMsgBytes,
                                                 static_cast<uint8_t>(i)))
                        .ok());
      }
    });
    std::thread ba([&t] {
      for (uint32_t i = 0; i < kEach; ++i) {
        ASSERT_TRUE(t->Send(2, 1, kTagParamUpdate,
                            std::vector<uint8_t>(kMsgBytes,
                                                 static_cast<uint8_t>(i)))
                        .ok());
      }
    });
    ab.join();
    ba.join();
    return t->Flush();
  });
  if (exchanged.wait_for(std::chrono::seconds(120)) !=
      std::future_status::ready) {
    // The workers are wedged and cannot be joined (the future's
    // destructor would block forever) — fail fast and loudly instead of
    // sitting out the ctest timeout.
    ADD_FAILURE() << "bidirectional bulk exchange deadlocked the substrate";
    std::fflush(nullptr);
    std::abort();
  }
  ASSERT_TRUE(exchanged.get().ok());
  for (uint32_t rank : {1u, 2u}) {
    uint32_t next = 0;
    while (auto msg = t->TryRecv(rank)) {
      ASSERT_EQ(msg->payload.size(), kMsgBytes);
      EXPECT_EQ(msg->payload[0], static_cast<uint8_t>(next++))
          << "rank " << rank;
    }
    EXPECT_EQ(next, kEach) << "rank " << rank << " lost messages";
  }
}

// Close racing a Flush with traffic in flight: the barrier must return —
// OK or a Status, never a hang — and the transport must be cleanly
// closed afterwards.
TEST_P(TransportConformanceTest, CloseWhileFlushInFlight) {
  for (int round = 0; round < 5; ++round) {
    auto t = Make(2);
    // Enough bytes that asynchronous backends genuinely have frames in
    // flight when Close lands.
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          t->Send(0, 1, kTagParamUpdate, std::vector<uint8_t>(64 * 1024))
              .ok());
    }
    auto flushed = std::async(std::launch::async, [&t] { return t->Flush(); });
    t->Close();
    if (flushed.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      // See BidirectionalBulkExchangeDoesNotDeadlock: a wedged Flush
      // cannot be joined, so fail fast instead of wedging the binary.
      ADD_FAILURE() << "Flush hung across a concurrent Close";
      std::fflush(nullptr);
      std::abort();
    }
    const Status st = flushed.get();
    EXPECT_TRUE(st.ok() || st.IsCancelled()) << st;
    EXPECT_TRUE(t->Send(0, 1, kTagControl, {1}).IsCancelled());
    // Whatever was delivered before the race resolved stays drainable,
    // in order, with intact payloads.
    size_t delivered = 0;
    for (auto& msg : t->DrainAll(1)) {
      EXPECT_EQ(msg.payload.size(), 64u * 1024u);
      ++delivered;
    }
    EXPECT_LE(delivered, 64u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::ValuesIn(TransportNames()),
                         [](const auto& info) { return info.param; });

// Forking-backend interop: a later-created transport's endpoint children
// inherit the parent's fd table at fork time. If they kept an earlier
// transport's link fds open, that transport's children would never see
// EOF and its destructor would hang on the receiver join — so coexisting
// transports must be destroyable in any order.
TEST(TcpTransportInteropTest, OutOfOrderDestructionDoesNotHang) {
  auto ra = MakeTransport("tcp", 2);
  ASSERT_TRUE(ra.ok()) << ra.status();
  std::unique_ptr<Transport> a = std::move(ra).value();
  auto rb = MakeTransport("tcp", 2);
  ASSERT_TRUE(rb.ok()) << rb.status();
  std::unique_ptr<Transport> b = std::move(rb).value();

  ASSERT_TRUE(a->Send(0, 1, kTagControl, {1}).ok());
  ASSERT_TRUE(a->Flush().ok());
  EXPECT_EQ(a->TryRecv(1)->payload[0], 1);
  a.reset();  // must not block, despite b's children forked while a lived

  ASSERT_TRUE(b->Send(0, 1, kTagControl, {2}).ok());
  ASSERT_TRUE(b->Flush().ok());
  EXPECT_EQ(b->TryRecv(1)->payload[0], 2);
}

}  // namespace
}  // namespace grape

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/transport.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rt/comm_world.h"
#include "tests/test_util.h"

namespace grape {
namespace {

// The vertex-addressed message bus of the baseline engines, run over every
// Transport backend (the bus only talks to the interface). After
// bus.Flush() serializes and Sends, world->Flush() is the delivery barrier
// that makes the batches visible — a no-op in-process, a real wait over
// tcp.
class TransportTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    auto g = GeneratePath(8, /*directed=*/true);
    ASSERT_TRUE(g.ok());
    fg_ = testing::MakeFragments(*g, "range", 2);
    auto world = MakeTransport(GetParam(), 2);
    ASSERT_TRUE(world.ok()) << world.status();
    world_ = std::move(world).value();
  }

  FragmentedGraph fg_;
  std::unique_ptr<Transport> world_;
};

TEST_P(TransportTest, RoutesToOwner) {
  VertexMessageBus<double> bus(world_.get(), &fg_, /*self=*/0);
  // Vertex 6 is owned by fragment 1 under the range partition of a path.
  FragmentId owner6 = (*fg_.owner)[6];
  bus.Send(6, 3.5);
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(world_->Flush().ok());

  std::unordered_map<LocalId, std::vector<double>> inbox;
  VertexMessageBus<double> receiver(world_.get(), &fg_, owner6);
  auto count = receiver.Receive(fg_.fragments[owner6], &inbox);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  LocalId lid = fg_.fragments[owner6].Lid(6);
  ASSERT_EQ(inbox.count(lid), 1u);
  EXPECT_DOUBLE_EQ(inbox[lid][0], 3.5);
}

TEST_P(TransportTest, CombinerMergesPerVertex) {
  VertexMessageBus<double> bus(world_.get(), &fg_, 0);
  auto min_combine = [](double a, double b) { return std::min(a, b); };
  bus.SendCombined(6, 9.0, min_combine);
  bus.SendCombined(6, 4.0, min_combine);
  bus.SendCombined(6, 7.0, min_combine);
  bus.SendCombined(7, 1.0, min_combine);
  EXPECT_EQ(bus.logical_sent(), 2u);  // one slot per destination vertex
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(world_->Flush().ok());

  FragmentId dst = (*fg_.owner)[6];
  std::unordered_map<LocalId, std::vector<double>> inbox;
  VertexMessageBus<double> receiver(world_.get(), &fg_, dst);
  auto count = receiver.Receive(fg_.fragments[dst], &inbox);
  ASSERT_TRUE(count.ok());
  LocalId lid6 = fg_.fragments[dst].Lid(6);
  ASSERT_EQ(inbox[lid6].size(), 1u);
  EXPECT_DOUBLE_EQ(inbox[lid6][0], 4.0);  // combined minimum
}

TEST_P(TransportTest, UncombinedKeepsEveryMessage) {
  VertexMessageBus<double> bus(world_.get(), &fg_, 0);
  bus.Send(6, 1.0);
  bus.Send(6, 2.0);
  EXPECT_EQ(bus.logical_sent(), 2u);
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(world_->Flush().ok());
  FragmentId dst = (*fg_.owner)[6];
  std::unordered_map<LocalId, std::vector<double>> inbox;
  VertexMessageBus<double> receiver(world_.get(), &fg_, dst);
  ASSERT_TRUE(receiver.Receive(fg_.fragments[dst], &inbox).ok());
  EXPECT_EQ(inbox[fg_.fragments[dst].Lid(6)].size(), 2u);
}

TEST_P(TransportTest, MessageForForeignVertexIsAnError) {
  VertexMessageBus<double> bus(world_.get(), &fg_, 0);
  bus.Send(1, 1.0);  // vertex 1 is owned by fragment 0
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(world_->Flush().ok());
  // Deliver fragment 0's message to fragment 1's receiver: wrong owner.
  auto msg = world_->TryRecv(0, kTagVertexMessage);
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(world_->Send(0, 1, kTagVertexMessage, msg->payload).ok());
  ASSERT_TRUE(world_->Flush().ok());
  std::unordered_map<LocalId, std::vector<double>> inbox;
  VertexMessageBus<double> receiver(world_.get(), &fg_, 1);
  auto count = receiver.Receive(fg_.fragments[1], &inbox);
  EXPECT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsInternal());
}

TEST_P(TransportTest, FlushIsIdempotentWhenEmpty) {
  VertexMessageBus<double> bus(world_.get(), &fg_, 0);
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(world_->Flush().ok());
  EXPECT_EQ(world_->PendingCount(0), 0u);
  EXPECT_EQ(world_->PendingCount(1), 0u);
}

TEST_P(TransportTest, BatchesPerDestinationWorker) {
  VertexMessageBus<double> bus(world_.get(), &fg_, 0);
  // 4 messages to fragment-1 vertices => exactly one wire message.
  bus.Send(4, 1.0);
  bus.Send(5, 1.0);
  bus.Send(6, 1.0);
  bus.Send(7, 1.0);
  ASSERT_TRUE(bus.Flush().ok());
  ASSERT_TRUE(world_->Flush().ok());
  EXPECT_EQ(world_->PendingCount(1), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportTest,
                         ::testing::ValuesIn(TransportNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Shutdown semantics (the Recv-blocks-forever fix): Close() must wake every
// blocked receiver with a Status instead of leaving threads parked on the
// mailbox condition variable for good.
// ---------------------------------------------------------------------------

TEST(TransportShutdownTest, CloseWakesManyConcurrentBlockedReceivers) {
  CommWorld world(4);
  constexpr int kReceiversPerRank = 3;
  std::atomic<int> woke_cancelled{0};
  std::vector<std::thread> receivers;
  for (uint32_t rank = 0; rank < 4; ++rank) {
    for (int k = 0; k < kReceiversPerRank; ++k) {
      receivers.emplace_back([&world, &woke_cancelled, rank] {
        auto msg = world.Recv(rank, kNoDeadline);
        if (!msg.ok() && msg.status().IsCancelled()) woke_cancelled++;
      });
    }
  }
  // Give every thread time to actually block in Recv, then shut down once.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  world.Close();
  for (auto& th : receivers) th.join();
  EXPECT_EQ(woke_cancelled.load(), 4 * kReceiversPerRank);
}

TEST(TransportShutdownTest, RecvAfterCloseReturnsImmediately) {
  CommWorld world(2);
  world.Close();
  auto msg = world.Recv(1, kNoDeadline);
  ASSERT_FALSE(msg.ok());
  EXPECT_TRUE(msg.status().IsCancelled());
}

TEST(TransportShutdownTest, PendingMessageWinsOverClose) {
  // A message delivered before Close must still be receivable: Close stops
  // the world, it does not destroy mail already in the box.
  CommWorld world(2);
  ASSERT_TRUE(world.Send(0, 1, kTagControl, {5}).ok());
  world.Close();
  auto msg = world.TryRecv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload[0], 5);
  EXPECT_TRUE(world.Send(0, 1, kTagControl, {6}).IsCancelled());
}

TEST(TransportShutdownTest, CloseIsIdempotentAndRaceFree) {
  CommWorld world(2);
  std::thread blocked([&world] {
    auto msg = world.Recv(0, kNoDeadline);
    EXPECT_FALSE(msg.ok());
  });
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&world] { world.Close(); });
  }
  for (auto& th : closers) th.join();
  blocked.join();
}

}  // namespace
}  // namespace grape

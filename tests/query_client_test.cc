#include "client/query_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/logging.h"
#include "common/socket.h"
#include "server/wire_protocol.h"

namespace hmmm {
namespace {

// A scripted single-connection server: accepts connections one at a time
// and answers each received frame through `script` (invocation count is
// passed so tests can fail-then-succeed). Lets the client's retry policy
// be tested without a real QueryServer.
class FakeServer {
 public:
  using Script = std::function<std::string(int call, MessageType type,
                                           const std::string& payload)>;

  explicit FakeServer(Script script) : script_(std::move(script)) {
    auto listener = TcpListen("127.0.0.1", 0);
    HMMM_CHECK(listener.ok());
    listener_ = std::move(listener).value();
    auto port = LocalPort(listener_);
    HMMM_CHECK(port.ok());
    port_ = port.value();
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeServer() {
    stop_.store(true);
    // Unblock a pending accept by connecting once.
    auto poke = TcpConnect("127.0.0.1", port_, std::chrono::milliseconds(500));
    (void)poke;
    thread_.join();
  }

  uint16_t port() const { return port_; }
  int calls() const { return calls_.load(); }

 private:
  void Serve() {
    const auto deadline = [] {
      return DeadlineAfter(std::chrono::milliseconds(5000));
    };
    while (!stop_.load()) {
      auto conn = Accept(listener_);
      if (!conn.ok() || stop_.load()) continue;
      // Serve frames on this connection until the peer leaves or the
      // script asks for a disconnect (empty response).
      for (;;) {
        char header_bytes[kFrameHeaderBytes];
        if (!ReadExact(conn->fd(), header_bytes, kFrameHeaderBytes,
                       deadline())
                 .ok()) {
          break;
        }
        FrameHeader header;
        if (DecodeFrameHeader(std::string_view(header_bytes,
                                               kFrameHeaderBytes),
                              kDefaultMaxFrameBytes,
                              &header) != WireError::kNone) {
          break;
        }
        std::string payload(header.payload_bytes, '\0');
        if (!payload.empty() &&
            !ReadExact(conn->fd(), payload.data(), payload.size(),
                       deadline())
                 .ok()) {
          break;
        }
        const int call = calls_.fetch_add(1);
        const std::string response = script_(call, header.type, payload);
        if (response.empty()) break;  // scripted disconnect
        if (!WriteAll(conn->fd(), response, deadline()).ok()) break;
      }
    }
  }

  Script script_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> calls_{0};
};

QueryClientOptions FastRetryOptions(uint16_t port, int max_retries = 3) {
  QueryClientOptions options;
  options.port = port;
  options.max_retries = max_retries;
  options.retry_backoff = std::chrono::milliseconds(1);
  options.connect_timeout = std::chrono::milliseconds(1000);
  options.io_timeout = std::chrono::milliseconds(1000);
  return options;
}

std::string HealthFrame() {
  HealthResponse health;
  health.videos = 5;
  return EncodeFrame(MessageType::kHealthResponse,
                     EncodeHealthResponse(health));
}

std::string RetriableErrorFrame(WireError code) {
  ErrorResponse error;
  error.code = code;
  error.retriable = true;
  error.message = "try again";
  return EncodeFrame(MessageType::kErrorResponse,
                     EncodeErrorResponse(error));
}

TEST(QueryClientTest, RetriesTypedRetriableErrorUntilSuccess) {
  FakeServer server([](int call, MessageType, const std::string&) {
    if (call < 2) return RetriableErrorFrame(WireError::kResourceExhausted);
    return HealthFrame();
  });
  QueryClient client(FastRetryOptions(server.port()));
  const auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->videos, 5u);
  EXPECT_EQ(client.retries_performed(), 2u);
  EXPECT_EQ(server.calls(), 3);
}

TEST(QueryClientTest, RetriableTypedErrorRetriesEvenNonIdempotentRequests) {
  // kShuttingDown means the server refused before executing, so even
  // Train (non-idempotent) goes again.
  FakeServer server([](int call, MessageType, const std::string&) {
    if (call == 0) return RetriableErrorFrame(WireError::kShuttingDown);
    return EncodeFrame(MessageType::kTrainResponse,
                       EncodeTrainResponse({true, 1}));
  });
  QueryClient client(FastRetryOptions(server.port()));
  const auto trained = client.Train();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_EQ(client.retries_performed(), 1u);
}

TEST(QueryClientTest, ExhaustedRetryBudgetSurfacesTheError) {
  FakeServer server([](int, MessageType, const std::string&) {
    return RetriableErrorFrame(WireError::kResourceExhausted);
  });
  QueryClient client(FastRetryOptions(server.port(), /*max_retries=*/2));
  const auto health = client.Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.retries_performed(), 2u);
  EXPECT_EQ(server.calls(), 3);  // initial attempt + 2 retries
}

TEST(QueryClientTest, NonRetriableTypedErrorIsNotRetried) {
  FakeServer server([](int, MessageType, const std::string&) {
    ErrorResponse error;
    error.code = WireError::kInvalidArgument;
    error.retriable = false;
    error.message = "unknown event name";
    return EncodeFrame(MessageType::kErrorResponse,
                       EncodeErrorResponse(error));
  });
  QueryClient client(FastRetryOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "nonsense";
  const auto response = client.TemporalQuery(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.status().message(), "unknown event name");
  EXPECT_EQ(client.retries_performed(), 0u);
  EXPECT_EQ(server.calls(), 1);
}

TEST(QueryClientTest, UnsupportedVersionAnswerIsReturnedWithoutRetry) {
  // What a peer of another wire version answers to any frame of ours.
  FakeServer server([](int, MessageType, const std::string&) {
    ErrorResponse error;
    error.code = WireError::kUnsupportedVersion;
    error.retriable = WireErrorRetriable(error.code);
    error.message = "unsupported protocol version";
    return EncodeFrame(MessageType::kErrorResponse,
                       EncodeErrorResponse(error));
  });
  QueryClient client(FastRetryOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "goal";
  const auto response = client.TemporalQuery(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnimplemented);
  const auto train = client.Train();
  ASSERT_FALSE(train.ok());
  EXPECT_EQ(train.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(client.retries_performed(), 0u);
  EXPECT_EQ(server.calls(), 2);
}

TEST(QueryClientTest, TransportFailureRetriesIdempotentRequests) {
  // First connection is dropped mid-exchange (scripted disconnect);
  // Health is idempotent so the client reconnects and retries.
  FakeServer server([](int call, MessageType, const std::string&) {
    if (call == 0) return std::string();  // disconnect without answering
    return HealthFrame();
  });
  QueryClient client(FastRetryOptions(server.port()));
  const auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(client.retries_performed(), 1u);
}

TEST(QueryClientTest, TransportFailureDoesNotRetryNonIdempotentRequests) {
  // The connection drops after MarkPositive was sent: the server may or
  // may not have applied it, so the client must surface the failure
  // instead of blindly re-sending feedback.
  FakeServer server([](int, MessageType, const std::string&) {
    return std::string();  // always disconnect
  });
  QueryClient client(FastRetryOptions(server.port()));
  MarkPositiveRequest request;
  request.pattern.shots = {1, 2};
  request.pattern.edge_weights = {0.5};
  request.pattern.score = 0.5;
  request.pattern.video = 0;
  const auto response = client.MarkPositive(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(client.retries_performed(), 0u);
  EXPECT_EQ(server.calls(), 1);
}

TEST(QueryClientTest, ConnectFailureIsRetriedThenSurfaced) {
  // Nothing listens on this port (bind+close to reserve then free it).
  uint16_t dead_port;
  {
    auto listener = TcpListen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = LocalPort(*listener).value();
  }
  QueryClientOptions options = FastRetryOptions(dead_port, /*max_retries=*/2);
  options.connect_timeout = std::chrono::milliseconds(200);
  QueryClient client(options);
  const auto health = client.Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(client.retries_performed(), 2u);
}

TEST(QueryClientTest, GarbageResponseIsDesyncNotRetried) {
  FakeServer server([](int, MessageType, const std::string&) {
    return std::string(kFrameHeaderBytes, 'Z');  // not a frame
  });
  QueryClient client(FastRetryOptions(server.port()));
  const auto health = client.Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.retries_performed(), 0u);
  EXPECT_FALSE(client.connected());  // desync drops the connection
}

TEST(QueryClientTest, MismatchedResponseTypeIsInternalError) {
  FakeServer server([](int, MessageType, const std::string&) {
    return EncodeFrame(MessageType::kTrainResponse,
                       EncodeTrainResponse({true, 1}));
  });
  QueryClient client(FastRetryOptions(server.port()));
  const auto health = client.Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kInternal);
}

TEST(QueryClientTest, SlowServerHitsIoTimeout) {
  // The script never answers Health (sleeps past the client deadline).
  FakeServer server([](int, MessageType, const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return HealthFrame();
  });
  QueryClientOptions options = FastRetryOptions(server.port(),
                                                /*max_retries=*/0);
  options.io_timeout = std::chrono::milliseconds(50);
  QueryClient client(options);
  const auto started = std::chrono::steady_clock::now();
  const auto health = client.Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kIOError);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(350));
}

TEST(QueryClientTest, NextCancelGenerationIsMonotone) {
  QueryClient client(FastRetryOptions(0));
  EXPECT_EQ(client.NextCancelGeneration(), 1u);
  EXPECT_EQ(client.NextCancelGeneration(), 2u);
  EXPECT_EQ(client.NextCancelGeneration(), 3u);
}

TEST(RetryBackoffTest, DecorrelatedJitterStaysInItsEnvelope) {
  Rng rng(1234);
  const std::chrono::milliseconds base(10);
  const std::chrono::milliseconds cap(200);
  std::chrono::milliseconds prev = base;
  for (int i = 0; i < 2000; ++i) {
    const std::chrono::milliseconds next =
        NextDecorrelatedBackoff(base, cap, prev, rng);
    EXPECT_GE(next, base);
    EXPECT_LE(next, cap);
    EXPECT_LE(next.count(), std::min<int64_t>(cap.count(),
                                              3 * prev.count()));
    prev = next;
  }
}

TEST(RetryBackoffTest, JitterActuallySpreadsAcrossTheRange) {
  // Decorrelation is the whole point: a fleet that failed together must
  // not retry in lockstep. With prev pinned high, successive draws from
  // one stream must take more than a handful of distinct values.
  Rng rng(99);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(NextDecorrelatedBackoff(std::chrono::milliseconds(10),
                                        std::chrono::milliseconds(10000),
                                        std::chrono::milliseconds(300), rng)
                    .count());
  }
  EXPECT_GT(seen.size(), 50u);
}

TEST(RetryBackoffTest, PinnedSeedReplaysTheSameSchedule) {
  const auto draw = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<int64_t> schedule;
    std::chrono::milliseconds prev(10);
    for (int i = 0; i < 16; ++i) {
      prev = NextDecorrelatedBackoff(std::chrono::milliseconds(10),
                                     std::chrono::milliseconds(1000), prev,
                                     rng);
      schedule.push_back(prev.count());
    }
    return schedule;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(RetryBackoffTest, DeriveRetryJitterSeedDecorrelatesClients) {
  // A configured seed is used verbatim (tests pin schedules); the 0
  // default derives a distinct stream per client.
  EXPECT_EQ(DeriveRetryJitterSeed(42), 42u);
  EXPECT_NE(DeriveRetryJitterSeed(0), DeriveRetryJitterSeed(0));
}

TEST(QueryClientPoolTest, DiscardsStaleConnectionsAtCheckout) {
  StatusOr<Socket> listener = TcpListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  StatusOr<uint16_t> port = LocalPort(*listener);
  ASSERT_TRUE(port.ok());

  QueryClientOptions options;
  options.port = *port;
  QueryClientPool pool(options, /*max_idle=*/4);
  {
    QueryClientPool::Lease lease = pool.Acquire();
    ASSERT_TRUE(lease->Connect().ok());
    // Accept the connection server-side, then drop it: the pooled
    // client's socket now holds an unread EOF.
    StatusOr<Socket> conn = Accept(*listener);
    ASSERT_TRUE(conn.ok());
  }  // lease returns the (now half-closed) client to the idle pool
  ASSERT_EQ(pool.idle(), 1u);

  // Give the FIN a beat to arrive, then check out: the stale connection
  // must be discarded, not leased into a fan-out.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  QueryClientPool::Lease lease = pool.Acquire();
  EXPECT_FALSE(lease->connected());
  EXPECT_EQ(pool.stale_discarded(), 1u);
  EXPECT_EQ(pool.clients_created(), 2u);
}

TEST(QueryClientPoolTest, HealthyIdleConnectionIsReused) {
  FakeServer server([](int, MessageType, const std::string&) {
    return HealthFrame();
  });
  QueryClientOptions options;
  options.port = server.port();
  QueryClientPool pool(options, /*max_idle=*/4);
  {
    QueryClientPool::Lease lease = pool.Acquire();
    ASSERT_TRUE(lease->Health().ok());
  }
  {
    QueryClientPool::Lease lease = pool.Acquire();
    EXPECT_TRUE(lease->connected());
    ASSERT_TRUE(lease->Health().ok());
  }
  EXPECT_EQ(pool.clients_created(), 1u);
  EXPECT_EQ(pool.stale_discarded(), 0u);
}

}  // namespace
}  // namespace hmmm

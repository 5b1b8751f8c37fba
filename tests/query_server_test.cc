#include "server/query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/video_database.h"
#include "client/query_client.h"
#include "common/socket.h"
#include "observability/trace_codec.h"
#include "server/wire_protocol.h"
#include "test_util.h"

namespace hmmm {
namespace {

VideoDatabase MakeDatabase(VideoDatabaseOptions options = {}) {
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(), options);
  HMMM_CHECK(db.ok());
  return std::move(db).value();
}

QueryClientOptions ClientOptions(uint16_t port) {
  QueryClientOptions options;
  options.port = port;
  return options;
}

void ExpectSameRanking(const std::vector<RetrievedPattern>& expected,
                       const std::vector<RetrievedPattern>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].shots, actual[i].shots) << "rank " << i;
    EXPECT_EQ(expected[i].video, actual[i].video) << "rank " << i;
    EXPECT_EQ(expected[i].crosses_videos, actual[i].crosses_videos);
    // Doubles travel as raw IEEE-754 bits: demand bit-exact equality
    // with the in-process ranking, not approximate equality.
    EXPECT_EQ(expected[i].score, actual[i].score) << "rank " << i;
    EXPECT_EQ(expected[i].edge_weights, actual[i].edge_weights);
  }
}

// The acceptance bar for the serving layer: concurrent clients receive
// rankings byte-identical to in-process VideoDatabase::Query, at every
// server worker count.
TEST(QueryServerTest, ConcurrentClientsMatchInProcessRankings) {
  VideoDatabaseOptions db_options;
  // No result cache: every served query must recompute and still match
  // the in-process ranking bit for bit.
  db_options.query_cache_entries = 0;
  VideoDatabase db = MakeDatabase(db_options);
  const std::vector<std::string> queries = {
      "free_kick ; goal", "corner_kick ; goal", "free_kick ; corner_kick",
      "goal ; goal", "foul ; free_kick", "yellow_card ; free_kick",
      "goal_kick ; corner_kick", "free_kick & goal ; corner_kick"};
  std::vector<std::vector<RetrievedPattern>> expected;
  for (const std::string& query : queries) {
    auto result = db.Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).value());
  }

  for (int workers : {1, 2, 4}) {
    QueryServerOptions options;
    options.num_workers = workers;
    QueryServer server(&db, options);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (size_t c = 0; c < queries.size(); ++c) {
      clients.emplace_back([&, c] {
        QueryClient client(ClientOptions(server.port()));
        TemporalQueryRequest request;
        request.text = queries[c];
        request.want_stats = true;
        const auto response = client.TemporalQuery(request);
        if (!response.ok()) {
          ++failures;
          ADD_FAILURE() << "workers=" << workers << " query \"" << queries[c]
                        << "\": " << response.status().ToString();
          return;
        }
        EXPECT_FALSE(response->degraded);
        EXPECT_TRUE(response->has_stats);
        ExpectSameRanking(expected[c], response->results);
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << "workers=" << workers;
    server.Shutdown();
    EXPECT_FALSE(server.running());
  }
}

TEST(QueryServerTest, PipelinedRequestsOnOneConnectionKeepOrder) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  const auto expected = db.Query("free_kick ; goal");
  ASSERT_TRUE(expected.ok());
  for (int i = 0; i < 5; ++i) {
    TemporalQueryRequest request;
    request.text = "free_kick ; goal";
    const auto response = client.TemporalQuery(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectSameRanking(*expected, response->results);
  }
}

TEST(QueryServerTest, ZeroBudgetDegradesInsteadOfFailing) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  request.budget_ms = 0;  // already expired: maximal degradation
  request.want_stats = true;
  const auto response = client.TemporalQuery(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->degraded);
  ASSERT_TRUE(response->has_stats);
  EXPECT_TRUE(response->stats.degraded);
  EXPECT_GT(response->videos_skipped, 0u);
  // The partial ranking must still be well-formed: scores sorted
  // descending, every pattern internally consistent.
  for (size_t i = 1; i < response->results.size(); ++i) {
    EXPECT_GE(response->results[i - 1].score, response->results[i].score);
  }
  for (const RetrievedPattern& pattern : response->results) {
    EXPECT_FALSE(pattern.shots.empty());
    EXPECT_EQ(pattern.edge_weights.size(), pattern.shots.size() - 1);
  }
}

TEST(QueryServerTest, BudgetedQueryStillWellFormedUnderGenerousBudget) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  const auto expected = db.Query("corner_kick ; goal");
  ASSERT_TRUE(expected.ok());
  TemporalQueryRequest request;
  request.text = "corner_kick ; goal";
  request.budget_ms = 60000;  // generous: must not degrade
  const auto response = client.TemporalQuery(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ExpectSameRanking(*expected, response->results);
}

TEST(QueryServerTest, WantTraceReturnsServerSideTrace) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  request.want_trace = true;
  const auto response = client.TemporalQuery(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // The blob decodes to the server_query span over the traversal's
  // phase spans, and renders as one JSONL record per span.
  const auto spans = DeserializeSpans(response->trace_blob);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_GT(spans->size(), 1u);
  EXPECT_EQ((*spans)[0].name, "server_query");
  const std::string jsonl = RenderSpansJsonl(*spans);
  EXPECT_NE(jsonl.find("\"elapsed_ms\""), std::string::npos);
  EXPECT_EQ(static_cast<size_t>(std::count(jsonl.begin(), jsonl.end(), '\n')),
            spans->size());
}

TEST(QueryServerTest, WireStatsCarryHeapPops) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());
  VideoDatabase in_process = MakeDatabase();

  QueryClient client(ClientOptions(server.port()));
  for (const char* text : {"free_kick ; goal", "corner_kick ; goal"}) {
    SCOPED_TRACE(text);
    TemporalQueryRequest request;
    request.text = text;
    request.want_stats = true;
    const auto response = client.TemporalQuery(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->has_stats);
    RetrievalStats stats;
    ASSERT_TRUE(in_process.Query(text, &stats).ok());
    EXPECT_GT(stats.heap_pops, 0u);
    EXPECT_EQ(response->stats.heap_pops, stats.heap_pops);
    EXPECT_EQ(response->stats.states_visited, stats.states_visited);
    EXPECT_EQ(response->stats.sim_evaluations, stats.sim_evaluations);
  }
}

TEST(QueryServerTest, SaturatedAdmissionShedsRetriablyAndClientRecovers) {
  VideoDatabaseOptions db_options;
  db_options.admission.max_concurrent = 1;
  db_options.admission.max_queued = 0;
  db_options.query_cache_entries = 0;  // every request does real work
  // Make each query occupy the admission slot for a measurable time
  // (large corpus, wide beam, long patterns below), so a competing
  // worker reaches the admission check while the slot is held.
  db_options.traversal.beam_width = 64;
  db_options.traversal.max_results = 64;
  auto created = VideoDatabase::Create(testing::GeneratedSoccerCatalog(3, 64),
                                       db_options);
  ASSERT_TRUE(created.ok()) << created.status();
  VideoDatabase db = std::move(created).value();

  QueryServerOptions options;
  options.num_workers = 4;
  QueryServer server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  // Fire barrier-synchronized volleys of 8 queries at the single slot
  // until at least one request is shed (bounded, so a broken shedding
  // path fails the test instead of spinning). Shed requests surface as
  // retriable kResourceExhausted typed errors; every client must still
  // recover within its retry budget.
  constexpr int kClients = 8;
  constexpr int kMaxRounds = 500;
  const std::vector<std::string> queries = {
      "free_kick ; goal ; corner_kick ; foul",
      "corner_kick ; goal ; free_kick ; goal_kick",
      "goal ; goal ; foul ; free_kick",
      "foul ; free_kick ; goal ; corner_kick",
      "free_kick ; corner_kick ; goal_kick ; goal",
      "yellow_card ; goal ; free_kick ; foul",
      "goal_kick ; goal ; corner_kick ; free_kick",
      "red_card ; free_kick ; goal ; goal"};
  std::atomic<uint64_t> total_retries{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  int rounds = 0;
  std::barrier sync(kClients, [&]() noexcept {
    if (total_retries.load() > 0 || ++rounds >= kMaxRounds) done.store(true);
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QueryClientOptions client_options = ClientOptions(server.port());
      client_options.max_retries = 64;
      client_options.retry_backoff = std::chrono::milliseconds(1);
      client_options.retry_backoff_cap = std::chrono::milliseconds(2);
      QueryClient client(client_options);
      uint64_t reported = 0;
      for (;;) {
        TemporalQueryRequest request;
        request.text = queries[static_cast<size_t>(c)];
        const auto response = client.TemporalQuery(request);
        if (!response.ok()) {
          ++failures;
          ADD_FAILURE() << response.status().ToString();
        }
        const uint64_t retries = client.retries_performed();
        total_retries += retries - reported;
        reported = retries;
        sync.arrive_and_wait();  // completion fn decides whether to stop
        if (done.load()) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Load shedding must actually have happened (and been retried through).
  EXPECT_GT(total_retries.load(), 0u);
  const std::string metrics = db.DumpMetricsPrometheus();
  EXPECT_NE(metrics.find("hmmm_admission_rejected_total"), std::string::npos);
}

TEST(QueryServerTest, GracefulShutdownDrainsWithoutTornFrames) {
  VideoDatabase db = MakeDatabase();
  QueryServerOptions options;
  options.num_workers = 4;
  QueryServer server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  // 8 clients keep querying while the server shuts down under them.
  // Every call must end in a complete response or a typed/clean error —
  // never a torn frame (CRC / framing / desync errors).
  std::atomic<bool> start{false};
  std::atomic<int> torn{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&] {
      QueryClientOptions client_options = ClientOptions(server.port());
      client_options.max_retries = 0;  // observe raw outcomes
      QueryClient client(client_options);
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < 20; ++i) {
        TemporalQueryRequest request;
        request.text = "free_kick ; goal";
        const auto response = client.TemporalQuery(request);
        if (response.ok()) {
          ++completed;
          continue;
        }
        const Status& status = response.status();
        // Acceptable terminal outcomes while draining: the typed
        // kShuttingDown refusal, a connect refusal after the listener
        // closed, or a clean close. A torn frame would surface as
        // InvalidArgument ("rejected by server"), DataLoss or Internal.
        if (status.code() == StatusCode::kInvalidArgument ||
            status.code() == StatusCode::kDataLoss ||
            status.code() == StatusCode::kInternal) {
          ++torn;
          ADD_FAILURE() << "torn frame: " << status.ToString();
        }
      }
    });
  }
  start.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Shutdown();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(completed.load(), 0);
  EXPECT_FALSE(server.running());
}

TEST(QueryServerTest, HealthReportsDatabaseShape) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  const auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  const VideoDatabase::HealthSnapshot snapshot = db.Health();
  EXPECT_EQ(health->videos, snapshot.videos);
  EXPECT_EQ(health->shots, snapshot.shots);
  EXPECT_EQ(health->annotated_shots, snapshot.annotated_shots);
  EXPECT_EQ(health->model_version, snapshot.model_version);
  EXPECT_FALSE(health->draining);
}

TEST(QueryServerTest, MetricsExposesServerFamilies) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  ASSERT_TRUE(client.TemporalQuery(request).ok());
  const auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->prometheus_text.find("hmmm_server_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->prometheus_text.find("type=\"temporal_query\""),
            std::string::npos);
  EXPECT_NE(metrics->prometheus_text.find("hmmm_server_connections_open"),
            std::string::npos);
}

TEST(QueryServerTest, MetricsScrapeReportsTheSnapshotOpen) {
  // A snapshot opened without a caller-supplied metrics sink records its
  // open into the database's own registry, so the daemon's scrape shows
  // it.
  const std::string path = testing::TempPath("served.hmms");
  {
    VideoDatabase heap = MakeDatabase();
    ASSERT_TRUE(
        heap.WriteSnapshot(path, SnapshotWriteOptions{.generation = 7}).ok());
  }
  auto opened = VideoDatabase::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  VideoDatabase db = std::move(opened).value();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  const auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics->prometheus_text;
  EXPECT_NE(text.find("hmmm_snapshot_generation 7\n"), std::string::npos);
  EXPECT_NE(text.find("hmmm_snapshot_open_ms_count 1\n"), std::string::npos);
  const std::string mapped_bytes =
      "hmmm_snapshot_mapped_bytes " +
      std::to_string(std::filesystem::file_size(path)) + "\n";
  EXPECT_NE(text.find(mapped_bytes), std::string::npos) << text;
}

TEST(QueryServerTest, FeedbackRoundTripTrainsTheModel) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  const auto response = client.TemporalQuery(request);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response->results.empty());

  MarkPositiveRequest mark;
  mark.pattern = response->results[0];
  const auto marked = client.MarkPositive(mark);
  ASSERT_TRUE(marked.ok()) << marked.status().ToString();

  const auto trained = client.Train();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_TRUE(trained->trained);
  EXPECT_EQ(trained->training_rounds, db.training_rounds());
  EXPECT_GT(trained->training_rounds, 0u);
}

TEST(QueryServerTest, QueryByExampleMatchesInProcess) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<double> features = db.catalog().raw_features_of(0);
  const auto expected = db.QueryByExample(features);
  ASSERT_TRUE(expected.ok());

  QueryClient client(ClientOptions(server.port()));
  QbeRequest request;
  request.features = features;
  const auto response = client.QueryByExample(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->results.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(response->results[i].shot, (*expected)[i].shot);
    EXPECT_EQ(response->results[i].similarity, (*expected)[i].similarity);
  }
}

TEST(QueryServerTest, InvalidQueryTextSurfacesTypedNonRetriableError) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client(ClientOptions(server.port()));
  TemporalQueryRequest request;
  request.text = "not_a_soccer_event ;;; nonsense";
  const auto response = client.TemporalQuery(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(client.retries_performed(), 0u);
  // The connection survives a typed error: the next request works.
  request.text = "free_kick ; goal";
  EXPECT_TRUE(client.TemporalQuery(request).ok());
}

// -- Raw-socket tests: pipelining, supersession and the corrupt-frame
// corpus against a live server. ------------------------------------------

StatusOr<std::string> ReadFrame(int fd, FrameHeader* header) {
  const auto deadline = DeadlineAfter(std::chrono::milliseconds(5000));
  char header_bytes[kFrameHeaderBytes];
  HMMM_RETURN_IF_ERROR(
      ReadExact(fd, header_bytes, kFrameHeaderBytes, deadline));
  const WireError framing =
      DecodeFrameHeader(std::string_view(header_bytes, kFrameHeaderBytes),
                        kDefaultMaxFrameBytes, header);
  if (framing != WireError::kNone) {
    return Status::DataLoss("torn response frame");
  }
  std::string payload(header->payload_bytes, '\0');
  if (!payload.empty()) {
    HMMM_RETURN_IF_ERROR(
        ReadExact(fd, payload.data(), payload.size(), deadline));
  }
  if (VerifyFramePayload(*header, payload) != WireError::kNone) {
    return Status::DataLoss("torn response payload");
  }
  return payload;
}

TEST(QueryServerRawTest, PipelinedSupersededGenerationIsNotExecuted) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  auto socket = TcpConnect("127.0.0.1", server.port(),
                           std::chrono::milliseconds(2000));
  ASSERT_TRUE(socket.ok());

  TemporalQueryRequest stale;
  stale.text = "free_kick ; goal";
  stale.cancel_generation = 1;
  TemporalQueryRequest fresh;
  fresh.text = "corner_kick ; goal";
  fresh.cancel_generation = 2;
  // Both frames land in one batch: the superseded one must be answered
  // with kSuperseded (in order) without executing.
  const std::string burst =
      EncodeFrame(MessageType::kTemporalQueryRequest,
                  EncodeTemporalQueryRequest(stale)) +
      EncodeFrame(MessageType::kTemporalQueryRequest,
                  EncodeTemporalQueryRequest(fresh));
  ASSERT_TRUE(WriteAll(socket->fd(), burst,
                       DeadlineAfter(std::chrono::milliseconds(2000)))
                  .ok());

  FrameHeader header;
  auto first = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(header.type, MessageType::kErrorResponse);
  const auto error = DecodeErrorResponse(*first);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kSuperseded);
  EXPECT_FALSE(error->retriable);

  auto second = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(header.type, MessageType::kTemporalQueryResponse);
  const auto decoded = DecodeTemporalQueryResponse(*second);
  ASSERT_TRUE(decoded.ok());
  const auto expected = db.Query("corner_kick ; goal");
  ASSERT_TRUE(expected.ok());
  ExpectSameRanking(*expected, decoded->results);
}

TEST(QueryServerRawTest, UndecodableQueryInAPipelinedBatchIsMalformed) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  auto socket = TcpConnect("127.0.0.1", server.port(),
                           std::chrono::milliseconds(2000));
  ASSERT_TRUE(socket.ok());
  TemporalQueryRequest good;
  good.text = "corner_kick ; goal";
  good.cancel_generation = 1;
  // A well-framed TemporalQuery whose payload does not decode, pipelined
  // in one batch ahead of a good one: the batch's single decode pass
  // must answer it kMalformedPayload and still serve the good one.
  const std::string burst =
      EncodeFrame(MessageType::kTemporalQueryRequest, "garbage") +
      EncodeFrame(MessageType::kTemporalQueryRequest,
                  EncodeTemporalQueryRequest(good));
  const auto deadline = DeadlineAfter(std::chrono::milliseconds(5000));
  ASSERT_TRUE(WriteAll(socket->fd(), burst, deadline).ok());

  FrameHeader header;
  auto first = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(header.type, MessageType::kErrorResponse);
  const auto error = DecodeErrorResponse(*first);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kMalformedPayload);

  auto second = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(header.type, MessageType::kTemporalQueryResponse);
  const auto decoded = DecodeTemporalQueryResponse(*second);
  ASSERT_TRUE(decoded.ok());
  const auto expected = db.Query("corner_kick ; goal");
  ASSERT_TRUE(expected.ok());
  ExpectSameRanking(*expected, decoded->results);

  // The connection stays usable.
  ASSERT_TRUE(
      WriteAll(socket->fd(), EncodeFrame(MessageType::kHealthRequest, ""),
               deadline)
          .ok());
  ASSERT_TRUE(ReadFrame(socket->fd(), &header).ok());
  EXPECT_EQ(header.type, MessageType::kHealthResponse);
}

TEST(QueryServerRawTest, OlderWireVersionGetsTypedRefusal) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  auto socket = TcpConnect("127.0.0.1", server.port(),
                           std::chrono::milliseconds(2000));
  ASSERT_TRUE(socket.ok());
  TemporalQueryRequest request;
  request.text = "free_kick ; goal";
  // A v3 peer's frame: same header layout, older version stamp.
  std::string frame = EncodeFrame(MessageType::kTemporalQueryRequest,
                                   EncodeTemporalQueryRequest(request));
  frame[4] = 3;
  frame[5] = 0;
  const auto deadline = DeadlineAfter(std::chrono::milliseconds(5000));
  ASSERT_TRUE(WriteAll(socket->fd(), frame, deadline).ok());

  FrameHeader header;
  const auto payload = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(header.version, kWireProtocolVersion);
  ASSERT_EQ(header.type, MessageType::kErrorResponse);
  const auto error = DecodeErrorResponse(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kUnsupportedVersion);
  EXPECT_FALSE(error->retriable);
  // Then the server closes: nothing past the header can be trusted.
  char byte;
  EXPECT_EQ(ReadExact(socket->fd(), &byte, 1, deadline).code(),
            StatusCode::kNotFound);
}

TEST(QueryServerRawTest, UnknownRequestTagAnsweredAndConnectionSurvives) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  auto socket = TcpConnect("127.0.0.1", server.port(),
                           std::chrono::milliseconds(2000));
  ASSERT_TRUE(socket.ok());
  const auto deadline = DeadlineAfter(std::chrono::milliseconds(2000));
  ASSERT_TRUE(
      WriteAll(socket->fd(), EncodeFrame(static_cast<MessageType>(77), ""),
               deadline)
          .ok());
  FrameHeader header;
  auto payload = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_EQ(header.type, MessageType::kErrorResponse);
  const auto error = DecodeErrorResponse(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kUnknownMessageType);

  // The stream is still framed: a Health request on the same connection
  // must succeed.
  ASSERT_TRUE(
      WriteAll(socket->fd(), EncodeFrame(MessageType::kHealthRequest, ""),
               deadline)
          .ok());
  payload = ReadFrame(socket->fd(), &header);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(header.type, MessageType::kHealthResponse);
}

TEST(QueryServerRawTest, CorruptFramesGetTypedErrorThenClose) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    const char* name;
    std::string bytes;
    WireError expected;
  };
  std::string bad_magic = EncodeFrame(MessageType::kHealthRequest, "");
  bad_magic[0] = 'X';
  std::string oversized = EncodeFrame(MessageType::kHealthRequest, "");
  oversized[11] = static_cast<char>(0x80);  // 2 GiB payload announced
  std::string bad_crc = EncodeFrame(MessageType::kQbeRequest, "pppp");
  bad_crc[kFrameHeaderBytes] ^= 0x40;
  std::string bad_version = EncodeFrame(MessageType::kHealthRequest, "");
  bad_version[4] = 9;
  const Case cases[] = {
      {"bad magic", bad_magic, WireError::kBadMagic},
      {"oversized length", oversized, WireError::kFrameTooLarge},
      {"bad crc", bad_crc, WireError::kBadCrc},
      {"unsupported version", bad_version, WireError::kUnsupportedVersion},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    auto socket = TcpConnect("127.0.0.1", server.port(),
                             std::chrono::milliseconds(2000));
    ASSERT_TRUE(socket.ok());
    const auto deadline = DeadlineAfter(std::chrono::milliseconds(2000));
    ASSERT_TRUE(WriteAll(socket->fd(), test_case.bytes, deadline).ok());
    FrameHeader header;
    const auto payload = ReadFrame(socket->fd(), &header);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    ASSERT_EQ(header.type, MessageType::kErrorResponse);
    const auto error = DecodeErrorResponse(*payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, test_case.expected);
    // The server closes the connection after a corrupt frame: the next
    // read must see a clean EOF, not a hang or more data.
    char byte;
    const Status eof = ReadExact(socket->fd(), &byte, 1, deadline);
    EXPECT_EQ(eof.code(), StatusCode::kNotFound) << eof.ToString();
  }
  // The server is still healthy for new connections.
  QueryClient client(ClientOptions(server.port()));
  EXPECT_TRUE(client.Health().ok());
}

TEST(QueryServerRawTest, TruncatedFrameThenCloseIsHandledQuietly) {
  VideoDatabase db = MakeDatabase();
  QueryServer server(&db);
  ASSERT_TRUE(server.Start().ok());

  // Send half a header, then disconnect. The server must just drop the
  // connection; it must stay healthy.
  {
    auto socket = TcpConnect("127.0.0.1", server.port(),
                             std::chrono::milliseconds(2000));
    ASSERT_TRUE(socket.ok());
    const std::string frame = EncodeFrame(MessageType::kHealthRequest, "");
    ASSERT_TRUE(WriteAll(socket->fd(), frame.substr(0, 7),
                         DeadlineAfter(std::chrono::milliseconds(2000)))
                    .ok());
  }
  // Same with a complete header but truncated payload.
  {
    auto socket = TcpConnect("127.0.0.1", server.port(),
                             std::chrono::milliseconds(2000));
    ASSERT_TRUE(socket.ok());
    const std::string frame =
        EncodeFrame(MessageType::kQbeRequest, "some payload bytes");
    ASSERT_TRUE(WriteAll(socket->fd(), frame.substr(0, frame.size() - 5),
                         DeadlineAfter(std::chrono::milliseconds(2000)))
                    .ok());
  }
  QueryClient client(ClientOptions(server.port()));
  EXPECT_TRUE(client.Health().ok());
}

}  // namespace
}  // namespace hmmm

#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/trace.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace aic::obs {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "aic_obs_export_" + name + "_" +
         std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition

TEST(OpenMetricsExport, NameSanitization) {
  EXPECT_EQ(openmetrics_name("plan_cache.hit"), "plan_cache_hit");
  EXPECT_EQ(openmetrics_name("io.decode_error.bad_magic"),
            "io_decode_error_bad_magic");
  EXPECT_EQ(openmetrics_name("2fast"), "_2fast");
  // Sanitization is byte-wise: the 3-byte UTF-8 "№" becomes three
  // underscores (space + slash + 3 bytes = 5).
  EXPECT_EQ(openmetrics_name("weird name/№"), "weird_name____");
  EXPECT_EQ(openmetrics_name("already_legal:x9"), "already_legal:x9");
}

// Every line of the exposition must be either a `# TYPE` comment, the
// final `# EOF`, or a `name[{le="..."}] value` sample with a legal
// metric name and a parseable value.
TEST(OpenMetricsExport, GrammarConformance) {
  Registry& registry = Registry::global();
  registry.counter("test.om.requests").add(3);
  registry.gauge("test.om.depth").set(2.5);
  registry.histogram("test.om.lat").record(7);

  const std::string text = openmetrics_text(snapshot_registry());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  const std::regex type_line(
      R"re(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))re");
  const std::regex sample_line(
      R"re([a-zA-Z_:][a-zA-Z0-9_:]*(\{le="([0-9][0-9.e+]*|\+Inf)"\})? \S+)re");
  std::istringstream lines(text);
  std::string line;
  bool saw_counter = false, saw_bucket = false;
  while (std::getline(lines, line)) {
    if (line == "# EOF") continue;
    if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_line)) << line;
      continue;
    }
    ASSERT_TRUE(std::regex_match(line, sample_line)) << line;
    // The value must parse as a finite double.
    const std::string value = line.substr(line.rfind(' ') + 1);
    EXPECT_NO_THROW((void)std::stod(value)) << line;
    if (line.rfind("test_om_requests_total ", 0) == 0) saw_counter = true;
    if (line.rfind("test_om_lat_bucket{", 0) == 0) saw_bucket = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_bucket);
}

// Histogram buckets must be cumulative and monotone with `le` strictly
// increasing, the `+Inf` row equal to `_count`, and `_sum` exact.
TEST(OpenMetricsExport, HistogramBucketsCumulative) {
  Histogram& histogram = Registry::global().histogram("test.om.cumul");
  histogram.reset();
  histogram.record(1);    // bucket 0: [0, 2)
  histogram.record(3);    // bucket 1: [2, 4)
  histogram.record(3);
  histogram.record(100);  // bucket 6: [64, 128)

  const std::string text = openmetrics_text(snapshot_registry());
  std::istringstream lines(text);
  std::string line;
  std::vector<double> les;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count = 0, inf_row = 0;
  std::uint64_t sum = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("test_om_cumul_bucket{le=\"", 0) == 0) {
      const std::size_t start = line.find('"') + 1;
      const std::size_t end = line.find('"', start);
      const std::string le = line.substr(start, end - start);
      const std::uint64_t value = std::stoull(line.substr(line.rfind(' ')));
      if (le == "+Inf") {
        inf_row = value;
      } else {
        les.push_back(std::stod(le));
        cumulative.push_back(value);
      }
    } else if (line.rfind("test_om_cumul_count ", 0) == 0) {
      count = std::stoull(line.substr(line.rfind(' ')));
    } else if (line.rfind("test_om_cumul_sum ", 0) == 0) {
      sum = std::stoull(line.substr(line.rfind(' ')));
    }
  }
  ASSERT_GE(les.size(), 2u);
  for (std::size_t i = 1; i < les.size(); ++i) {
    EXPECT_GT(les[i], les[i - 1]);                    // le strictly increasing
    EXPECT_GE(cumulative[i], cumulative[i - 1]);      // counts monotone
  }
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(inf_row, count);
  EXPECT_EQ(cumulative.back(), count);  // highest bucket holds everything
  EXPECT_EQ(sum, 107u);
  // Spot-check the cumulative semantics: le="2" sees only the 1,
  // le="4" sees 1 and both 3s.
  EXPECT_EQ(cumulative[0], 1u);
  EXPECT_DOUBLE_EQ(les[0], 2.0);
  EXPECT_EQ(cumulative[1], 3u);
}

// ---------------------------------------------------------------------------
// Snapshot ring + exporter

TEST(SnapshotRing, WraparoundKeepsNewestAndSequences) {
  SnapshotRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 10; ++i) ring.push(snapshot_registry());
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 10u);
  const std::vector<MetricsSnapshot> kept = ring.snapshots();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].sequence, 7u + i);  // oldest surviving push is #7
  }
  EXPECT_EQ(ring.latest().sequence, 10u);
}

TEST(Exporter, StartStopIdempotentAndJsonlAppends) {
  const std::string jsonl = temp_path("exporter.jsonl");
  std::remove(jsonl.c_str());

  Exporter& exporter = Exporter::global();
  exporter.stop();  // must be safe when not running

  Exporter::Options options;
  options.interval_ms = 10;
  options.jsonl_path = jsonl;
  ASSERT_TRUE(exporter.start(options));
  EXPECT_FALSE(exporter.start(options));  // second start: no-op
  EXPECT_TRUE(exporter.running());
  EXPECT_GT(exporter.latest().mono_ns, 0u);  // start() samples synchronously

  const std::uint64_t samples_before = exporter.samples_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  exporter.stop();
  exporter.stop();  // idempotent
  EXPECT_FALSE(exporter.running());
  EXPECT_GT(exporter.samples_taken(), samples_before);

  // Every JSONL record is one non-empty {...} line with the snapshot
  // fields.
  std::ifstream file(jsonl);
  ASSERT_TRUE(file.good());
  std::string line;
  std::size_t records = 0;
  while (std::getline(file, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"counters\""), std::string::npos);
    EXPECT_NE(line.find("\"mono_ns\""), std::string::npos);
    ++records;
  }
  EXPECT_GE(records, 1u);
  std::remove(jsonl.c_str());
}

// ---------------------------------------------------------------------------
// HTTP endpoint

TEST(HttpEndpoint, RouteWithoutSocket) {
  std::string body, content_type;
  EXPECT_EQ(HttpServer::route("/healthz", body, content_type, 64), 200);
  EXPECT_EQ(body, "ok\n");

  EXPECT_EQ(HttpServer::route("/metrics", body, content_type, 64), 200);
  EXPECT_EQ(content_type,
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  EXPECT_NE(body.find("# EOF\n"), std::string::npos);

  EXPECT_EQ(HttpServer::route("/tracez", body, content_type, 64), 200);
  EXPECT_NE(body.find("traceEvents"), std::string::npos);

  EXPECT_EQ(HttpServer::route("/nope", body, content_type, 64), 404);
}

#if !defined(_WIN32)

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in address {};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&address),
                sizeof(address)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpEndpoint, LoopbackScrapeSmoke) {
  HttpServer& server = HttpServer::global();
  HttpServer::Options options;
  options.port = 0;  // ephemeral
  ASSERT_TRUE(server.start(options));
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(metrics.find("# EOF\n"), std::string::npos);

  const std::string missing = http_get(port, "/definitely-not-a-route");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

#endif  // !_WIN32

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, CorruptRejectionWritesParseableDump) {
  const std::string path = temp_path("corrupt.aicflight");
  std::remove(path.c_str());

  flight::Options options;
  options.path = path;
  options.dump_on_corrupt = true;
  options.signals = false;
  options.terminate = false;
  flight::disarm();  // reset any prior armed state in this binary
  ASSERT_TRUE(flight::arm(options));
  flight::set_provenance("test_key", "test_value");

  const bool tracing_was_enabled = tracing_enabled();
  set_tracing_enabled(true);
  {
    AIC_TRACE_SCOPE("test.flight.span");
  }

  const std::uint64_t dumps_before = flight::dumps();
  try {
    io::raise_corrupt(io::CorruptKind::kBadMagic, "flight recorder test");
    FAIL() << "raise_corrupt must throw";
  } catch (const io::CorruptStream& error) {
    EXPECT_EQ(error.kind(), io::CorruptKind::kBadMagic);
  }
  EXPECT_EQ(flight::dumps(), dumps_before + 1);

  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << path;
  EXPECT_NE(dump.find("\"format\":\"aicflight\""), std::string::npos);
  EXPECT_NE(dump.find("bad_magic"), std::string::npos);
  EXPECT_NE(dump.find("flight recorder test"), std::string::npos);
  EXPECT_NE(dump.find("test.flight.span"), std::string::npos);
  EXPECT_NE(dump.find("\"test_key\":\"test_value\""), std::string::npos);

  set_tracing_enabled(tracing_was_enabled);
  flight::disarm();
  std::remove(path.c_str());
}

#if !defined(_WIN32)

// A fatal signal must still produce a parseable dump: fork a child that
// arms the recorder and segfaults; the parent checks both the exit
// status and the dump file.
TEST(FlightRecorder, FatalSignalDumpsFromChild) {
  // Quiesce background threads before forking: a thread holding a lock
  // at fork time would deadlock the child.
  Exporter::global().stop();
  HttpServer::global().stop();

  const std::string path = temp_path("segv.aicflight");
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    flight::Options options;
    options.path = path;
    options.terminate = false;
    flight::disarm();
    if (!flight::arm(options)) ::_exit(3);
    ::raise(SIGSEGV);
    ::_exit(4);  // unreachable: the handler re-raises with SIG_DFL
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << path;
  EXPECT_NE(dump.find("\"format\":\"aicflight\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"signal\""), std::string::npos);
  EXPECT_NE(dump.find("\"signal\":11"), std::string::npos);
  std::remove(path.c_str());
}

#endif  // !_WIN32

// ---------------------------------------------------------------------------
// Histogram reset/snapshot coherence

// Writer loops {reset; record 5 a hundred times} while readers snapshot.
// The documented guarantee: a snapshot observes one reset epoch, so
// within it sum(buckets) can never exceed the records of one epoch (100)
// and never undercounts `count` (record bumps bucket before count).
TEST(HistogramCoherence, SnapshotNeverMixesResetEpochs) {
  Histogram& histogram = Registry::global().histogram("test.seqlock.hist");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      histogram.reset();
      for (int i = 0; i < 100; ++i) histogram.record(5);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  std::size_t snapshots_checked = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const HistogramSnapshot snapshot = histogram.snapshot();
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t bucket : snapshot.buckets) bucket_total += bucket;
    EXPECT_LE(bucket_total, 100u);          // one epoch's records at most
    EXPECT_GE(bucket_total, snapshot.count);  // bucket bumps before count
    EXPECT_LE(snapshot.sum, 500u);          // 100 records of value 5
    ++snapshots_checked;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(snapshots_checked, 100u);
}

}  // namespace
}  // namespace aic::obs

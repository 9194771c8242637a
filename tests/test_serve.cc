/**
 * @file
 * End-to-end tests for the lemonsd serving layer, driven over real
 * loopback sockets: routing, the lemons-api/1 error envelopes for
 * every malformed-transport case (truncated body, bad Content-Length,
 * oversized body), admission control (per-tenant quotas, the
 * in-flight bound), graceful drain and its time bound, the idle
 * deadline, and the no-per-request-thread guarantee (handlers ride
 * engine::ThreadPool::global(), so the sim.mc.pool.threads_created
 * counter must stay at the worker count even under concurrent client
 * load, and idle or slow clients must not hold a worker).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"

namespace lemons::serve {
namespace {

class ServeTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        // A peer closing mid-write must surface as EPIPE, not kill
        // the test binary.
        std::signal(SIGPIPE, SIG_IGN);
    }
};

/** Connect to 127.0.0.1:@p port; returns -1 on failure. */
int
connectTo(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    // A test must never hang on a dead server: bound every socket op.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    return fd;
}

/** Read from @p fd until EOF, error or the socket timeout. */
std::string
readAll(int fd)
{
    std::string response;
    char chunk[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        response.append(chunk, static_cast<size_t>(got));
    return response;
}

/** Send @p raw, optionally half-close, then read the full response. */
std::string
exchange(uint16_t port, const std::string &raw, bool halfClose = false)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return "";
    size_t sent = 0;
    while (sent < raw.size()) {
        const ssize_t n =
            ::send(fd, raw.data() + sent, raw.size() - sent, 0);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    if (halfClose)
        ::shutdown(fd, SHUT_WR);
    const std::string response = readAll(fd);
    ::close(fd);
    return response;
}

std::string
post(const std::string &target, const std::string &body,
     const std::string &extraHeaders = "")
{
    return "POST " + target + " HTTP/1.1\r\n" +
           "Host: localhost\r\n" + extraHeaders +
           "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

std::string
get(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

int
statusOf(const std::string &response)
{
    // "HTTP/1.1 200 OK\r\n..."
    if (response.size() < 12)
        return -1;
    return std::atoi(response.c_str() + 9);
}

std::string
bodyOf(const std::string &response)
{
    const size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? "" : response.substr(split + 4);
}

/** Whether any envelope diagnostic carries @p code. */
bool
hasCode(const std::string &body, std::string_view code)
{
    const api::JsonParseResult parsed = api::parseJson(body);
    if (!parsed.ok)
        return false;
    const api::JsonValue *diagnostics = parsed.value.find("diagnostics");
    if (diagnostics == nullptr || !diagnostics->isArray())
        return false;
    for (const api::JsonValue &finding : diagnostics->items()) {
        const api::JsonValue *member = finding.find("code");
        if (member != nullptr && member->asString() == code)
            return true;
    }
    return false;
}

/** Milliseconds since @p start. */
double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Poll server.inflight() for up to 2 s until it equals @p want. */
bool
awaitInflight(const Server &server, size_t want)
{
    for (int spins = 0; spins < 200; ++spins) {
        if (server.inflight() == want)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return server.inflight() == want;
}

constexpr const char *kSolveBody =
    R"({"alpha": 10, "beta": 12, "lab": 91250})";

constexpr const char *kLintBody =
    R"({"spec": "[structure]\nkind = parallel\nn = 4\nk = 2\n"})";

TEST_F(ServeTest, HealthzReportsServing)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/healthz"));
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(bodyOf(response).find("\"serving\""), std::string::npos);
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
    server.stop();
}

TEST_F(ServeTest, SolveRoundTrip)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string body =
        R"({"alpha": 10, "beta": 12, "lab": 91250})";
    const std::string response =
        exchange(server.boundPort(), post("/v1/solve", body));
    EXPECT_EQ(statusOf(response), 200);
    const api::JsonParseResult parsed = api::parseJson(bodyOf(response));
    ASSERT_TRUE(parsed.ok) << bodyOf(response);
    EXPECT_TRUE(parsed.value.find("ok")->asBool());
    EXPECT_TRUE(parsed.value.find("result")->isObject());
    server.stop();
}

TEST_F(ServeTest, UnknownTargetIs404S003)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/nope"));
    EXPECT_EQ(statusOf(response), 404);
    EXPECT_TRUE(hasCode(bodyOf(response), "S003"));
    server.stop();
}

TEST_F(ServeTest, WrongMethodIs405WithAllow)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/solve"));
    EXPECT_EQ(statusOf(response), 405);
    EXPECT_NE(response.find("Allow: POST"), std::string::npos);
    EXPECT_TRUE(hasCode(bodyOf(response), "S004"));
    server.stop();
}

TEST_F(ServeTest, TruncatedBodyIs400)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    // Declares 100 bytes, delivers 4, half-closes.
    const std::string raw = "POST /v1/lint HTTP/1.1\r\n"
                            "Content-Length: 100\r\n\r\nfour";
    const std::string response =
        exchange(server.boundPort(), raw, /*halfClose=*/true);
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_TRUE(hasCode(bodyOf(response), "S006"));
    server.stop();
}

TEST_F(ServeTest, BadContentLengthIs400)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string raw = "POST /v1/lint HTTP/1.1\r\n"
                            "Content-Length: banana\r\n\r\n";
    const std::string response =
        exchange(server.boundPort(), raw, /*halfClose=*/true);
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_TRUE(hasCode(bodyOf(response), "S006"));
    server.stop();
}

TEST_F(ServeTest, OversizedBodyIs413S005)
{
    ServerOptions options;
    options.http.maxBodyBytes = 64;
    Server server(options);
    ASSERT_TRUE(server.start());
    const std::string big(1000, 'x');
    const std::string response =
        exchange(server.boundPort(), post("/v1/lint", big));
    EXPECT_EQ(statusOf(response), 413);
    EXPECT_TRUE(hasCode(bodyOf(response), "S005"));
    server.stop();
}

TEST_F(ServeTest, TenantQuotaIs429WithRetryAfter)
{
    ServerOptions options;
    options.quota.ratePerSecond = 0.001; // ~17 min per token
    options.quota.burst = 1.0;
    Server server(options);
    ASSERT_TRUE(server.start());
    const std::string request =
        post("/v1/lint", kLintBody, "X-Lemons-Tenant: ci-fleet-a\r\n");
    EXPECT_EQ(statusOf(exchange(server.boundPort(), request)), 200);
    const std::string denied = exchange(server.boundPort(), request);
    EXPECT_EQ(statusOf(denied), 429);
    EXPECT_NE(denied.find("Retry-After: "), std::string::npos);
    EXPECT_TRUE(hasCode(bodyOf(denied), "S007"));
    // A different tenant still has a full bucket.
    const std::string other =
        post("/v1/lint", kLintBody, "X-Lemons-Tenant: ci-fleet-b\r\n");
    EXPECT_EQ(statusOf(exchange(server.boundPort(), other)), 200);
    server.stop();
}

TEST_F(ServeTest, InflightBoundIs503S009)
{
    ServerOptions options;
    options.maxInflight = 0; // reject every admission attempt
    Server server(options);
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/healthz"));
    EXPECT_EQ(statusOf(response), 503);
    EXPECT_NE(response.find("Retry-After: "), std::string::npos);
    EXPECT_TRUE(hasCode(bodyOf(response), "S009"));
    server.stop();
}

TEST_F(ServeTest, GracefulDrainAnswersInflightWithS008)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());

    // Open a connection and deliver only the head: the handler is now
    // in flight, blocked reading the body.
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    const std::string body = kLintBody;
    const std::string head = "POST /v1/lint HTTP/1.1\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n";
    ASSERT_EQ(::send(fd, head.data(), head.size(), 0),
              static_cast<ssize_t>(head.size()));
    for (int spins = 0; server.inflight() == 0 && spins < 200; ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(server.inflight(), 1u);

    // Drain while the request is in flight, then let it complete: the
    // response must be the 503 + S008 drain envelope, not a hang.
    server.beginDrain();
    EXPECT_TRUE(server.draining());
    ASSERT_EQ(::send(fd, body.data(), body.size(), 0),
              static_cast<ssize_t>(body.size()));
    std::string response;
    char chunk[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        response.append(chunk, static_cast<size_t>(got));
    ::close(fd);
    EXPECT_EQ(statusOf(response), 503);
    EXPECT_TRUE(hasCode(bodyOf(response), "S008"));

    server.waitDrained();
    EXPECT_EQ(server.inflight(), 0u);
    server.stop();
}

TEST_F(ServeTest, ConcurrentClientsNeverSpawnRequestThreads)
{
    // The whole point of riding ThreadPool::global(): the pool grows
    // to the configured worker count once and never per request. Runs
    // the same load at 1, 2, and 8 workers; after all three, the
    // process has created at most 8 pool threads ever.
    for (const unsigned workers : {1u, 2u, 8u}) {
        ServerOptions options;
        options.workers = workers;
        options.quota.ratePerSecond = 0.0; // load test, not a quota test
        Server server(options);
        ASSERT_TRUE(server.start());

        constexpr int kClients = 8;
        constexpr int kRequestsPerClient = 4;
        std::vector<std::string> failures;
        std::mutex failuresMu;
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                for (int r = 0; r < kRequestsPerClient; ++r) {
                    const std::string response = exchange(
                        server.boundPort(), post("/v1/lint", kLintBody));
                    if (statusOf(response) != 200) {
                        const std::lock_guard<std::mutex> lock(failuresMu);
                        failures.push_back(
                            "client " + std::to_string(c) + " got: " +
                            response.substr(0, 64));
                    }
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        EXPECT_TRUE(failures.empty())
            << failures.size() << " failed, first: " << failures[0];
        server.stop();
    }

    EXPECT_LE(
        obs::Registry::global().counter("sim.mc.pool.threads_created").get(),
        8u);
}

TEST_F(ServeTest, DrainAnswersNewConnectionsWithS008)
{
    // A connection that arrives during the grace period is answered,
    // not left in the listen backlog until stop() resets it.
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    server.beginDrain();
    const auto start = std::chrono::steady_clock::now();
    const std::string response =
        exchange(server.boundPort(), post("/v1/solve", kSolveBody));
    EXPECT_LT(msSince(start), 1000.0);
    EXPECT_EQ(statusOf(response), 503);
    EXPECT_TRUE(hasCode(bodyOf(response), "S008"));
    server.stop();
}

TEST_F(ServeTest, DrainGraceBoundsStopForStalledSender)
{
    ServerOptions options;
    options.drainGrace = std::chrono::milliseconds(100);
    Server server(options);
    ASSERT_TRUE(server.start());

    // Half a head, then silence: the request can never complete.
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    const std::string half = "POST /v1/solve HTTP/1.1\r\nContent-Le";
    ASSERT_EQ(::send(fd, half.data(), half.size(), 0),
              static_cast<ssize_t>(half.size()));
    ASSERT_TRUE(awaitInflight(server, 1));

    const auto start = std::chrono::steady_clock::now();
    server.stop();
    EXPECT_LT(msSince(start), 1000.0);
    EXPECT_EQ(server.inflight(), 0u);

    const std::string response = readAll(fd);
    ::close(fd);
    if (!response.empty()) {
        EXPECT_EQ(statusOf(response), 503);
        EXPECT_TRUE(hasCode(bodyOf(response), "S008"));
    }
}

TEST_F(ServeTest, IdleConnectionsDoNotPinWorkers)
{
    ServerOptions options;
    options.workers = 1;
    Server server(options);
    ASSERT_TRUE(server.start());
    const uint64_t threadsBefore =
        obs::Registry::global().counter("sim.mc.pool.threads_created").get();

    // Eight silent connections and one that trickles a header that
    // never ends: none of them may hold the only worker.
    std::vector<int> idle;
    for (int c = 0; c < 8; ++c) {
        idle.push_back(connectTo(server.boundPort()));
        ASSERT_GE(idle.back(), 0);
    }
    const int slow = connectTo(server.boundPort());
    ASSERT_GE(slow, 0);
    std::atomic<bool> trickling{true};
    std::thread trickler([&] {
        const std::string head = "POST /v1/solve HTTP/1.1\r\nX-Pad: ";
        for (size_t i = 0; trickling.load(); ++i) {
            const char byte = i < head.size() ? head[i] : 'a';
            if (::send(slow, &byte, 1, 0) != 1)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    ASSERT_TRUE(awaitInflight(server, 9));

    const auto start = std::chrono::steady_clock::now();
    const std::string response =
        exchange(server.boundPort(), post("/v1/solve", kSolveBody));
    EXPECT_LT(msSince(start), 2000.0);
    EXPECT_EQ(statusOf(response), 200);

    trickling.store(false);
    trickler.join();
    ::close(slow);
    for (const int fd : idle)
        ::close(fd);
    server.stop();
    EXPECT_EQ(
        obs::Registry::global().counter("sim.mc.pool.threads_created").get(),
        threadsBefore);
}

TEST_F(ServeTest, IdleDeadlineClosesSilentConnection)
{
    ServerOptions options;
    options.socketTimeout = std::chrono::milliseconds(200);
    Server server(options);
    ASSERT_TRUE(server.start());

    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    const auto start = std::chrono::steady_clock::now();
    const std::string response = readAll(fd);
    ::close(fd);
    EXPECT_LT(msSince(start), 1000.0);
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_TRUE(hasCode(bodyOf(response), "S006"));
    EXPECT_TRUE(awaitInflight(server, 0));
    server.stop();
}

} // namespace
} // namespace lemons::serve

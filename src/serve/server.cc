#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>

#include "api/codec.h"
#include "engine/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lemons::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Envelope carrying exactly one S-code diagnostic. */
std::string
errorEnvelope(lint::Code code, const std::string &message,
              const std::string &hint = "")
{
    lint::Report report;
    report.add(code, "request", "", message, hint);
    return api::renderEnvelope(report);
}

/** A response whose envelope carries exactly one S-code diagnostic. */
HttpResponse
errorReply(int status, lint::Code code, const std::string &message)
{
    HttpResponse response;
    response.status = status;
    response.body = errorEnvelope(code, message);
    return response;
}

/** 503 + S008: the server is draining and takes no new request. */
HttpResponse
drainReply()
{
    LEMONS_OBS_INCREMENT("serve.rejected.drain");
    return errorReply(503, lint::Code::S008,
                      "server is draining: new requests refused");
}

/** Count @p response under serve.responses.<class>, then render it. */
std::string
finalize(const HttpResponse &response)
{
    LEMONS_OBS_INCREMENT("serve.responses");
    if (response.status < 300)
        LEMONS_OBS_INCREMENT("serve.responses.2xx");
    else if (response.status < 500)
        LEMONS_OBS_INCREMENT("serve.responses.4xx");
    else
        LEMONS_OBS_INCREMENT("serve.responses.5xx");
    std::string rendered = renderResponse(response);
    LEMONS_OBS_COUNT("serve.bytes_out",
                     static_cast<uint64_t>(rendered.size()));
    return rendered;
}

} // namespace

Server::Server(ServerOptions options)
    : opts(std::move(options)), quota(opts.quota)
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    const auto failWith = [&](const char *what) {
        if (error != nullptr)
            *error = std::string(what) + ": " + std::strerror(errno);
        for (int *fd : {&listenFd, &wakeFd}) {
            if (*fd >= 0)
                ::close(*fd);
            *fd = -1;
        }
        return false;
    };

    wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd < 0)
        return failWith("eventfd");
    listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
    if (listenFd < 0)
        return failWith("socket");

    const int enable = 1;
    setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    if (::inet_pton(AF_INET, opts.address.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return failWith("inet_pton");
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return failWith("bind");
    if (::listen(listenFd, 64) != 0)
        return failWith("listen");

    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&bound),
                      &boundLen) != 0)
        return failWith("getsockname");
    listenPort = ntohs(bound.sin_port);

    // Pre-grow the pool so the first burst of requests runs
    // concurrently instead of serializing behind worker creation.
    engine::ThreadPool::global().submit([] {}, opts.workers);

    // The one thread lemonsd owns moves every socket byte; it blocks
    // in poll(), so it must not occupy a pool worker.
    // LEMONS-TIDY-ALLOW(T001): the reactor, not a request handler
    reactor = std::thread([this] { reactorLoop(); });
    return true;
}

void
Server::reactorLoop()
{
    std::vector<pollfd> watched;
    for (;;) {
        // Watch the sockets the reactor waits on; the poll timeout is
        // the earliest idle deadline among them (none: block).
        const Clock::time_point start = Clock::now();
        int timeoutMs = -1;
        watched.assign({{wakeFd, POLLIN, 0}, {listenFd, POLLIN, 0}});
        for (const auto &[fd, conn] : connections) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                conn.deadline - start);
            timeoutMs = static_cast<int>(std::clamp<int64_t>(
                left.count(), 0, timeoutMs < 0 ? INT_MAX : timeoutMs));
            watched.push_back(
                {fd, conn.out.empty() ? short{POLLIN} : short{POLLOUT}, 0});
        }
        ::poll(watched.data(), watched.size(), timeoutMs);

        // Clear the wake-up *before* reading the state it announces:
        // a stop, completion or grace expiry posted after this read
        // leaves the eventfd set for the next poll, so none is lost.
        eventfd_t wakes = 0;
        eventfd_read(wakeFd, &wakes);
        if (stopRequested.load(std::memory_order_acquire))
            break;
        std::vector<std::pair<int, std::string>> done;
        bool expired = false;
        {
            std::lock_guard<std::mutex> lock(mu);
            done.swap(completions);
            expired = graceExpired;
        }
        for (auto &[fd, bytes] : done) {
            connections.emplace(fd, opts.http).first->second.admitted = true;
            send(fd, std::move(bytes));
        }

        const Clock::time_point now = Clock::now();
        for (size_t i = 2; i < watched.size(); ++i) {
            const int fd = watched[i].fd;
            if (watched[i].revents != 0)
                watched[i].events == POLLIN ? receive(fd) : send(fd, {});
            const auto it = connections.find(fd);
            if (it == connections.end())
                continue;
            // After the drain grace no client may hold the drain up.
            if (!expired && it->second.deadline > now)
                continue;
            if (!it->second.out.empty())
                closeConnection(fd);
            else if (expired)
                send(fd, finalize(drainReply()));
            else
                send(fd, finalize(errorReply(400, lint::Code::S006,
                                             "request never completed")));
        }
        if ((watched[1].revents & POLLIN) != 0)
            acceptPending();
    }

    // Only unadmitted rejections can still be open here.
    while (!connections.empty())
        closeConnection(connections.begin()->first);
}

void
Server::acceptPending()
{
    int fd = -1;
    while ((fd = ::accept4(listenFd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0) {
        LEMONS_OBS_INCREMENT("serve.accepted");
        Connection &conn = connections.emplace(fd, opts.http).first->second;
        conn.deadline = Clock::now() + opts.socketTimeout;
        const bool refuse = draining();
        {
            std::lock_guard<std::mutex> lock(mu);
            conn.admitted = !refuse && inflightCount < opts.maxInflight;
            inflightCount += conn.admitted ? 1 : 0;
        }
        if (refuse) {
            send(fd, finalize(drainReply()));
        } else if (!conn.admitted) {
            // Shed load here, without the workers it is waiting on.
            LEMONS_OBS_INCREMENT("serve.rejected.queue");
            HttpResponse response =
                errorReply(503, lint::Code::S009,
                           "admission queue is full; retry shortly");
            response.headers.emplace_back("Retry-After", "1");
            send(fd, finalize(response));
        }
    }
}

void
Server::receive(int fd)
{
    Connection &conn = connections.at(fd);
    RequestParser &parser = conn.parser;
    char chunk[4096];
    while (!parser.complete() && !parser.failed()) {
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EAGAIN)
            return;
        if (got <= 0) {
            // Peer closed or reset: whatever arrived is all there is.
            parser.finish();
            break;
        }
        conn.deadline = Clock::now() + opts.socketTimeout;
        LEMONS_OBS_COUNT("serve.bytes_in", static_cast<uint64_t>(got));
        parser.feed(std::string_view(chunk, static_cast<size_t>(got)));
    }

    if (parser.failed()) {
        LEMONS_OBS_INCREMENT("serve.rejected.malformed");
        send(fd, finalize(errorReply(parser.errorStatus(),
                                     parser.errorCode(),
                                     parser.errorMessage())));
        return;
    }
    // The pool owns the socket until the response comes back.
    engine::ThreadPool::global().submit(
        [this, fd, request = parser.request()] {
            LEMONS_OBS_SCOPED_TIMER("serve.request");
            std::string bytes = finalize(route(request));
            // Wake under the lock: once the reactor can see the
            // completion, the server may be destroyed.
            std::lock_guard<std::mutex> lock(mu);
            completions.emplace_back(fd, std::move(bytes));
            eventfd_write(wakeFd, 1);
        },
        opts.workers);
    connections.erase(fd);
}

void
Server::send(int fd, std::string bytes)
{
    Connection &conn = connections.at(fd);
    conn.out += bytes;
    conn.deadline = Clock::now() + opts.socketTimeout;
    while (!conn.out.empty()) {
        const ssize_t wrote =
            ::send(fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
        if (wrote < 0 && errno == EAGAIN)
            return;
        if (wrote <= 0)
            break; // peer gone: nothing left to do
        conn.out.erase(0, static_cast<size_t>(wrote));
    }
    closeConnection(fd);
}

void
Server::closeConnection(int fd)
{
    const auto it = connections.find(fd);
    if (it->second.admitted) {
        std::lock_guard<std::mutex> lock(mu);
        if (--inflightCount == 0)
            idle.notify_all();
    }
    connections.erase(it);
    ::close(fd);
}

size_t
Server::inflight() const
{
    std::lock_guard<std::mutex> lock(mu);
    return inflightCount;
}

HttpResponse
Server::route(const HttpRequest &request)
{
    HttpResponse response;
    try {
        LEMONS_OBS_INCREMENT("serve.requests");

        // Drain check happens per-request so a connection admitted
        // just before beginDrain() still gets a clean 503, not a reset.
        if (draining() && request.target != "/v1/healthz" &&
            request.target != "/metrics")
            return drainReply();

        const bool isGet = request.method == "GET";
        const bool isPost = request.method == "POST";
        const auto methodNotAllowed = [&](const char *allow) {
            response.status = 405;
            response.headers.emplace_back("Allow", allow);
            response.body = errorEnvelope(
                lint::Code::S004,
                request.method + " is not allowed on " + request.target,
                std::string("use ") + allow);
        };

        if (request.target == "/v1/healthz") {
            if (!isGet) {
                methodNotAllowed("GET");
                return response;
            }
            lint::Report empty;
            const bool drainingNow = draining();
            response.body = api::renderEnvelope(
                empty, [drainingNow](obs::JsonWriter &json) {
                    json.beginObject();
                    json.key("status");
                    json.value(drainingNow ? "draining" : "serving");
                    json.endObject();
                });
            return response;
        }

        if (request.target == "/metrics") {
            if (!isGet) {
                methodNotAllowed("GET");
                return response;
            }
            response.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            response.body = obs::Registry::global().toPrometheus();
            return response;
        }

        const bool knownPost = request.target == "/v1/solve" ||
            request.target == "/v1/lint" ||
            request.target == "/v1/verify" ||
            request.target == "/v1/analyze" ||
            request.target == "/v1/mc/run";
        if (!knownPost) {
            response.status = 404;
            response.body = errorEnvelope(
                lint::Code::S003,
                "no endpoint at \"" + request.target + "\"",
                "known endpoints: /v1/solve /v1/lint /v1/verify "
                "/v1/analyze /v1/mc/run /v1/healthz /metrics");
            return response;
        }
        if (!isPost) {
            methodNotAllowed("POST");
            return response;
        }

        // Per-tenant quota, keyed on the cooperative tenant header.
        const std::string *tenantHeader =
            request.header("x-lemons-tenant");
        const std::string tenant =
            tenantHeader != nullptr ? *tenantHeader : std::string();
        const TenantQuota::Decision decision = quota.admit(tenant);
        if (!decision.admitted) {
            LEMONS_OBS_INCREMENT("serve.rejected.quota");
            response.status = 429;
            const long waitSeconds = std::lround(
                std::ceil(decision.retryAfterSeconds));
            response.headers.emplace_back(
                "Retry-After",
                std::to_string(waitSeconds < 1 ? 1 : waitSeconds));
            response.body = errorEnvelope(
                lint::Code::S007,
                "request quota exhausted for tenant \"" + tenant + "\"",
                "retry after the Retry-After interval, or spread "
                "load across tenants");
            return response;
        }

        api::ServiceResult result;
        if (request.target == "/v1/solve") {
            result = service.solve(request.body);
        } else if (request.target == "/v1/lint") {
            result = service.lint(request.body);
        } else if (request.target == "/v1/verify") {
            result = service.verify(request.body);
        } else if (request.target == "/v1/analyze") {
            result = service.analyze(request.body);
        } else {
            api::McExecution exec;
            exec.cancel = &drainCancel;
            exec.deadline =
                std::chrono::steady_clock::now() + opts.mcDeadline;
            result = service.mcRun(request.body, exec);
        }
        response.status = result.status;
        response.body = std::move(result.body);
        return response;
    } catch (const std::exception &fault) {
        LEMONS_OBS_INCREMENT("serve.errors.internal");
        response.status = 500;
        response.headers.clear();
        response.body = errorEnvelope(
            lint::Code::S012,
            std::string("internal error: ") + fault.what());
        return response;
    } catch (...) {
        LEMONS_OBS_INCREMENT("serve.errors.internal");
        response.status = 500;
        response.headers.clear();
        response.body =
            errorEnvelope(lint::Code::S012, "internal error");
        return response;
    }
}

void
Server::beginDrain()
{
    drainRequested.store(true, std::memory_order_release);
}

void
Server::waitDrained()
{
    beginDrain();
    std::unique_lock<std::mutex> lock(mu);
    if (!idle.wait_for(lock, opts.drainGrace,
                       [this] { return inflightCount == 0; })) {
        // Grace expired: stop Monte Carlo runs at their next wave
        // and answer every connection still receiving its request.
        LEMONS_OBS_INCREMENT("serve.drain.cancelled");
        drainCancel.cancel();
        graceExpired = true;
        eventfd_write(wakeFd, 1);
        idle.wait(lock, [this] { return inflightCount == 0; });
    }
}

void
Server::stop()
{
    if (!reactor.joinable())
        return;
    waitDrained();
    stopRequested.store(true, std::memory_order_release);
    eventfd_write(wakeFd, 1);
    reactor.join();
    ::close(listenFd);
    ::close(wakeFd);
    listenFd = wakeFd = -1;
}

} // namespace lemons::serve

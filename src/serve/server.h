/**
 * @file
 * lemonsd — the lemons designs-as-a-service HTTP server.
 *
 * One reactor thread owns the listening socket and every accepted
 * socket, all non-blocking and watched with poll() plus an eventfd
 * for wake-ups. It feeds each socket's bytes to that connection's
 * incremental RequestParser and hands only a *complete* request to
 * engine::ThreadPool::global().submit(). The worker routes the
 * request, renders the response, and queues the bytes back to the
 * reactor, which writes them non-blocking and closes the socket. A
 * pool worker is therefore busy only for compute: a slow or idle
 * client costs one fd and a parser buffer, never a worker, and no
 * per-request thread is ever created (`sim.mc.pool.threads_created`
 * stays flat under load). The `serve.request` timer measures the
 * worker's hold only: route plus render (and queueing the bytes
 * back); socket time, slow senders included, is not in it.
 *
 * socketTimeout is each connection's idle deadline: the time since
 * the last byte moved in either direction. A connection that stalls
 * past it while sending its request is answered 400 + S006; one that
 * stalls while its response is being written is closed.
 *
 * Admission control happens in three layers before a handler runs:
 *
 *   1. in-flight bound — more than maxInflight admitted connections
 *      (receiving, computing or writing) answers 503 + S009 straight
 *      from the reactor,
 *   2. drain state — once beginDrain() is called new connections get
 *      503 + S008 while in-flight requests finish,
 *   3. per-tenant token buckets — the X-Lemons-Tenant header names a
 *      bucket; an empty one answers 429 + S007 with a Retry-After.
 *
 * Graceful drain, in order: beginDrain() makes the reactor answer
 * every new connection 503 + S008; waitDrained() waits drainGrace for
 * admitted requests to finish on their own, then fires the server's
 * CancelToken (in-flight /v1/mc/run executions stop at the next wave
 * boundary with a partial, interrupted-flagged, still well-formed
 * response) and has the reactor answer every connection still
 * receiving its request 503 + S008 and close every connection whose
 * response the peer has not yet taken; stop() then ends the reactor.
 * No client, sending or reading, holds the drain past the grace.
 *
 * Endpoints:
 *   POST /v1/solve    design-space solver        (lemons-api/1)
 *   POST /v1/lint     design-rule findings       (lemons-api/1)
 *   POST /v1/verify   static-verifier findings   (lemons-api/1)
 *   POST /v1/analyze  wear-budget analysis       (lemons-api/1)
 *   POST /v1/mc/run   Monte Carlo over [structure] sections
 *   GET  /v1/healthz  liveness + drain state
 *   GET  /metrics     Prometheus text exposition of the obs registry
 */

#ifndef LEMONS_SERVE_SERVER_H_
#define LEMONS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/service.h"
#include "engine/engine.h"
#include "serve/http.h"
#include "serve/quota.h"

namespace lemons::serve {

/** Everything configurable about one lemonsd instance. */
struct ServerOptions
{
    /** Bind address (IPv4 dotted quad). */
    std::string address = "127.0.0.1";
    /** Bind port; 0 asks the kernel for an ephemeral one. */
    uint16_t port = 0;
    /** Pool workers to provision for concurrent handlers. */
    unsigned workers = 2;
    /** Request-size limits enforced while bytes arrive. */
    HttpLimits http{};
    /** Admitted-but-unfinished connection bound (S009 above it). */
    size_t maxInflight = 64;
    /** Per-tenant token buckets; ratePerSecond <= 0 disables. */
    QuotaOptions quota{};
    /** How long waitDrained() lets in-flight requests finish before
     *  firing the cancel token. */
    std::chrono::milliseconds drainGrace{2000};
    /** Idle deadline per connection: the longest gap between bytes
     *  moving in either direction. */
    std::chrono::milliseconds socketTimeout{10000};
    /** Wall-clock budget for one /v1/mc/run execution. */
    std::chrono::milliseconds mcDeadline{30000};
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and start the reactor. Returns false (with the
     * OS error in @p error) when the socket cannot be set up.
     */
    bool start(std::string *error = nullptr);

    /** The bound port (resolves ephemeral binds); 0 before start(). */
    uint16_t boundPort() const { return listenPort; }

    /** Whether beginDrain() has been called. */
    bool draining() const
    {
        return drainRequested.load(std::memory_order_acquire);
    }

    /** Answer new connections 503 + S008; in-flight requests
     *  continue. */
    void beginDrain();

    /**
     * Block until every admitted connection has been answered: waits
     * drainGrace for voluntary completion, then cancels in-flight
     * Monte Carlo runs, answers connections still receiving with
     * 503 + S008, closes those still writing, and waits for the (now
     * prompt) remainder.
     */
    void waitDrained();

    /** beginDrain + waitDrained + stop the reactor and close the
     *  listening socket. */
    void stop();

    /** Connections admitted and not yet answered (tests/metrics). */
    size_t inflight() const;

  private:
    /** A socket the reactor is reading from or writing to; only the
     *  reactor thread touches it. While a worker computes the
     *  response, the socket is in no Connection. */
    struct Connection
    {
        explicit Connection(const HttpLimits &limits) : parser(limits) {}

        RequestParser parser;
        /** Counted in inflightCount (rejections at accept are not). */
        bool admitted = false;
        /** Response bytes not yet written; empty while receiving. */
        std::string out;
        std::chrono::steady_clock::time_point deadline;
    };

    void reactorLoop();
    void acceptPending();
    void receive(int fd);
    /** Append @p bytes to @p fd's response and write what the
     *  socket takes; closes the connection once all is written. */
    void send(int fd, std::string bytes);
    void closeConnection(int fd);
    /** Route one parsed request to a handler; never throws. */
    HttpResponse route(const HttpRequest &request);

    ServerOptions opts;
    api::Service service;
    TenantQuota quota;

    int listenFd = -1;
    int wakeFd = -1;
    uint16_t listenPort = 0;
    std::atomic<bool> drainRequested{false};
    std::atomic<bool> stopRequested{false};

    engine::CancelToken drainCancel;

    /** Reactor-thread state: the watched sockets by fd. */
    std::unordered_map<int, Connection> connections;

    mutable std::mutex mu;
    std::condition_variable idle;
    size_t inflightCount = 0;
    /** Responses rendered by workers, waiting for the reactor. */
    std::vector<std::pair<int, std::string>> completions;
    bool graceExpired = false;

    std::thread reactor;
};

} // namespace lemons::serve

#endif // LEMONS_SERVE_SERVER_H_

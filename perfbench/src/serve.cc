/**
 * @file
 * `serve` and `serve_slow`: an in-process lemonsd (serve::Server with
 * its default 2 workers) under closed-loop load from one generator
 * thread.
 *
 * Two prompt callers each keep exactly one request in flight, one
 * request per connection (lemonsd closes after every response). Every
 * caller names its own X-Lemons-Tenant and the quota is set high
 * enough never to refuse: the default 10 req/s per tenant would answer
 * the benchmark's own traffic with 429s. `serve_slow` adds one more
 * caller that sends each request in small pieces spread over
 * kSlowSpread, like a client on a slow link; today that pins one pool
 * worker in recv() for the whole spread.
 *
 * The request mix is seeded per caller and dealt from shuffled decks
 * of 20 requests. No measured lemonsd traffic exists, so the mix is
 * synthetic; README.md states the rule behind each weight and how the
 * gated metrics moved under two other mixes:
 *   /v1/solve    8  half one of 8 hot bodies, half fresh grid points
 *   /v1/lint     2  example specs
 *   /v1/verify   2  example specs
 *   /v1/analyze  2  example specs
 *   /v1/mc/run   3  paper_defaults.lemons, 16 bodies with trials
 *                   stepping 1024-4096 and threads alternating 1, 2
 *   /v1/healthz  3
 *
 * The client checks each response as it arrives and keeps only a pass
 * flag, the body id, the latency and the body hash, so what the
 * benchmark holds grows by 48 bytes per request; solve and mc/run
 * hashes are compared with the in-process api::Service after the
 * windows.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/json.h"
#include "api/service.h"
#include "reference.h"
#include "serve/http.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace lemons;

constexpr int kPromptCallers = 2;
/** Prompt responses per batch, the unit of wall_s and cpu_s. */
constexpr size_t kBatchRequests = 50;
/** Untimed closed-loop load before the first measured window. */
constexpr double kWarmupSeconds = 1.0;
/** A prompt response slower than this misses the goodput count. */
constexpr double kLatencyLimitMs = 250.0;
/** serve_slow: one request's bytes are spread over this interval. */
constexpr double kSlowSpreadSeconds = 1.0;
constexpr size_t kSlowPieceBytes = 16;
/** Distinct /v1/mc/run bodies in the mix. */
constexpr uint64_t kMcBodies = 16;

enum class Endpoint { Solve, Lint, Verify, Analyze, McRun, Healthz };

const char *
endpointName(Endpoint endpoint)
{
    switch (endpoint) {
    case Endpoint::Solve: return "solve";
    case Endpoint::Lint: return "lint";
    case Endpoint::Verify: return "verify";
    case Endpoint::Analyze: return "analyze";
    case Endpoint::McRun: return "mc_run";
    case Endpoint::Healthz: return "healthz";
    }
    return "?";
}

const char *
endpointPath(Endpoint endpoint)
{
    switch (endpoint) {
    case Endpoint::Solve: return "/v1/solve";
    case Endpoint::Lint: return "/v1/lint";
    case Endpoint::Verify: return "/v1/verify";
    case Endpoint::Analyze: return "/v1/analyze";
    case Endpoint::McRun: return "/v1/mc/run";
    case Endpoint::Healthz: return "/v1/healthz";
    }
    return "/";
}

/** One generated request: endpoint, which of its bodies, and that
 *  JSON body (empty for GET). */
struct Request
{
    Endpoint endpoint = Endpoint::Healthz;
    /** Names the body within the endpoint; Inputs::body() rebuilds it. */
    uint64_t id = 0;
    std::string body;
};

/** Requests per endpoint in every deck of 20. README.md ("Request
 *  mix") gives the rule behind each weight. */
constexpr std::pair<Endpoint, size_t> kMix[] = {
    {Endpoint::Solve, 8},  {Endpoint::Lint, 2},  {Endpoint::Verify, 2},
    {Endpoint::Analyze, 2}, {Endpoint::McRun, 3}, {Endpoint::Healthz, 3},
};
/** Share of solves that repeat one of the hot bodies. */
constexpr double kSolveRepeatShare = 0.5;

/** A /v1/solve body over the parameter grid; @p lab varies freely. */
std::string
solveBody(InputRng &rng)
{
    static const char *const kFractions[] = {"0.1", "0.2", "0.3"};
    static const int kBetas[] = {4, 8, 12};
    const uint64_t alpha = 10 + rng.below(11);
    const int beta = kBetas[rng.below(3)];
    const uint64_t lab = 100 + rng.below(100000);
    return "{\"alpha\": " + std::to_string(alpha) +
           ", \"beta\": " + std::to_string(beta) +
           ", \"lab\": " + std::to_string(lab) +
           ", \"k_fraction\": " + kFractions[rng.below(3)] + "}";
}

/** Every body the mix draws from, built in set-up; fresh solve bodies
 *  are rebuilt from their id on demand. */
struct Inputs
{
    std::vector<std::string> solveHot;
    std::vector<std::string> specBodies;
    std::vector<std::string> mcBodies;
    uint64_t freshSeed = 0;

    Inputs(const std::string &root, uint64_t seed)
        : freshSeed(seed ^ 0xf7e5'501fULL)
    {
        InputRng rng(seed ^ 0x501fe5ULL);
        for (int i = 0; i < 8; ++i)
            solveHot.push_back(solveBody(rng));
        const std::string dir = root + "/examples/configs/";
        for (const char *name :
             {"paper_defaults", "smartphone_unlock", "targeting_mission",
              "otp_messaging", "fault_baseline"}) {
            const std::string file = std::string(name) + ".lemons";
            specBodies.push_back("{\"spec\": " +
                                 jsonString(readFile(dir + file)) +
                                 ", \"filename\": " + jsonString(file) + "}");
        }
        const std::string paper =
            jsonString(readFile(dir + "paper_defaults.lemons"));
        // Trial counts step evenly over [1024, 4096] and threads
        // alternate, so every seed carries the same Monte Carlo load;
        // the seed picks the Monte Carlo seeds and the order.
        for (uint64_t i = 0; i < kMcBodies; ++i) {
            const uint64_t trials = 1024 + i * (4096 - 1024) / (kMcBodies - 1);
            const unsigned threads = 1 + static_cast<unsigned>(i % 2);
            mcBodies.push_back("{\"spec\": " + paper +
                               ", \"filename\": \"paper_defaults.lemons\"" +
                               ", \"trials\": " + std::to_string(trials) +
                               ", \"seed\": " +
                               std::to_string(rng.below(1u << 30)) +
                               ", \"threads\": " + std::to_string(threads) +
                               "}");
        }
    }

    /** The body of @p endpoint named @p id. Solve ids below
     *  solveHot.size() are the hot bodies; larger ones are fresh grid
     *  points drawn from the id alone. */
    std::string body(Endpoint endpoint, uint64_t id) const
    {
        switch (endpoint) {
        case Endpoint::Solve: {
            if (id < solveHot.size())
                return solveHot[id];
            InputRng fresh(freshSeed ^ (id * 0x9e3779b97f4a7c15ULL));
            return solveBody(fresh);
        }
        case Endpoint::Lint:
        case Endpoint::Verify:
        case Endpoint::Analyze:
            return specBodies[id];
        case Endpoint::McRun:
            return mcBodies[id];
        case Endpoint::Healthz:
            break;
        }
        return "";
    }
};

/**
 * One caller's seeded request stream. Endpoints and mc/run bodies are
 * dealt from shuffled decks, so every seed sends the same mix in a
 * different order and run-to-run spread reflects the server, not the
 * draw.
 */
class RequestStream
{
  public:
    RequestStream(const Inputs &source, uint64_t seed, uint64_t stream)
        : inputs(&source), rng(seed), nextFresh((stream + 1) << 32)
    {
    }

    Request next()
    {
        if (endpointAt == endpointDeck.size()) {
            endpointDeck.clear();
            for (const auto &[endpoint, count] : kMix)
                endpointDeck.insert(endpointDeck.end(), count, endpoint);
            shuffle(endpointDeck);
            endpointAt = 0;
        }
        Request out;
        out.endpoint = endpointDeck[endpointAt++];
        switch (out.endpoint) {
        case Endpoint::Solve:
            // A repeat names one of the hot bodies; a fresh solve takes
            // this stream's next unused id (lab alone takes 100k values).
            out.id = rng.unit() < kSolveRepeatShare
                         ? rng.below(inputs->solveHot.size())
                         : nextFresh++;
            break;
        case Endpoint::Lint:
        case Endpoint::Verify:
        case Endpoint::Analyze:
            out.id = rng.below(inputs->specBodies.size());
            break;
        case Endpoint::McRun:
            if (mcAt == mcDeck.size()) {
                mcDeck.clear();
                for (size_t i = 0; i < inputs->mcBodies.size(); ++i)
                    mcDeck.push_back(i);
                shuffle(mcDeck);
                mcAt = 0;
            }
            out.id = mcDeck[mcAt++];
            break;
        case Endpoint::Healthz:
            break;
        }
        out.body = inputs->body(out.endpoint, out.id);
        return out;
    }

  private:
    template <typename T>
    void shuffle(std::vector<T> &deck)
    {
        for (size_t i = deck.size(); i > 1; --i)
            std::swap(deck[i - 1], deck[rng.below(i)]);
    }

    const Inputs *inputs;
    InputRng rng;
    /** Fresh solve ids: this stream's own range above the hot ids. */
    uint64_t nextFresh;
    std::vector<Endpoint> endpointDeck;
    size_t endpointAt = 0;
    std::vector<size_t> mcDeck;
    size_t mcAt = 0;
};

std::string
httpBytes(const Request &request, const std::string &tenant)
{
    if (request.endpoint == Endpoint::Healthz)
        return "GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n"
               "X-Lemons-Tenant: " +
               tenant + "\r\n\r\n";
    return std::string("POST ") + endpointPath(request.endpoint) +
           " HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
           "application/json\r\nX-Lemons-Tenant: " +
           tenant + "\r\nContent-Length: " +
           std::to_string(request.body.size()) + "\r\n\r\n" + request.body;
}

/** A received response, viewed in its receive buffer: status and
 *  body, or a transport error. */
struct ResponseView
{
    int status = 0;
    std::string_view body;
    std::string error;
};

ResponseView
parseResponse(std::string_view raw)
{
    ResponseView out;
    const size_t headEnd = raw.find("\r\n\r\n");
    if (raw.substr(0, 9) != "HTTP/1.1 " || headEnd == std::string_view::npos ||
        raw.size() < 12) {
        out.error = "malformed response (" + std::to_string(raw.size()) +
                    " bytes)";
        return out;
    }
    out.status = std::atoi(std::string(raw.substr(9, 3)).c_str());
    out.body = raw.substr(headEnd + 4);
    return out;
}

sockaddr_in
loopback(uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

/** Blocking one-shot request, for set-up warm-up: the raw response
 *  bytes, empty when the connection failed. */
std::string
blockingRequest(uint16_t port, const std::string &bytes)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const sockaddr_in addr = loopback(port);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        if (fd >= 0)
            ::close(fd);
        return "";
    }
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t wrote = ::send(fd, bytes.data() + sent,
                                     bytes.size() - sent, MSG_NOSIGNAL);
        if (wrote <= 0)
            break;
        sent += static_cast<size_t>(wrote);
    }
    std::string raw;
    char chunk[8192];
    for (;;) {
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            break;
        raw.append(chunk, static_cast<size_t>(got));
    }
    ::close(fd);
    return raw;
}

/**
 * One finished request as the client saw it. It holds no bodies: the
 * request body is named by its id and the response by its hash.
 */
struct Completed
{
    int caller = 0;
    bool prompt = true;
    /** Passed every check so far: 2xx, a lemons-api/1 envelope, and for
     *  solve and mc/run the reference comparison after the run. */
    bool passed = false;
    Endpoint endpoint = Endpoint::Healthz;
    uint64_t id = 0;        ///< Request::id
    uint64_t bodyHash = 0;  ///< bodyHash() of the response body
    double latencyMs = 0.0; ///< connect() to the last response byte
    double connectMs = 0.0;
};

/** Closed-loop caller state machine driven by the generator's poll. */
struct Caller
{
    enum class Phase { Idle, Connecting, Sending, Receiving };

    int index = 0;
    bool prompt = true;
    std::string tenant;
    std::unique_ptr<RequestStream> stream;
    Phase phase = Phase::Idle;
    int fd = -1;
    Request request;
    std::string bytes;
    size_t sent = 0;
    std::string raw;
    /** Transport error of the request just finished, if any. */
    std::string error;
    uint64_t startNs = 0;
    uint64_t connectedNs = 0;
    /** Slow caller: when the next piece is due. */
    uint64_t nextPieceNs = 0;
    uint64_t pieceGapNs = 0;
    std::unique_ptr<Span> span;
};

class LoadGenerator
{
  public:
    LoadGenerator(const Inputs &source, uint16_t serverPort, uint64_t seed,
                  bool slowCaller)
        : inputs(source), port(serverPort)
    {
        const int callers = kPromptCallers + (slowCaller ? 1 : 0);
        for (int c = 0; c < callers; ++c) {
            Caller caller;
            caller.index = c;
            caller.prompt = c < kPromptCallers;
            caller.tenant = "perfbench-" + std::to_string(c);
            caller.stream = std::make_unique<RequestStream>(
                inputs,
                seed * 0x100000001b3ULL + 977 * static_cast<uint64_t>(c + 1),
                static_cast<uint64_t>(c));
            pool.push_back(std::move(caller));
        }
    }

    /**
     * Drive the closed loop until @p seconds have passed, then let
     * every caller finish its in-flight request. @p onDone sees each
     * completed request as it finishes, with its response still in the
     * caller's receive buffer.
     */
    void run(double seconds, bool traced,
             const std::function<void(Completed &&, const ResponseView &)>
                 &onDone)
    {
        const uint64_t stopNs =
            nowNs() + static_cast<uint64_t>(seconds * 1e9);
        for (Caller &caller : pool)
            begin(caller, traced);
        for (;;) {
            // Report finished requests (in completion order) and start
            // each caller's next one while the window lasts.
            for (size_t i = 0; i < finished.size(); ++i) {
                Caller &caller = pool[static_cast<size_t>(finished[i].caller)];
                ResponseView response;
                if (caller.error.empty())
                    response = parseResponse(caller.raw);
                else
                    response.error = caller.error;
                onDone(std::move(finished[i]), response);
                if (nowNs() < stopNs)
                    begin(caller, traced);
            }
            finished.clear();

            std::vector<pollfd> fds;
            std::vector<Caller *> owners;
            uint64_t wakeNs = UINT64_MAX;
            for (Caller &caller : pool) {
                if (caller.phase == Caller::Phase::Idle)
                    continue;
                pollfd entry{};
                entry.fd = caller.fd;
                if (caller.phase == Caller::Phase::Connecting)
                    entry.events = POLLOUT;
                else if (caller.phase == Caller::Phase::Receiving)
                    entry.events = POLLIN;
                else if (caller.prompt || nowNs() >= caller.nextPieceNs)
                    entry.events = POLLOUT;
                else
                    wakeNs = std::min(wakeNs, caller.nextPieceNs);
                fds.push_back(entry);
                owners.push_back(&caller);
            }
            if (fds.empty()) {
                if (finished.empty())
                    return;
                continue;
            }
            int timeoutMs = 100;
            if (wakeNs != UINT64_MAX) {
                const uint64_t now = nowNs();
                timeoutMs = wakeNs <= now
                                ? 0
                                : static_cast<int>((wakeNs - now) / 1000000 + 1);
            }
            ::poll(fds.data(), fds.size(), timeoutMs);
            for (size_t i = 0; i < fds.size(); ++i) {
                Caller &caller = *owners[i];
                const bool ready =
                    (fds[i].revents & (fds[i].events | POLLERR | POLLHUP)) !=
                    0;
                if (ready)
                    advance(caller);
            }
        }
    }

  private:
    void begin(Caller &caller, bool traced)
    {
        caller.request = caller.stream->next();
        caller.bytes = httpBytes(caller.request, caller.tenant);
        caller.sent = 0;
        caller.raw.clear();
        caller.error.clear();
        caller.span.reset();
        if (traced) {
            Tracer &tracer = Tracer::global();
            caller.span = std::make_unique<Span>(
                caller.prompt ? "client.request" : "client.slow_request",
                tracer.newTrace(), 0);
        }
        caller.startNs = nowNs();
        caller.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
        const sockaddr_in addr = loopback(port);
        const int rc =
            caller.fd < 0
                ? -1
                : ::connect(caller.fd,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr));
        if (rc == 0) {
            connected(caller);
        } else if (caller.fd >= 0 && errno == EINPROGRESS) {
            caller.phase = Caller::Phase::Connecting;
        } else {
            finish(caller, std::string("connect: ") + std::strerror(errno));
        }
    }

    void connected(Caller &caller)
    {
        caller.connectedNs = nowNs();
        if (caller.span) {
            // The connect interval as a child of the request span.
            SpanRecord connect;
            connect.id = Tracer::global().newSpan();
            connect.parent = caller.span->id();
            connect.trace = caller.span->trace();
            connect.name = "client.connect";
            connect.startNs = caller.startNs;
            connect.endNs = caller.connectedNs;
            Tracer::global().record(connect);
        }
        caller.phase = Caller::Phase::Sending;
        if (!caller.prompt) {
            const size_t pieces =
                (caller.bytes.size() + kSlowPieceBytes - 1) / kSlowPieceBytes;
            caller.pieceGapNs =
                pieces > 1 ? static_cast<uint64_t>(kSlowSpreadSeconds * 1e9) /
                                 (pieces - 1)
                           : 0;
            caller.nextPieceNs = caller.connectedNs;
        }
    }

    void advance(Caller &caller)
    {
        switch (caller.phase) {
        case Caller::Phase::Connecting: {
            int error = 0;
            socklen_t len = sizeof(error);
            ::getsockopt(caller.fd, SOL_SOCKET, SO_ERROR, &error, &len);
            if (error != 0) {
                finish(caller,
                       std::string("connect: ") + std::strerror(error));
                return;
            }
            connected(caller);
            return;
        }
        case Caller::Phase::Sending: {
            if (!caller.prompt && nowNs() < caller.nextPieceNs)
                return;
            const size_t limit =
                caller.prompt ? caller.bytes.size() - caller.sent
                              : std::min(kSlowPieceBytes,
                                         caller.bytes.size() - caller.sent);
            const ssize_t wrote =
                ::send(caller.fd, caller.bytes.data() + caller.sent, limit,
                       MSG_NOSIGNAL);
            if (wrote < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK)
                    finish(caller,
                           std::string("send: ") + std::strerror(errno));
                return;
            }
            caller.sent += static_cast<size_t>(wrote);
            caller.nextPieceNs += caller.pieceGapNs;
            if (caller.sent == caller.bytes.size())
                caller.phase = Caller::Phase::Receiving;
            return;
        }
        case Caller::Phase::Receiving: {
            char chunk[16384];
            for (;;) {
                const ssize_t got = ::recv(caller.fd, chunk, sizeof(chunk), 0);
                if (got > 0) {
                    caller.raw.append(chunk, static_cast<size_t>(got));
                    continue;
                }
                if (got == 0) {
                    finish(caller, "");
                } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
                    finish(caller,
                           std::string("recv: ") + std::strerror(errno));
                }
                return;
            }
        }
        case Caller::Phase::Idle:
            return;
        }
    }

    void finish(Caller &caller, const std::string &transportError)
    {
        const uint64_t end = nowNs();
        if (caller.fd >= 0)
            ::close(caller.fd);
        caller.fd = -1;
        caller.span.reset();
        Completed done;
        done.caller = caller.index;
        done.prompt = caller.prompt;
        done.endpoint = caller.request.endpoint;
        done.id = caller.request.id;
        caller.error = transportError;
        done.latencyMs = static_cast<double>(end - caller.startNs) * 1e-6;
        done.connectMs =
            caller.connectedNs > caller.startNs
                ? static_cast<double>(caller.connectedNs - caller.startNs) *
                      1e-6
                : 0.0;
        caller.connectedNs = 0;
        caller.phase = Caller::Phase::Idle;
        finished.push_back(std::move(done));
    }

    const Inputs &inputs;
    uint16_t port;
    std::vector<Caller> pool;
    /** Requests finished since the loop last reported them. */
    std::vector<Completed> finished;
};

/** In-process reference for one endpoint + body, timed. */
struct Reference
{
    std::string body;
    double ms = 0.0;
};

api::ServiceResult
callService(const api::Service &service, Endpoint endpoint,
            const std::string &body)
{
    switch (endpoint) {
    case Endpoint::Solve: {
        const Span span("api.solve");
        return service.solve(body);
    }
    case Endpoint::Lint: {
        const Span span("api.lint");
        return service.lint(body);
    }
    case Endpoint::Verify: {
        const Span span("api.verify");
        return service.verify(body);
    }
    case Endpoint::Analyze: {
        const Span span("api.analyze");
        return service.analyze(body);
    }
    case Endpoint::McRun: {
        const Span span("api.mc_run");
        return service.mcRun(body);
    }
    case Endpoint::Healthz:
        break;
    }
    return {};
}

/** The same mc/run body with its "threads" field replaced. */
std::string
withThreads(const std::string &body, unsigned threads)
{
    const size_t at = body.rfind("\"threads\": ");
    const size_t end = body.find('}', at);
    return body.substr(0, at) + "\"threads\": " + std::to_string(threads) +
           body.substr(end);
}

} // namespace

RunResult
runServe(const Options &options, bool slowCaller)
{
    RunResult result;
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<serve::Server> server;
    serve::ServerOptions serverOptions;
    // Far above anything one closed loop can send: a refusal would
    // measure the quota, not the server.
    serverOptions.quota.ratePerSecond = 1e9;
    serverOptions.quota.burst = 1e9;
    std::string healthzBody;

    const bool setupOnly = runSetup(options, [&] {
        inputs = std::make_unique<Inputs>(options.root, options.seed);
        server = std::make_unique<serve::Server>(serverOptions);
        std::string error;
        if (!server->start(&error))
            throw std::runtime_error("server start: " + error);
        // One untimed request per endpoint.
        for (const Endpoint endpoint :
             {Endpoint::Solve, Endpoint::Lint, Endpoint::Verify,
              Endpoint::Analyze, Endpoint::McRun, Endpoint::Healthz}) {
            const uint64_t id =
                endpoint == Endpoint::McRun ? inputs->mcBodies.size() - 1 : 0;
            const Request request{endpoint, id, inputs->body(endpoint, id)};
            const std::string raw = blockingRequest(
                server->boundPort(), httpBytes(request, "perfbench-setup"));
            const ResponseView response = parseResponse(raw);
            if (response.status != 200)
                throw std::runtime_error(
                    std::string("warm-up ") + endpointName(endpoint) +
                    " answered " + std::to_string(response.status) + " " +
                    response.error);
            if (endpoint == Endpoint::Healthz)
                healthzBody = std::string(response.body);
        }
    });
    if (setupOnly)
        return result;

    const lemons::obs::Snapshot afterSetup = obsSnapshot();
    std::vector<Completed> done;
    double parseUsTotal = 0.0;
    uint64_t parses = 0;
    LoadGenerator generator(*inputs, server->boundPort(), options.seed,
                            slowCaller);
    // One measured window: its requests are done[begin, end), and every
    // kBatchRequests prompt responses close one batch. A batch holds
    // the requests done[previous batch's end, end); the prompt
    // responses after the last full batch, and the slow caller's final
    // trickle, belong to none.
    struct Batch
    {
        WorkUnit unit;
        double seconds = 0.0;
        size_t end = 0;
    };
    struct Window
    {
        std::vector<Batch> batches;
        size_t begin = 0;
        size_t end = 0;
    };
    const auto measure = [&](double seconds, bool traced) {
        Window window;
        window.begin = done.size();
        size_t prompt = 0;
        uint64_t batchStart = nowNs();
        double cpuStart = processCpuSeconds();
        HostTicks ticksStart = hostTicks();
        const auto closeBatch = [&](double share) {
            Batch batch;
            batch.seconds = secondsSince(batchStart);
            const HostTicks ticks = hostTicks();
            batch.unit = {batch.seconds / share,
                          (processCpuSeconds() - cpuStart) / share,
                          stolenShare(ticksStart, ticks)};
            batch.end = done.size();
            window.batches.push_back(batch);
            batchStart = nowNs();
            cpuStart = processCpuSeconds();
            ticksStart = ticks;
        };
        generator.run(seconds, traced, [&](Completed &&completed,
                                           const ResponseView &response) {
            // Correctness, first part: 2xx and a lemons-api/1 envelope.
            std::string why = response.error;
            if (why.empty() && (response.status < 200 || response.status >= 300))
                why = "HTTP " + std::to_string(response.status);
            if (why.empty()) {
                const uint64_t parseStart = nowNs();
                why = checkEnvelope(response.body);
                parseUsTotal += secondsSince(parseStart) * 1e6;
                ++parses;
            }
            completed.passed = why.empty();
            completed.bodyHash = bodyHash(response.body);
            if (!why.empty())
                result.fail(std::string(endpointName(completed.endpoint)) +
                            ": " + why);
            const bool closes =
                completed.prompt && ++prompt % kBatchRequests == 0;
            done.push_back(completed);
            if (closes)
                closeBatch(1.0);
        });
        // A window too short for one batch reports its partial batch
        // scaled to a full one.
        if (window.batches.empty() && prompt > 0)
            closeBatch(static_cast<double>(prompt) / kBatchRequests);
        window.end = done.size();
        return window;
    };

    // The first second of load runs slower on some runs (caches, page
    // faults, idle virtual CPUs waking); its requests are checked like
    // the rest but measured by no metric.
    measure(kWarmupSeconds, false);
    const lemons::obs::Snapshot afterWarmup = obsSnapshot();
    const Window untraced =
        measure(options.trace ? options.seconds / 2 : options.seconds, false);
    const ObsDelta untracedDelta = obsSince(afterWarmup);
    Window traced;
    ObsDelta tracedDelta;
    if (options.trace) {
        Tracer::global().setEnabled(true);
        const lemons::obs::Snapshot before = obsSnapshot();
        traced = measure(options.seconds / 2, true);
        tracedDelta = obsSince(before);
    }
    server->stop();
    const ObsDelta windowDelta = obsSince(afterSetup);
    // Read before the reference pass below allocates.
    result.endToEnd["peak_rss_mb"] = peakRssMb();

    // Correctness, second part: every solve and mc/run body is
    // byte-equal to the in-process Service on the same request body.
    const api::Service service;
    std::map<std::pair<Endpoint, uint64_t>, Reference> references;
    uint64_t solveRequests = 0, solveRepeats = 0;
    std::set<uint64_t> solveSeen;
    for (Completed &c : done) {
        ++result.attempted;
        if (c.endpoint == Endpoint::Solve && c.prompt) {
            ++solveRequests;
            if (!solveSeen.insert(c.id).second)
                ++solveRepeats;
        }
        if (!c.passed ||
            (c.endpoint != Endpoint::Solve && c.endpoint != Endpoint::McRun))
            continue;
        const auto key = std::make_pair(c.endpoint, c.id);
        auto found = references.find(key);
        if (found == references.end()) {
            const uint64_t start = nowNs();
            Reference reference;
            reference.body =
                callService(service, c.endpoint, inputs->body(c.endpoint, c.id))
                    .body;
            reference.ms = secondsSince(start) * 1e3;
            found = references.emplace(key, std::move(reference)).first;
        }
        const std::string why = checkSameBody(
            c.bodyHash, found->second.body, endpointName(c.endpoint));
        c.passed = why.empty();
        if (!why.empty())
            result.fail(why);
    }

    // Every gated serve metric is taken over the window's least-stolen
    // batches (common.h, leastStolen): goodput counts their prompt
    // responses that passed and met the latency limit, over their
    // summed time, and the latency percentiles cover their prompt
    // requests.
    const auto batchUnits = [](const Window &window) {
        std::vector<WorkUnit> units;
        for (const Batch &batch : window.batches)
            units.push_back(batch.unit);
        return units;
    };
    const auto windowOf = [&](const Window &window, size_t *samples) {
        const std::vector<WorkUnit> units = batchUnits(window);
        std::vector<WorkUnit> kept;
        std::vector<double> latencyMs;
        uint64_t good = 0;
        double seconds = 0.0;
        for (const size_t b : leastStolen(units)) {
            kept.push_back(units[b]);
            seconds += window.batches[b].seconds;
            const size_t begin =
                b == 0 ? window.begin : window.batches[b - 1].end;
            for (size_t i = begin; i < window.batches[b].end; ++i) {
                if (!done[i].prompt)
                    continue;
                latencyMs.push_back(done[i].latencyMs);
                if (done[i].passed && done[i].latencyMs <= kLatencyLimitMs)
                    ++good;
            }
        }
        if (samples != nullptr)
            *samples = latencyMs.size();
        return windowMetrics(kept, latencyMs, good, seconds);
    };
    std::vector<double> untracedPrompt, connectMs;
    for (size_t i = untraced.begin; i < untraced.end; ++i)
        if (done[i].prompt) {
            untracedPrompt.push_back(done[i].latencyMs);
            connectMs.push_back(done[i].connectMs);
        }
    size_t latencySamples = 0;
    const auto tracedMetrics = windowOf(traced, nullptr);
    const auto untracedMetrics = windowOf(untraced, &latencySamples);
    reportWindows(result, untracedMetrics,
                  options.trace ? &tracedMetrics : nullptr);
    result.note("latency_samples", static_cast<double>(latencySamples));
    result.note("latency_limit_ms", kLatencyLimitMs);
    result.note("batches", static_cast<double>(untraced.batches.size()));
    noteStolen(result, batchUnits(untraced), "batches");
    result.note("batch_requests", static_cast<double>(kBatchRequests));
    result.note("solve_repeat_share",
                solveRequests == 0 ? 0.0
                                   : static_cast<double>(solveRepeats) /
                                         static_cast<double>(solveRequests));
    result.note("prompt_callers", static_cast<double>(kPromptCallers));
    result.note("slow_callers", slowCaller ? 1.0 : 0.0);
    result.perLayer["engine.threads_created_after_warmup"] =
        static_cast<double>(
            windowDelta.counter("sim.mc.pool.threads_created"));

    if (options.trace) {
        // Server-side view of the untraced window: how long a worker
        // held each connection, and what the prompt callers waited on
        // top of that.
        const uint64_t holds = untracedDelta.timerCount("serve.request");
        const double holdMs =
            static_cast<double>(untracedDelta.timerNs("serve.request")) *
            1e-6;
        result.perLayer["serve.worker_hold_ms"] =
            holds == 0 ? 0.0 : holdMs / static_cast<double>(holds);
        double slowUntracedMs = 0.0;
        uint64_t slowUntraced = 0;
        for (size_t i = untraced.begin; i < untraced.end; ++i)
            if (!done[i].prompt) {
                slowUntracedMs += done[i].latencyMs;
                ++slowUntraced;
            }
        const double promptHoldMs =
            holds > slowUntraced
                ? (holdMs - slowUntracedMs) /
                      static_cast<double>(holds - slowUntraced)
                : 0.0;
        result.perLayer["serve.queue_wait_ms"] =
            mean(untracedPrompt) - promptHoldMs;
        result.perLayer["serve.rejected"] =
            static_cast<double>(windowDelta.counterPrefix("serve.rejected."));
        result.perLayer["serve.connect_ms"] = mean(connectMs);
        result.perLayer["api.json_parse_us"] =
            parses == 0 ? 0.0 : parseUsTotal / static_cast<double>(parses);

        // In-process handler time on the workload's own bodies.
        std::map<Endpoint, std::vector<double>> handlerMs;
        for (const auto &[key, reference] : references)
            handlerMs[key.first].push_back(reference.ms);
        std::map<std::pair<Endpoint, uint64_t>, std::string> specResponses;
        for (uint64_t id = 0; id < inputs->specBodies.size(); ++id) {
            for (Endpoint endpoint :
                 {Endpoint::Lint, Endpoint::Verify, Endpoint::Analyze}) {
                const uint64_t start = nowNs();
                specResponses[{endpoint, id}] =
                    callService(service, endpoint, inputs->specBodies[id]).body;
                handlerMs[endpoint].push_back(secondsSince(start) * 1e3);
            }
        }
        for (Endpoint endpoint : {Endpoint::Solve, Endpoint::Lint,
                                  Endpoint::Verify, Endpoint::Analyze,
                                  Endpoint::McRun})
            result.perLayer[std::string("api.") + endpointName(endpoint) +
                            "_ms"] = mean(handlerMs[endpoint]);

        // RequestParser and renderResponse on the bytes of the run: the
        // request rebuilt from its id, the response as the server
        // rendered it (equal to the in-process reference it was
        // checked against).
        std::vector<double> parse, render;
        for (size_t i = 0; i < done.size() && i < 2000; ++i) {
            const Completed &c = done[i];
            if (!c.passed)
                continue;
            const Request request{c.endpoint, c.id,
                                  inputs->body(c.endpoint, c.id)};
            const std::string bytes = httpBytes(request, "perfbench-0");
            uint64_t start = nowNs();
            {
                const Span span("serve.parse");
                serve::RequestParser parser;
                parser.feed(bytes);
            }
            parse.push_back(secondsSince(start) * 1e6);
            serve::HttpResponse response;
            response.status = 200;
            const auto key = std::make_pair(c.endpoint, c.id);
            const auto reference = references.find(key);
            response.body = c.endpoint == Endpoint::Healthz ? healthzBody
                            : reference != references.end()
                                ? reference->second.body
                                : specResponses[key];
            start = nowNs();
            {
                const Span span("serve.render");
                serve::renderResponse(response);
            }
            render.push_back(secondsSince(start) * 1e6);
        }
        result.perLayer["serve.parse_us"] = mean(parse);
        result.perLayer["serve.render_us"] = mean(render);

        // mc/run parallel efficiency: T1 / (2 T2) on the same bodies.
        double one = 0.0, two = 0.0;
        for (const std::string &body : inputs->mcBodies) {
            uint64_t start = nowNs();
            callService(service, Endpoint::McRun, withThreads(body, 1));
            one += secondsSince(start);
            start = nowNs();
            callService(service, Endpoint::McRun, withThreads(body, 2));
            two += secondsSince(start);
        }
        result.perLayer["engine.parallel_efficiency"] = one / (2.0 * two);

        result.perLayer["engine.cache_hit_ratio"] = cacheHitRatio(tracedDelta);
        result.perLayer["sim.mc_runs"] =
            static_cast<double>(tracedDelta.timerCount("sim.mc.run")) /
            static_cast<double>(std::max<size_t>(traced.end - traced.begin, 1));
        // paper_defaults.lemons [structure]: 100-of-1000 Weibull(10, 12).
        probeBankKernel(result, 10.0, 12.0, 1000, 100, 4096, options.seed);
    }
    return result;
}

} // namespace perfbench

#include "serve/http.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace lemons::serve {

namespace {

std::string
toLower(std::string_view text)
{
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

std::string_view
trimSpace(std::string_view text)
{
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
        text.remove_prefix(1);
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
        text.remove_suffix(1);
    return text;
}

/** Strict decimal parse for Content-Length: digits only, no sign. */
bool
parseContentLength(std::string_view text, size_t &out)
{
    if (text.empty() || text.size() > 15)
        return false;
    size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<size_t>(c - '0');
    }
    out = value;
    return true;
}

} // namespace

const std::string *
HttpRequest::header(std::string_view name) const
{
    const std::string wanted = toLower(name);
    for (const auto &[key, value] : headers)
        if (key == wanted)
            return &value;
    return nullptr;
}

RequestParser::RequestParser(HttpLimits requestLimits)
    : limits(requestLimits)
{
}

void
RequestParser::fail(lint::Code diagnostic, int httpStatus, std::string why)
{
    phase = Phase::Error;
    code = diagnostic;
    status = httpStatus;
    message = std::move(why);
    buffer.clear();
}

void
RequestParser::feed(std::string_view bytes)
{
    if (phase == Phase::Complete || phase == Phase::Error)
        return;
    buffer.append(bytes);
    if (phase == Phase::Head) {
        if (buffer.size() > limits.maxHeaderBytes &&
            buffer.find("\r\n\r\n") == std::string::npos) {
            fail(lint::Code::S006, 431,
                 "request head exceeds the header size limit");
            return;
        }
        parseHead();
    }
    if (phase == Phase::Body && buffer.size() >= contentLength) {
        parsed.body = buffer.substr(0, contentLength);
        buffer.clear();
        phase = Phase::Complete;
    }
}

void
RequestParser::finish()
{
    if (phase == Phase::Head) {
        fail(lint::Code::S006, 400,
             "connection closed before the request head completed");
    } else if (phase == Phase::Body) {
        std::ostringstream why;
        why << "connection closed mid-body: got " << buffer.size()
            << " of " << contentLength << " declared bytes";
        fail(lint::Code::S006, 400, why.str());
    }
}

void
RequestParser::parseHead()
{
    const size_t headEnd = buffer.find("\r\n\r\n");
    if (headEnd == std::string::npos)
        return;
    if (headEnd + 4 > limits.maxHeaderBytes) {
        fail(lint::Code::S006, 431,
             "request head exceeds the header size limit");
        return;
    }

    size_t lineStart = 0;
    bool first = true;
    while (lineStart <= headEnd) {
        const size_t lineEnd = buffer.find("\r\n", lineStart);
        const std::string_view line =
            std::string_view(buffer).substr(lineStart, lineEnd - lineStart);
        if (first) {
            if (!parseStartLine(line))
                return;
            first = false;
        } else if (!line.empty()) {
            if (!parseHeaderLine(line))
                return;
        }
        lineStart = lineEnd + 2;
        if (lineEnd == headEnd)
            break;
    }

    buffer.erase(0, headEnd + 4);
    finishHead();
}

bool
RequestParser::parseStartLine(std::string_view line)
{
    const size_t firstSpace = line.find(' ');
    const size_t lastSpace = line.rfind(' ');
    if (firstSpace == std::string_view::npos || firstSpace == lastSpace) {
        fail(lint::Code::S006, 400,
             "start line is not 'METHOD target HTTP/version'");
        return false;
    }
    parsed.method = std::string(line.substr(0, firstSpace));
    parsed.target = std::string(
        line.substr(firstSpace + 1, lastSpace - firstSpace - 1));
    parsed.version = std::string(line.substr(lastSpace + 1));
    if (parsed.method.empty() ||
        !std::all_of(parsed.method.begin(), parsed.method.end(),
                     [](char c) { return c >= 'A' && c <= 'Z'; })) {
        fail(lint::Code::S006, 400, "malformed request method");
        return false;
    }
    if (parsed.target.empty() || parsed.target.front() != '/') {
        fail(lint::Code::S006, 400,
             "request target must be an absolute path");
        return false;
    }
    if (parsed.version != "HTTP/1.1" && parsed.version != "HTTP/1.0") {
        fail(lint::Code::S006, 400,
             "unsupported HTTP version \"" + parsed.version + "\"");
        return false;
    }
    return true;
}

bool
RequestParser::parseHeaderLine(std::string_view line)
{
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
        fail(lint::Code::S006, 400, "malformed header line");
        return false;
    }
    std::string name = toLower(line.substr(0, colon));
    // RFC 7230: no whitespace between field name and colon.
    if (name.find(' ') != std::string::npos ||
        name.find('\t') != std::string::npos) {
        fail(lint::Code::S006, 400,
             "whitespace in header field name");
        return false;
    }
    const std::string value(trimSpace(line.substr(colon + 1)));
    parsed.headers.emplace_back(std::move(name), value);
    return true;
}

void
RequestParser::finishHead()
{
    if (const std::string *encoding = parsed.header("transfer-encoding")) {
        static_cast<void>(encoding);
        fail(lint::Code::S006, 400,
             "transfer-encoding is not supported; send a "
             "Content-Length body");
        return;
    }

    size_t declared = 0;
    size_t seen = 0;
    for (const auto &[name, value] : parsed.headers) {
        if (name != "content-length")
            continue;
        ++seen;
        size_t parsedLength = 0;
        if (!parseContentLength(value, parsedLength)) {
            fail(lint::Code::S006, 400,
                 "Content-Length \"" + value +
                     "\" is not a valid length");
            return;
        }
        if (seen > 1 && parsedLength != declared) {
            fail(lint::Code::S006, 400,
                 "conflicting Content-Length headers");
            return;
        }
        declared = parsedLength;
    }

    if (declared > limits.maxBodyBytes) {
        std::ostringstream why;
        why << "declared body of " << declared
            << " bytes exceeds the limit of " << limits.maxBodyBytes;
        fail(lint::Code::S005, 413, why.str());
        return;
    }

    contentLength = declared;
    phase = Phase::Body;
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 413:
        return "Payload Too Large";
    case 422:
        return "Unprocessable Entity";
    case 429:
        return "Too Many Requests";
    case 431:
        return "Request Header Fields Too Large";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}

std::string
renderResponse(const HttpResponse &response)
{
    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << ' '
        << reasonPhrase(response.status) << "\r\n";
    out << "Content-Type: " << response.contentType << "\r\n";
    out << "Content-Length: " << response.body.size() << "\r\n";
    for (const auto &[name, value] : response.headers)
        out << name << ": " << value << "\r\n";
    out << "Connection: close\r\n\r\n";
    out << response.body;
    return out.str();
}

} // namespace lemons::serve

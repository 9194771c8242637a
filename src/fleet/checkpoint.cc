#include "fleet/checkpoint.h"

#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "lint/diagnostics.h"
#include "obs/metrics.h"
#include "util/checksum.h"

namespace lemons::fleet {

namespace {

constexpr size_t kMagicSize = sizeof(kCheckpointMagic) - 1;
constexpr std::string_view kMagicFamily = "fleet-ckpt/";

/** "C104" etc., sourced from the shared registry so ids cannot drift. */
std::string
codeTag(lint::Code code)
{
    return lint::codeInfo(code).id;
}

/** Little-endian primitive serializer into a growable byte buffer. */
class ByteWriter
{
  public:
    void u8(uint8_t value) { bytes.push_back(value); }

    void u32(uint32_t value)
    {
        for (int shift = 0; shift < 32; shift += 8)
            bytes.push_back(
                static_cast<uint8_t>((value >> shift) & 0xFFu));
    }

    void u64(uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            bytes.push_back(
                static_cast<uint8_t>((value >> shift) & 0xFFu));
    }

    /** Bit-exact double transport (no textual round-trip loss). */
    void f64(double value) { u64(std::bit_cast<uint64_t>(value)); }

    void str(const std::string &value)
    {
        u64(value.size());
        bytes.insert(bytes.end(), value.begin(), value.end());
    }

    void raw(const std::vector<uint8_t> &value)
    {
        bytes.insert(bytes.end(), value.begin(), value.end());
    }

    std::vector<uint8_t> take() { return std::move(bytes); }

  private:
    std::vector<uint8_t> bytes;
};

/** Bounds-checked little-endian reader over a payload slice. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size, std::string source)
        : begin(data), remaining(size), origin(std::move(source))
    {
    }

    uint8_t u8()
    {
        need(1);
        const uint8_t value = *begin;
        advance(1);
        return value;
    }

    uint32_t u32()
    {
        need(4);
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= static_cast<uint32_t>(begin[i]) << (8 * i);
        advance(4);
        return value;
    }

    uint64_t u64()
    {
        need(8);
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= static_cast<uint64_t>(begin[i]) << (8 * i);
        advance(8);
        return value;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string str()
    {
        const uint64_t size = u64();
        need(size);
        std::string value(reinterpret_cast<const char *>(begin),
                          static_cast<size_t>(size));
        advance(static_cast<size_t>(size));
        return value;
    }

    std::vector<uint8_t> raw(size_t size)
    {
        need(size);
        std::vector<uint8_t> value(begin, begin + size);
        advance(size);
        return value;
    }

    size_t left() const { return remaining; }

  private:
    void need(uint64_t size) const
    {
        if (size > remaining)
            throw CheckpointError(
                origin + ": " + codeTag(lint::Code::C106) +
                " malformed payload (field extends past "
                "the end of the checkpoint)");
    }

    void advance(size_t size)
    {
        begin += size;
        remaining -= size;
    }

    const uint8_t *begin;
    size_t remaining;
    std::string origin;
};

void
writeStats(ByteWriter &out, const RunningStats::State &state)
{
    out.u64(state.count);
    out.u64(state.nonFiniteCount);
    out.f64(state.mean);
    out.f64(state.m2);
    out.f64(state.min);
    out.f64(state.max);
}

RunningStats::State
readStats(ByteReader &in)
{
    RunningStats::State state;
    state.count = in.u64();
    state.nonFiniteCount = in.u64();
    state.mean = in.f64();
    state.m2 = in.f64();
    state.min = in.f64();
    state.max = in.f64();
    return state;
}

void
writeCohort(ByteWriter &out, const CohortRecord &record)
{
    out.str(record.name);
    out.u64(record.devices);
    writeStats(out, record.serviceDays);
    out.u64(record.replaced);
    out.u64(record.premature);
    out.u64(record.reprovisioned);
}

CohortRecord
readCohort(ByteReader &in)
{
    CohortRecord record;
    record.name = in.str();
    record.devices = in.u64();
    record.serviceDays = readStats(in);
    record.replaced = in.u64();
    record.premature = in.u64();
    record.reprovisioned = in.u64();
    return record;
}

/** RAII file descriptor so every error path closes. */
class Fd
{
  public:
    explicit Fd(int fd) : value(fd) {}
    ~Fd()
    {
        if (value >= 0)
            ::close(value);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    int get() const { return value; }

  private:
    int value;
};

[[noreturn]] void
ioError(const std::string &path, const std::string &what)
{
    throw CheckpointError(path + ": " + codeTag(lint::Code::C107) +
                          " io error: " + what + " (" +
                          std::strerror(errno) + ")");
}

/** fsync the directory containing @p path so renames are durable. */
void
syncParentDir(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (fd.get() >= 0)
        ::fsync(fd.get()); // best effort: some filesystems refuse
}

} // namespace

std::vector<uint8_t>
encodeCheckpoint(const FleetCheckpoint &checkpoint)
{
    ByteWriter payload;
    payload.u64(checkpoint.configFingerprint);
    payload.u64(checkpoint.completed.size());
    for (const CohortRecord &record : checkpoint.completed)
        writeCohort(payload, record);
    payload.u8(checkpoint.hasCursor ? 1 : 0);
    if (checkpoint.hasCursor) {
        const EngineCursorRecord &cursor = checkpoint.cursor;
        payload.u64(cursor.seed);
        payload.u64(cursor.requestedTrials);
        payload.u64(cursor.chunkSize);
        payload.u64(cursor.executedChunks);
        writeStats(payload, cursor.streaming);
        payload.u64(cursor.failures.size());
        for (const auto &[trial, what] : cursor.failures) {
            payload.u64(trial);
            payload.str(what);
        }
        payload.u64(cursor.nonFiniteTrials.size());
        for (uint64_t trial : cursor.nonFiniteTrials)
            payload.u64(trial);
        payload.u64(checkpoint.partialReplaced);
        payload.u64(checkpoint.partialPremature);
        payload.u64(checkpoint.partialReprovisioned);
    }
    payload.u64(checkpoint.extensions.size());
    for (const CheckpointExtension &extension : checkpoint.extensions) {
        payload.u32(extension.tag);
        payload.u64(extension.bytes.size());
        payload.raw(extension.bytes);
    }

    std::vector<uint8_t> body = payload.take();
    ByteWriter file;
    for (size_t i = 0; i < kMagicSize; ++i)
        file.u8(static_cast<uint8_t>(kCheckpointMagic[i]));
    file.u64(body.size());
    file.raw(body);
    file.u32(crc32c(body.data(), body.size()));
    return file.take();
}

FleetCheckpoint
decodeCheckpoint(const void *data, size_t size, const std::string &source)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    if (size < kMagicSize ||
        std::memcmp(bytes, kCheckpointMagic, kMagicSize) != 0) {
        // Distinguish "future version of our format" from "not ours".
        const std::string_view head(
            reinterpret_cast<const char *>(bytes),
            std::min(size, kMagicFamily.size()));
        if (head == kMagicFamily) {
            std::string_view rest(reinterpret_cast<const char *>(bytes),
                                  std::min<size_t>(size, 32));
            const size_t newline = rest.find('\n');
            throw CheckpointError(
                source + ": " + codeTag(lint::Code::C102) +
                " unsupported checkpoint version '" +
                std::string(newline == std::string_view::npos
                                ? rest
                                : rest.substr(0, newline)) +
                "' (this build reads fleet-ckpt/1)");
        }
        throw CheckpointError(source + ": " +
                              codeTag(lint::Code::C101) +
                              " bad magic: not a fleet-ckpt file");
    }

    ByteReader header(bytes + kMagicSize, size - kMagicSize, source);
    const uint64_t payloadSize = header.u64();
    // left() - 4 rather than payloadSize + 4: a length near 2^64
    // would wrap the sum and pass a truncated file on to C106.
    if (header.left() < 4 || header.left() - 4 < payloadSize)
        throw CheckpointError(
            source + ": " + codeTag(lint::Code::C103) +
            " truncated checkpoint (payload of " +
            std::to_string(payloadSize) + " bytes, " +
            std::to_string(header.left()) + " available)");
    const std::vector<uint8_t> body =
        header.raw(static_cast<size_t>(payloadSize));
    const uint32_t stored = header.u32();
    const uint32_t computed = crc32c(body.data(), body.size());
    if (stored != computed)
        throw CheckpointError(
            source + ": " + codeTag(lint::Code::C104) +
            " checksum mismatch (stored " +
            std::to_string(stored) + ", computed " +
            std::to_string(computed) + "): torn or corrupted write");

    ByteReader in(body.data(), body.size(), source);
    FleetCheckpoint checkpoint;
    checkpoint.configFingerprint = in.u64();
    const uint64_t cohorts = in.u64();
    for (uint64_t i = 0; i < cohorts; ++i)
        checkpoint.completed.push_back(readCohort(in));
    checkpoint.hasCursor = in.u8() != 0;
    if (checkpoint.hasCursor) {
        EngineCursorRecord &cursor = checkpoint.cursor;
        cursor.seed = in.u64();
        cursor.requestedTrials = in.u64();
        cursor.chunkSize = in.u64();
        cursor.executedChunks = in.u64();
        cursor.streaming = readStats(in);
        const uint64_t failures = in.u64();
        for (uint64_t i = 0; i < failures; ++i) {
            const uint64_t trial = in.u64();
            cursor.failures.emplace_back(trial, in.str());
        }
        const uint64_t nonFinite = in.u64();
        for (uint64_t i = 0; i < nonFinite; ++i)
            cursor.nonFiniteTrials.push_back(in.u64());
        checkpoint.partialReplaced = in.u64();
        checkpoint.partialPremature = in.u64();
        checkpoint.partialReprovisioned = in.u64();
    }
    // Forward compatibility: preserve extension records this version
    // does not understand; a future fleet-ckpt/1 writer may append
    // tagged fields and a version-1 reader must still load cleanly.
    const uint64_t extensions = in.u64();
    for (uint64_t i = 0; i < extensions; ++i) {
        CheckpointExtension extension;
        extension.tag = in.u32();
        const uint64_t length = in.u64();
        extension.bytes = in.raw(static_cast<size_t>(length));
        checkpoint.extensions.push_back(std::move(extension));
    }
    return checkpoint;
}

void
writeCheckpointAtomic(const std::string &path,
                      const FleetCheckpoint &checkpoint)
{
    LEMONS_OBS_SCOPED_TIMER("fleet.checkpoint.write");
    const std::vector<uint8_t> bytes = encodeCheckpoint(checkpoint);
    const std::string temp = path + ".tmp";

    {
        const Fd fd(::open(temp.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644));
        if (fd.get() < 0)
            ioError(temp, "open");
        size_t written = 0;
        while (written < bytes.size()) {
            const ssize_t n = ::write(fd.get(), bytes.data() + written,
                                      bytes.size() - written);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                ioError(temp, "write");
            }
            written += static_cast<size_t>(n);
        }
        if (::fsync(fd.get()) != 0)
            ioError(temp, "fsync");
    }

    // Rotate the previous good checkpoint before exposing the new one,
    // so a corrupt-on-arrival primary always has a fallback.
    std::error_code ignored;
    if (std::filesystem::exists(path, ignored))
        std::filesystem::rename(path, path + ".prev", ignored);
    if (::rename(temp.c_str(), path.c_str()) != 0)
        ioError(path, "rename");
    syncParentDir(path);

    LEMONS_OBS_INCREMENT("fleet.checkpoint.writes");
    LEMONS_OBS_COUNT("fleet.checkpoint.bytes", bytes.size());
}

FleetCheckpoint
readCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CheckpointError(path + ": " + codeTag(lint::Code::C107) +
                              " io error: cannot open");
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decodeCheckpoint(bytes.data(), bytes.size(), path);
}

CheckpointLoadOutcome
loadWithFallback(const std::string &path)
{
    const std::string previous = path + ".prev";
    std::error_code ignored;
    CheckpointLoadOutcome outcome;

    if (!std::filesystem::exists(path, ignored)) {
        if (std::filesystem::exists(previous, ignored)) {
            // Crash between the rotate and the final rename: the
            // previous checkpoint is the newest trustworthy state.
            outcome.checkpoint = readCheckpoint(previous);
            outcome.warning = path + ": missing primary checkpoint; "
                                     "resumed from " + previous;
        }
        return outcome; // fresh start when neither file exists
    }

    try {
        outcome.checkpoint = readCheckpoint(path);
        return outcome;
    } catch (const CheckpointError &error) {
        LEMONS_OBS_INCREMENT("fleet.checkpoint.corrupt_detected");
        if (std::filesystem::exists(previous, ignored)) {
            outcome.checkpoint = readCheckpoint(previous); // may throw
            outcome.fellBack = true;
            outcome.warning =
                std::string("corrupt checkpoint detected (") +
                error.what() + "); fell back to " + previous;
            LEMONS_OBS_INCREMENT("fleet.checkpoint.fallbacks");
            return outcome;
        }
        // No fallback: refuse to guess. Resuming from invented state
        // would silently break the resume-equals-uninterrupted
        // contract.
        throw;
    }
}

} // namespace lemons::fleet

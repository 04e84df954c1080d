/**
 * @file
 * Versioned replication wire format (framed records).
 *
 * Every record shipped to the standby is a self-delimiting frame:
 *
 *   [0]      'N'           magic
 *   [1]      'R'
 *   [2]      version       (wireVersion)
 *   [3]      type          (FrameType)
 *   [4..7]   generation    u32 LE — bumped on every primary resume
 *   [8..15]  epoch         u64 LE
 *   [16..23] arg           u64 LE — line addr (Delta/LateDelta) or
 *                          the epoch's delta count (EpochClose)
 *   [24..31] frame id      u64 LE — retransmit/ack identity
 *   [32..95] payload       64 B line content (Delta/LateDelta only)
 *   [..+4]   CRC32         over all preceding bytes, LE
 *
 * The decoder is a streaming byte sink: it tolerates truncation (a
 * partial frame waits for more bytes) and corruption (a bad magic or
 * CRC triggers a byte-by-byte resync scan for the next magic), so a
 * lossy link can hand it arbitrary garbage without desynchronizing
 * the frames that survive.
 */

#ifndef NVO_REPL_WIRE_HH
#define NVO_REPL_WIRE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/backing_store.hh"

namespace nvo
{
namespace repl
{

constexpr std::uint8_t wireMagic0 = 'N';
constexpr std::uint8_t wireMagic1 = 'R';
constexpr std::uint8_t wireVersion = 1;

enum class FrameType : std::uint8_t
{
    Delta = 1,      ///< one (line, content) pair of an epoch's delta
    EpochClose = 2, ///< end of an epoch's delta; arg = delta count
    LateDelta = 3,  ///< amendment to an already-shipped epoch
};

constexpr std::size_t headerBytes = 32;
constexpr std::size_t crcBytes = 4;
constexpr std::size_t closeFrameBytes = headerBytes + crcBytes;
constexpr std::size_t deltaFrameBytes =
    headerBytes + lineBytes + crcBytes;

struct Frame
{
    FrameType type = FrameType::Delta;
    std::uint32_t generation = 0;
    EpochWide epoch = 0;
    /** Line address (Delta/LateDelta) or delta count (EpochClose). */
    std::uint64_t arg = 0;
    std::uint64_t frameId = 0;
    LineData payload{};

    bool
    hasPayload() const
    {
        return type != FrameType::EpochClose;
    }

    std::size_t
    wireBytes() const
    {
        return hasPayload() ? deltaFrameBytes : closeFrameBytes;
    }
};

/** CRC-32 (IEEE 802.3, reflected), table-driven. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n,
                    std::uint32_t seed = 0);

/** Serialize @p f into its wire representation. */
std::vector<std::uint8_t> encode(const Frame &f);

/**
 * Streaming frame decoder. feed() appends raw bytes; poll() yields
 * the next intact frame or nullopt when the buffer holds no complete
 * valid frame (call until nullopt after each feed).
 */
class Decoder
{
  public:
    void feed(const std::uint8_t *data, std::size_t n);

    void
    feed(const std::vector<std::uint8_t> &bytes)
    {
        feed(bytes.data(), bytes.size());
    }

    std::optional<Frame> poll();

    std::uint64_t framesDecoded() const { return decoded; }
    std::uint64_t crcErrors() const { return badCrc; }
    std::uint64_t badVersions() const { return badVersion; }
    /** Scan restarts after garbage (one per corrupt/garbage run). */
    std::uint64_t resyncs() const { return resyncCount; }
    std::uint64_t bytesDiscarded() const { return discarded; }

  private:
    /** Drop one buffered byte while scanning for the next magic. */
    void skipByte();

    std::vector<std::uint8_t> buf;
    std::size_t pos = 0;
    bool scanning = false;
    std::uint64_t decoded = 0;
    std::uint64_t badCrc = 0;
    std::uint64_t badVersion = 0;
    std::uint64_t resyncCount = 0;
    std::uint64_t discarded = 0;
};

} // namespace repl
} // namespace nvo

#endif // NVO_REPL_WIRE_HH

/**
 * @file
 * Little-endian byte stream writer/reader.
 *
 * The durability layer's codec primitives, hoisted out of store/codec
 * so component state serialization (live-point checkpoints) and the
 * result codec share one bit-exact encoding: every double is written
 * as its raw IEEE-754 bit pattern, every integer little-endian, every
 * string length-prefixed. Reading is total — each read reports
 * success instead of throwing — so corrupt bytes degrade to a decode
 * failure, never UB.
 */

#ifndef PVAR_SIM_BYTES_HH
#define PVAR_SIM_BYTES_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace pvar
{

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        _out.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        char b[4];
        for (int i = 0; i < 4; ++i)
            b[i] = static_cast<char>(v >> (8 * i));
        _out.append(b, sizeof(b));
    }

    void
    u64(std::uint64_t v)
    {
        char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<char>(v >> (8 * i));
        _out.append(b, sizeof(b));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        _out.append(s);
    }

    /** Pre-size for @p bytes of output (the bytes do not change). */
    void reserve(std::size_t bytes) { _out.reserve(bytes); }

    /** Bytes written so far. */
    std::size_t size() const { return _out.size(); }

    std::string take() { return std::move(_out); }

  private:
    std::string _out;
};

/** Cursor over immutable bytes; every read reports success. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : _bytes(bytes) {}

    bool
    u8(std::uint8_t &v)
    {
        if (_pos + 1 > _bytes.size())
            return false;
        v = static_cast<std::uint8_t>(_bytes[_pos++]);
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        if (_pos + 4 > _bytes.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(_bytes[_pos + i]))
                 << (8 * i);
        _pos += 4;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        if (_pos + 8 > _bytes.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(_bytes[_pos + i]))
                 << (8 * i);
        _pos += 8;
        return true;
    }

    bool
    i64(std::int64_t &v)
    {
        std::uint64_t u = 0;
        if (!u64(u))
            return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }

    bool
    f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool
    str(std::string &s)
    {
        std::uint32_t len = 0;
        if (!u32(len) || _pos + len > _bytes.size())
            return false;
        s.assign(_bytes.data() + _pos, len);
        _pos += len;
        return true;
    }

    /** Skip @p n bytes. */
    bool
    skip(std::size_t n)
    {
        if (_pos + n > _bytes.size())
            return false;
        _pos += n;
        return true;
    }

    /** Current cursor position. */
    std::size_t pos() const { return _pos; }

    /** Bytes remaining past the cursor. */
    std::size_t remaining() const { return _bytes.size() - _pos; }

    bool done() const { return _pos == _bytes.size(); }

  private:
    std::string_view _bytes;
    std::size_t _pos = 0;
};

/**
 * 64-bit FNV-1a digest of @p bytes.
 *
 * The self-check serialized state carries inside its own framing, so
 * a flipped payload byte is caught at decode time even when the
 * transport (an in-memory cache, a foreign store) has no checksum of
 * its own. Not cryptographic — it defends against corruption, not
 * adversaries.
 */
inline std::uint64_t
fnv1a64(const char *data, std::size_t size)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace pvar

#endif // PVAR_SIM_BYTES_HH

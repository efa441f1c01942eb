/**
 * @file
 * Crash-safe append-only record log.
 *
 * The durability primitive under the experiment store: a single flat
 * file of length-prefixed, CRC32-checksummed (key, value) records.
 * Appends only ever grow the file, so the only failure mode a crash
 * (or a torn write) can produce is an invalid *tail*; open() scans the
 * file, keeps the longest prefix of valid records, and truncates the
 * rest. A record that survives recovery round-trips bit-identically —
 * the CRC covers every payload byte — and a record that does not
 * simply vanishes, which callers treat as "recompute". Recovery walks
 * the length prefixes to find the record boundaries, verifies the
 * payloads on every core, and hands the valid prefix to an optional
 * visitor in file order, so an owner builds its index while the file
 * is read once.
 *
 * Byte-level format (all integers little-endian; see DESIGN.md §2.4):
 *
 *   file    := magic record*
 *   magic   := "PVARLOG1"                      (8 bytes)
 *   record  := length u32 | crc32 u32 | payload
 *   payload := key_len u32 | key bytes | value_len u32 | value bytes
 *
 * `length` is the payload byte count and `crc32` is the IEEE CRC-32 of
 * the payload. Durability is batched: every syncEvery-th append (and
 * every explicit sync()) issues an fsync, so at most a bounded suffix
 * of recent appends is exposed to power loss; a SIGKILL alone loses
 * nothing that reached the page cache.
 */

#ifndef PVAR_STORE_RECORD_LOG_HH
#define PVAR_STORE_RECORD_LOG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pvar
{

/**
 * IEEE 802.3 CRC-32 (the zlib/PNG polynomial) of @p size bytes.
 *
 * On x86-64 CPUs with PCLMULQDQ and SSE4.1 the whole 64-byte blocks go
 * through a carry-less-multiply folding kernel (≈10× the table path),
 * and the slice-by-8 tables take the tail below 64 bytes; elsewhere
 * the tables take everything. The CPU is probed once, on the first
 * call of at least 64 bytes. Both paths compute the same function, so
 * a log written on one host verifies on any other.
 */
std::uint32_t crc32(const void *data, std::size_t size);

/** crc32() through the slice-by-8 tables alone, whatever the CPU. */
std::uint32_t crc32Portable(const void *data, std::size_t size);

/** True when crc32() uses the carry-less-multiply kernel here. */
bool crc32UsesClmul();

/**
 * Called with a valid record's file offset, key and value. The views
 * point into a read buffer and are valid only for the call.
 */
using RecordVisitor = std::function<void(std::int64_t offset,
                                         std::string_view key,
                                         std::string_view value)>;

/** Counters describing one opened log. */
struct RecordLogStats
{
    std::uint64_t records = 0;        ///< valid records in the file
    std::uint64_t bytes = 0;          ///< current file size
    std::uint64_t truncatedBytes = 0; ///< torn tail dropped at open()
    std::uint64_t appends = 0;        ///< records appended this session
    std::uint64_t syncs = 0;          ///< fsyncs issued this session
    std::uint64_t failedAppends = 0;  ///< write() failures this session
    std::uint64_t failedSyncs = 0;    ///< fsync() failures this session
};

/**
 * One open record log file. Reads and writes follow a readers-writer
 * contract: any number of threads may call the const readAt() at
 * once, each with its own buffer, but every other member must not
 * overlap any other call. The owning ExperimentStore enforces it with
 * a shared mutex.
 */
class RecordLog
{
  public:
    /**
     * Open (creating if absent) the log at @p path, recovering from
     * any torn tail. @p sync_every batches fsyncs: 1 syncs every
     * append, N syncs every Nth, 0 leaves durability to the OS.
     * @p on_record (may be empty) sees every record that survives
     * recovery, in file order, on the calling thread. Fatal when the
     * file cannot be created or opened.
     */
    explicit RecordLog(std::string path, int sync_every = 8,
                       const RecordVisitor &on_record = {});
    ~RecordLog();

    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /**
     * Append one record; returns its file offset (of the length
     * prefix). Returns -1 and warns on I/O failure — the caller
     * degrades to compute-only operation.
     */
    std::int64_t append(std::string_view key, std::string_view value);

    /**
     * Read the record at @p offset (as returned by append() or
     * scan()) into @p buf, which grows to the payload size. Returns
     * false — never throws, never crashes — on any structural or
     * checksum failure, and then releases @p buf, which a corrupt
     * length may have grown far past any real record. On success
     * @p key and @p value view @p buf, valid until it next changes.
     *
     * Safe to call from many threads at once, each with its own
     * @p buf, as long as no append() or sync() runs meanwhile.
     */
    bool readAt(std::int64_t offset, std::vector<unsigned char> &buf,
                std::string_view &key, std::string_view &value) const;

    /**
     * readAt() into the log's own buffer: the views stay valid until
     * the next read through this overload. Not for concurrent use.
     */
    bool readAt(std::int64_t offset, std::string_view &key,
                std::string_view &value);

    /**
     * Visit every valid record in file order. Stops at the first
     * invalid record (by construction only a recovered-then-appended
     * file has none). The callback gets the record's offset.
     */
    void scan(const RecordVisitor &fn);

    /**
     * Flush batched appends to disk now (fsync). A failed fsync is a
     * *missed durability point*, not a success: it is counted, the log
     * is marked degraded, and the unsynced window stays open so a
     * later sync can retry. When nothing was written since the last
     * good fsync the syscall is skipped, but the store.fsync fault
     * site and the counters see the call exactly as a real one. A log
     * opened on records is dirty until its first good sync: the
     * writer before may have died before its own fsync.
     */
    void sync();

    /** True when bytes may have reached the file since the last good
     *  fsync, so the next sync() issues the syscall. */
    bool dirty() const { return _dirty; }

    /**
     * True once any append or fsync has failed this session: data may
     * have been lost, so owners should stop trusting the log for new
     * writes (the ExperimentStore downgrades to memory-only).
     */
    bool degraded() const { return _degraded; }

    RecordLogStats stats() const { return _stats; }
    const std::string &path() const { return _path; }

    /** Payload bytes one record with these sizes occupies on disk. */
    static std::size_t recordBytes(std::size_t key_size,
                                   std::size_t value_size);

  private:
    std::string _path;
    int _fd = -1;
    int _syncEvery;
    int _unsynced = 0;
    /// Bytes may have reached the file since the last good fsync.
    bool _dirty = false;
    std::int64_t _end = 0; ///< append position (file size)
    bool _degraded = false;
    RecordLogStats _stats;
    // The buffer of the single-reader readAt() overload and scan():
    // it grows to the largest record they read. Recovery never uses
    // it, so an opened log holds no record in memory.
    std::vector<unsigned char> _readBuf;

    void recover(const RecordVisitor &on_record);
    /**
     * Check the records that start at @p offsets (all but its last
     * entry, which is where the last record ends) on every core, each
     * lane in a buffer of its own. Returns how many leading records
     * pass every check of readAt().
     */
    std::size_t verifiedPrefix(const std::vector<std::int64_t> &offsets) const;
    /**
     * pread the @p length-byte payload of the record at @p offset into
     * @p buf and split it into @p key and @p value: readAt() without
     * the checksum. False on a short read or lengths that do not add
     * up.
     */
    bool readPayload(std::int64_t offset, std::uint32_t length,
                     std::vector<unsigned char> &buf,
                     std::string_view &key, std::string_view &value) const;
};

} // namespace pvar

#endif // PVAR_STORE_RECORD_LOG_HH

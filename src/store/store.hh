/**
 * @file
 * The durable experiment store: a content-addressed map from the
 * canonical experiment key (the exact-double (spec, unit, config)
 * JSON the in-memory ResultCache already hashes) to a persisted
 * ExperimentResult, backed by an append-only RecordLog.
 *
 * On open, the log's recovery scan (torn tail truncated) feeds each
 * surviving record to the in-memory index of content digest → file
 * offset, so opening reads the file once; later records supersede
 * earlier ones with the same digest, exactly like the LRU's overwrite
 * semantics. Every read re-verifies the full
 * key text against the caller's key and re-decodes through the
 * checksummed log, so a digest collision or on-disk corruption
 * degrades to a miss — never a wrong result.
 *
 * compact() rewrites the log keeping only the live record per digest
 * (dropping superseded versions and records whose value no longer
 * decodes), then atomically renames it into place: a crash during
 * compaction leaves either the old or the new file, both valid.
 *
 * Thread-safe: the study scheduler calls in from every worker. Reads
 * run concurrently: get() and getBytes() hold the store's shared lock
 * only while they find their record and read it into a buffer of
 * their own, and check the key and decode after releasing it. Writes,
 * sync(), compact() and forEach() hold it exclusively.
 */

#ifndef PVAR_STORE_STORE_HH
#define PVAR_STORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "accubench/result.hh"
#include "store/record_log.hh"

namespace pvar
{

/** Point-in-time store counters (surfaced on /healthz and storectl). */
struct ExperimentStoreStats
{
    std::uint64_t records = 0;        ///< live (indexed) records
    std::uint64_t logRecords = 0;     ///< records in the log file
    std::uint64_t bytes = 0;          ///< log file size
    std::uint64_t livePointRecords = 0; ///< live-point records (live)
    std::uint64_t livePointBytes = 0;   ///< their value bytes
    std::uint64_t truncatedBytes = 0; ///< torn tail dropped at open
    std::uint64_t hits = 0;           ///< get() served from disk
    std::uint64_t misses = 0;         ///< get() not found / degraded
    std::uint64_t appends = 0;        ///< put() records this session
    std::uint64_t syncs = 0;          ///< fsyncs this session
    std::uint64_t failedAppends = 0;  ///< lost writes this session
    std::uint64_t failedSyncs = 0;    ///< missed durability points
    bool degraded = false;            ///< memory-only (I/O failed)
    bool degradedMarker = false;      ///< on-disk marker present
};

class ExperimentStore
{
  public:
    /**
     * Open (creating directory and log as needed) the store rooted at
     * @p dir; the log lives at dir/experiments.log. @p sync_every
     * batches fsyncs (see RecordLog). Fatal when the directory or log
     * cannot be created — a requested --cache-dir that cannot work
     * should fail loudly at startup, not quietly compute everything.
     */
    explicit ExperimentStore(const std::string &dir,
                             int sync_every = 8);

    /**
     * Look up @p key_text. True and fills @p out only when a record
     * with the exact same key bytes is present and its value decodes;
     * every other outcome (absent, superseded-then-corrupted, digest
     * collision) is a miss.
     */
    bool get(const std::string &key_text, ExperimentResult &out);

    /** Persist (or supersede) the record for @p key_text. */
    void put(const std::string &key_text,
             const ExperimentResult &result);

    /**
     * @name Raw record access (live-point checkpoints).
     *
     * Live points persist opaque simulator state (codec v3, see
     * store/codec.hh) under the same digest-indexed log as results.
     * getBytes applies the identical safety ladder as get(): absent,
     * key-text mismatch, or a structurally invalid live-point value
     * are all misses (the corrupt entry is dropped from the index so
     * a recompute supersedes it). putBytes refuses values that do not
     * validate as live points — the typed put() is the only door for
     * result records, so the log never holds a third kind.
     * @{
     */
    bool getBytes(const std::string &key_text, std::string &out);
    void putBytes(const std::string &key_text,
                  const std::string &value);
    /** @} */

    /** fsync any batched appends. */
    void sync();

    /**
     * Rewrite the log keeping one live, decodable record per digest.
     * Returns the number of records dropped. Fatal on I/O failure
     * while writing the replacement (the original is untouched).
     */
    std::uint64_t compact();

    /**
     * Visit every live *result* record (decoded) in file order; used
     * by pvar_storectl verify/export. Records that fail decoding are
     * reported through @p bad (may be nullptr). Live-point records
     * are not decoded here: structurally valid ones are counted into
     * @p live_points (may be nullptr), invalid ones into @p bad.
     */
    void forEach(const std::function<void(const std::string &key,
                                          const ExperimentResult &)> &fn,
                 std::uint64_t *bad = nullptr,
                 std::uint64_t *live_points = nullptr);

    ExperimentStoreStats stats() const;

    const std::string &logPath() const;

    /**
     * True once this session has lost a write or a durability point:
     * the store has downgraded to memory-only (get() misses, put()
     * no-ops) so callers keep computing correct results that simply
     * are not persisted. Reopening the directory recovers.
     */
    bool degraded() const;

    /** Path of the on-disk degradation marker (dir/store.degraded). */
    std::string markerPath() const;

  private:
    mutable std::shared_mutex _mutex;
    std::string _dir;
    int _syncEvery;
    std::unique_ptr<RecordLog> _log;
    std::unordered_map<std::string, std::int64_t> _index;
    // Digest → value size for live (indexed) live-point records, so
    // stats() can report kind counts without rescanning the log.
    std::unordered_map<std::string, std::uint64_t> _livePointSizes;
    // Bumped by concurrent readers, so atomic; stats() reports them
    // as plain fields.
    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
    bool _degraded = false;     ///< this session hit an I/O failure
    bool _markerOnDisk = false; ///< marker file currently exists
    // Read buffers not lent to a get() or getBytes() right now: the
    // store keeps one per reader it had at once, each grown to the
    // largest record it held, and frees them when it closes.
    std::mutex _buffersMutex;
    std::vector<std::vector<unsigned char>> _buffers;

    /**
     * The read path of get() and getBytes(): a hit when @p key_text's
     * record reads back with the same key text and @p accept takes its
     * value. Any other outcome is a miss, and a record that was found
     * but failed a check leaves the index.
     */
    bool readRecord(const std::string &key_text,
                    const std::function<bool(std::string_view)> &accept);
    /** (Re)open the log at @p path, indexing it during recovery. */
    void openLogLocked(const std::string &path);
    /** Point the index at the record for @p digest at @p offset. */
    void indexLocked(std::string digest, std::int64_t offset,
                     std::string_view value);
    void noteDegradedLocked();
    void clearMarkerLocked();
};

} // namespace pvar

#endif // PVAR_STORE_STORE_HH

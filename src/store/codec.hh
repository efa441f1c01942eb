/**
 * @file
 * Bit-exact binary serialization of ExperimentResult.
 *
 * The store's value format. Binary rather than JSON because the
 * durability contract is *bit-identical* round-trips: every double is
 * stored as its raw IEEE-754 bit pattern (so -0.0, denormals, and
 * values that no decimal rendering reproduces survive), every Time as
 * its raw microsecond count. Encoding the decode of an encode yields
 * the same bytes, which the fault-injection tests lean on.
 *
 * Layout (little-endian; str := u32 length + bytes; f64 := IEEE-754
 * bits as u64; see DESIGN.md §2.4):
 *
 *   value   := version u32 (=1)
 *              unitId str | model str | socName str
 *              n_iterations u32 | iteration*
 *              n_channels u32 | channel*
 *   iteration := score f64 | workload_energy_j f64
 *              | total_energy_j f64 | warmup_us i64 | cooldown_us i64
 *              | workload_us i64 | temp_at_start_c f64
 *              | peak_temp_c f64 | cooldown_reached u8
 *   channel := name str | n_samples u64 | (when_us i64, value f64)*
 *              (the sample block of sim/trace.hh, shared with
 *              live-point state)
 *
 * Decoding is total: any truncated, oversized, or structurally wrong
 * input returns false instead of throwing or crashing, so on-disk
 * corruption degrades to a cache miss.
 */

#ifndef PVAR_STORE_CODEC_HH
#define PVAR_STORE_CODEC_HH

#include <string>
#include <string_view>

#include "accubench/result.hh"

namespace pvar
{

/** Serialize @p result into the store's binary value format. */
std::string encodeExperimentResult(const ExperimentResult &result);

/**
 * Parse a binary value back into @p out. Returns false (leaving @p out
 * unspecified) on any malformed input; never throws.
 */
bool decodeExperimentResult(std::string_view bytes,
                            ExperimentResult &out);

/**
 * Live-point records (codec v3) share the log with results but hold
 * opaque simulator state, not an ExperimentResult. The value is
 * self-describing so the store can validate and retain records whose
 * payload semantics it does not know:
 *
 *   livepoint := version u32 (=3)
 *                digest u64 (FNV-1a of every byte after this field)
 *                n_sections u32
 *                section*
 *   section   := tag u32 | payload str (u32 length + bytes)
 *
 * The digest makes the record self-checking: a single flipped bit
 * anywhere in the body fails validation even when the transport has
 * no checksum of its own (the record log's CRC is a second,
 * independent layer). Section tags and payload layouts belong to the
 * accubench layer (batch.cc); see DESIGN.md §2.8.
 */
constexpr std::uint32_t kLivePointVersion = 3;

/** Framing sanity cap for live-point section counts. */
constexpr std::uint32_t kMaxLivePointSections = 64;

/** True when @p bytes carries the live-point version tag. */
bool valueIsLivePoint(std::string_view bytes);

/**
 * Structural validation of a live-point value: version tag, section
 * framing, and no trailing bytes. Does not interpret payloads.
 */
bool validateLivePointValue(std::string_view bytes);

} // namespace pvar

#endif // PVAR_STORE_CODEC_HH

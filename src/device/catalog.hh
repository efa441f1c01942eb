/**
 * @file
 * Device catalog: the five phone models of the paper's study (plus the
 * SD-835 extension), each defined as a declarative DeviceSpec.
 *
 * Every model is pure data — a DeviceSpec consumed by the generic
 * buildDevice(). Units are built through the name-keyed
 * DeviceRegistry (registry.hh) or makeUnitForSoc() (fleet.hh). Units
 * are identified the way the paper identifies them: Nexus 5 / Nexus 6
 * units by CPU bin (their kernels expose it), later units by a device
 * id (binning hidden; "dev-363", "dev-488"...).
 *
 * The corner parameters of every unit live in registry.cc and are
 * calibrated so the simulated study reproduces Table II.
 */

#ifndef PVAR_DEVICE_CATALOG_HH
#define PVAR_DEVICE_CATALOG_HH

#include "device/spec.hh"
#include "silicon/process_node.hh"
#include "silicon/vf_table.hh"

namespace pvar
{

/** @name Nexus 5 (Snapdragon 800, 28 nm, 4x Krait-400). @{ */

/** The model spec, including the Table I per-bin anchor voltages. */
DeviceSpec nexus5Spec();

/**
 * The kernel voltage table of paper Table I for one bin (0..6),
 * expanded to the full 8-step frequency ladder by interpolation.
 */
VfTable nexus5BinTable(int bin);

/** Raw Table I voltage (mV) for a bin at one of the five published
 *  frequencies {300, 729, 960, 1574, 2265}; test hook. */
double nexus5TableIMillivolts(int bin, double freq_mhz);

/** @} */

/** @name Nexus 6 (Snapdragon 805, 28 nm, 4x Krait-450). @{ */
DeviceSpec nexus6Spec();
/** @} */

/** @name Nexus 6P (Snapdragon 810, 20 nm, 4x A57 + 4x A53, RBCPR). @{ */
DeviceSpec nexus6pSpec();
/** @} */

/** @name LG G5 (Snapdragon 820, 14 nm, 2+2 Kryo, V-in throttle). @{ */
DeviceSpec lgG5Spec();
/** @} */

/** @name Google Pixel (Snapdragon 821, 14 nm, 2+2 Kryo). @{ */
DeviceSpec pixelSpec();
/** @} */

/** @name Google Pixel 2 (Snapdragon 835, 10 nm) — EXTENSION. @{ */

/** The 10 nm LPE node the extension predicts with (not paper data). */
ProcessNode node10nmLPE();

DeviceSpec pixel2Spec();
/** @} */

} // namespace pvar

#endif // PVAR_DEVICE_CATALOG_HH

/**
 * @file
 * Bin detective: recover hidden CPU bins from benchmark scores.
 *
 * The paper's future work (§VI) proposes clustering crowdsourced
 * ACCUBENCH scores to reconstruct manufacturers' hidden bins. This
 * example plays the whole game end to end:
 *
 *  1. Manufacture a lot of SD-800 dies and voltage-bin them into 7
 *     bins (the ground truth, normally secret).
 *  2. Build a phone around one sampled die per bin and ACCUBENCH it.
 *  3. Hand only the scores to the k-means bin-recovery algorithm.
 *  4. Compare the recovered grouping against the ground truth.
 */

#include <cstdio>

#include "accubench/bin_clustering.hh"
#include "accubench/experiment.hh"
#include "device/catalog.hh"
#include "silicon/binning.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "sim/logging.hh"

using namespace pvar;

int
main()
{
    setLogLevel(LogLevel::Quiet);

    // -- 1. Manufacture and (secretly) bin a lot. -------------------------
    std::printf("Manufacturing a 400-die 28 nm lot and voltage-binning "
                "it into 7 bins...\n");
    VariationModel model(node28nmHPm());
    Rng rng(777);
    auto lot = model.sampleLot(rng, 400, "die");

    VoltageBinningConfig bin_cfg;
    for (double f : {300.0, 729.0, 960.0, 1574.0, 2265.0})
        bin_cfg.frequencyLadder.push_back(MegaHertz(f));
    bin_cfg.binCount = 7;
    bin_cfg.vFloor = Volts(0.75);
    VoltageBinningResult binning = voltageBin(lot, bin_cfg);

    // -- 2. Benchmark three units from bins 0, 3 and 6. --------------------
    // Adjacent bins overlap heavily, so a small crowdsourced sample
    // can only resolve well-separated tiers. The benchmark runs in a
    // warm (32 C) environment: throttling differentiates the bins
    // much more clearly when every unit is forced to mitigate.
    std::printf("Benchmarking units drawn from bins 0, 3, 6 at 32 C "
                "ambient...\n\n");
    std::vector<ScoredUnit> scored;
    std::vector<int> truth;

    for (int want_bin : {0, 3, 6}) {
        int sampled = 0;
        for (std::size_t i = 0; i < lot.size() && sampled < 3; ++i) {
            if (binning.assignment[i] != want_bin)
                continue;
            ++sampled;

            // Rebuild the same die corner inside a full phone.
            DeviceConfig cfg = resolveDeviceConfig(nexus5Spec(), want_bin);
            Die die(node28nmHPm(), lot[i].params());
            Device device(std::move(cfg), std::move(die));

            ExperimentConfig exp;
            exp.mode = WorkloadMode::Unconstrained;
            exp.iterations = 2;
            exp.thermabox.target = Celsius(32.0);
            exp.accubench.cooldownTarget = Celsius(40.0);
            ExperimentResult r = runExperiment(device, exp);

            std::printf("  %-10s (true bin %d): score %.1f\n",
                        lot[i].id().c_str(), want_bin, r.meanScore());
            scored.push_back(ScoredUnit{lot[i].id(), r.meanScore()});
            truth.push_back(want_bin);
        }
    }

    // -- 3. Recover bins from the scores alone. ---------------------------
    std::printf("\nClustering %zu scores with k-means (elbow-selected "
                "k)...\n",
                scored.size());
    Rng cluster_rng(42);
    BinRecovery recovered = recoverBins(scored, 7, cluster_rng);

    std::printf("Recovered %zu performance bins:\n",
                recovered.bins.size());
    for (const auto &bin : recovered.bins) {
        std::printf("  perf-bin %d (center %.1f):", bin.index,
                    bin.centerScore);
        for (const auto &id : bin.unitIds)
            std::printf(" %s", id.c_str());
        std::printf("\n");
    }

    // -- 4. Score the recovery against the ground truth. -------------------
    // Two units should share a recovered bin iff they share a true bin.
    int pairs = 0, agreements = 0;
    for (std::size_t a = 0; a < scored.size(); ++a) {
        for (std::size_t b = a + 1; b < scored.size(); ++b) {
            bool same_truth = truth[a] == truth[b];
            bool same_found =
                recovered.assignment[a] == recovered.assignment[b];
            ++pairs;
            agreements += same_truth == same_found;
        }
    }
    std::printf("\nPair agreement with hidden ground truth: %d/%d "
                "(%.0f%%)\n",
                agreements, pairs, 100.0 * agreements / pairs);
    std::printf("Note: recovered bins order fastest-to-slowest scores, "
                "while voltage bins order slowest (bin-0) to fastest — "
                "and the paper's counterintuitive result is visible "
                "here: the highest-voltage bin-0 units score highest.\n");
    return 0;
}

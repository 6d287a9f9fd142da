/**
 * @file
 * Reproduces the paper's evaluation (Section 6.4: Tables 2-4,
 * Figures 9 and 10) and the Section 1.1 offload-vs-onload extension
 * from one set of runs. Each distinct TiVoPC scenario runs once, at
 * the paper's 10 simulated minutes (HYDRA_BENCH_SECONDS overrides),
 * and every table and figure reads the results it needs; the paper's
 * values sit beside the measured ones in each row.
 *
 * The claim defended is the paper's shape: the offloaded server's
 * jitter is a needle at 5 ms while the sendfile and simple servers
 * centre on 6 and 7 ms with tick-quantized spread; offloading leaves
 * host CPU and L2 at idle; onloading matches offload jitter but pins
 * a whole host core and still crosses the bus per packet. Each
 * section ends with yes/NO shape checks of those claims, and the
 * driver exits 1 when any check says NO.
 *
 * HYDRA_BENCH_CSV=<dir> exports the raw Figure 9 jitter series.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.hh"
#include "tivo/harness.hh"

namespace {

using namespace hydra;
using namespace hydra::tivo;

/** Simulated measurement duration (default: the paper's 10 min). */
sim::SimTime
benchDuration()
{
    const char *env = std::getenv("HYDRA_BENCH_SECONDS");
    if (!env)
        return sim::seconds(600);
    long long seconds = 0;
    std::string why;
    if (!parseIntIn(env, 1, sim::maxCount(sim::seconds(1)), seconds, why)) {
        std::fprintf(stderr, "paper_eval: HYDRA_BENCH_SECONDS: %s, got '%s'\n",
                     why.c_str(), env);
        std::exit(2);
    }
    return sim::seconds(static_cast<std::uint64_t>(seconds));
}

/** The standard testbed configuration for one scenario. */
TestbedConfig
scenarioConfig(ServerKind server, ClientKind client)
{
    TestbedConfig config;
    config.server = server;
    config.client = client;
    config.duration = benchDuration();
    config.warmup = sim::seconds(5);
    config.sampleInterval = sim::seconds(5); // the paper's cadence
    config.seed = 1;
    return config;
}

ScenarioResult
runScenario(ServerKind server, ClientKind client)
{
    Testbed testbed(scenarioConfig(server, client));
    return testbed.run();
}

/** Every run the tables and figures read, each made once. */
struct Runs
{
    ScenarioResult idle;
    ScenarioResult simple;
    ScenarioResult sendfile;
    ScenarioResult offloaded;
    ScenarioResult onloaded;
    /** Busy share of the onloaded server's dedicated I/O core, %. */
    double onloadIoCorePct = 0.0;
    ScenarioResult userSpaceClient;
    ScenarioResult offloadedClient;
    /** D3 ablation: simple server with the host's OS noise off. */
    SampleSet quietSimpleJitter;
};

Runs
runAll()
{
    Runs runs;
    runs.idle = runScenario(ServerKind::None, ClientKind::None);
    runs.simple = runScenario(ServerKind::Simple, ClientKind::Receiver);
    runs.sendfile =
        runScenario(ServerKind::Sendfile, ClientKind::Receiver);
    runs.offloaded =
        runScenario(ServerKind::Offloaded, ClientKind::Receiver);

    // The onloaded run also reads its dedicated I/O core.
    const TestbedConfig onloadConfig =
        scenarioConfig(ServerKind::Onloaded, ClientKind::Receiver);
    Testbed onloadBed(onloadConfig);
    runs.onloaded = onloadBed.run();
    if (auto *server = dynamic_cast<OnloadedServer *>(onloadBed.server())) {
        // busyTime spans warmup + measured duration.
        const double wallSpan = static_cast<double>(
            onloadConfig.duration + onloadConfig.warmup);
        runs.onloadIoCorePct =
            100.0 * static_cast<double>(server->ioCpu().busyTime()) /
            wallSpan;
    }

    runs.userSpaceClient =
        runScenario(ServerKind::Offloaded, ClientKind::UserSpace);
    runs.offloadedClient =
        runScenario(ServerKind::Offloaded, ClientKind::Offloaded);

    TestbedConfig quiet =
        scenarioConfig(ServerKind::Simple, ClientKind::Receiver);
    quiet.duration = std::min<sim::SimTime>(quiet.duration,
                                            sim::seconds(120));
    quiet.quietHost = true;
    Testbed quietBed(quiet);
    runs.quietSimpleJitter = quietBed.run().interarrivalMs;
    return runs;
}

int failedChecks = 0;

/** Verdict text for one shape check; a failure sets the exit status. */
const char *
verdict(bool ok)
{
    if (!ok)
        ++failedChecks;
    return ok ? "yes" : "NO";
}

void
printSection(const char *title)
{
    std::printf("\n=== %s ===\n\n", title);
}

/** One "paper vs measured" row for a three-column statistic. */
void
printStatRow(const char *scenario, double paper_median,
             double paper_avg, double paper_std, const SampleSet &measured)
{
    const SummaryStats stats = measured.summary();
    std::printf("%-18s paper: %6.2f %6.2f %7.4f   measured: "
                "%6.2f %6.2f %7.4f\n",
                scenario, paper_median, paper_avg, paper_std,
                stats.p50, stats.mean, stats.stddev);
}

void
printStatHeader()
{
    std::printf("%-18s %-28s %-28s\n", "Scenario",
                "   paper (med avg std)", "  measured (med avg std)");
}

/**
 * When HYDRA_BENCH_CSV names a directory, dump a raw series there
 * for external plotting.
 */
void
maybeWriteCsv(const std::string &name, const SampleSet &samples)
{
    const char *dir = std::getenv("HYDRA_BENCH_CSV");
    if (!dir || samples.empty())
        return;
    const std::string path = std::string(dir) + "/" + name + ".csv";
    if (std::FILE *file = std::fopen(path.c_str(), "w")) {
        std::fprintf(file, "value\n");
        for (double v : samples.samples())
            std::fprintf(file, "%.6f\n", v);
        std::fclose(file);
        std::printf("(wrote %s)\n", path.c_str());
    }
}

void
printTable2(const Runs &runs)
{
    const SampleSet &simple = runs.simple.interarrivalMs;
    const SampleSet &sendfile = runs.sendfile.interarrivalMs;
    const SampleSet &offloaded = runs.offloaded.interarrivalMs;

    printSection("Table 2: client-side jitter statistics (ms)");
    printStatHeader();
    printStatRow("Simple Server", 6.99, 7.00, 0.5521, simple);
    printStatRow("Sendfile Server", 6.00, 5.99, 0.4720, sendfile);
    printStatRow("Offloaded Server", 5.00, 5.00, 0.0369, offloaded);

    std::printf("\nshape checks:\n");
    std::printf("  medians ordered 7 > 6 > 5 ms: %s\n",
                verdict(simple.median() > sendfile.median() &&
                        sendfile.median() > offloaded.median()));
    std::printf("  offloaded stddev >=10x below user-space: %s "
                "(%.0fx / %.0fx)\n",
                verdict(simple.stddev() > 10.0 * offloaded.stddev() &&
                        sendfile.stddev() > 10.0 * offloaded.stddev()),
                simple.stddev() / offloaded.stddev(),
                sendfile.stddev() / offloaded.stddev());
}

void
printDistribution(const char *name, const SampleSet &samples)
{
    const SummaryStats stats = samples.summary();
    std::printf("--- %s: n=%zu, median=%.3f ms, avg=%.3f ms, "
                "stddev=%.4f ms\n",
                name, stats.count, stats.p50, stats.mean, stats.stddev);

    Histogram histogram(4.0, 9.0, 25);
    for (double v : samples.samples())
        histogram.add(v);
    std::printf("%s", histogram.render(46).c_str());

    std::printf("CDF: ");
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0})
        std::printf("p%.0f=%.3f  ", p, samples.percentile(p));
    std::printf("\n\n");
}

void
printFigure9(const Runs &runs)
{
    const SampleSet &simple = runs.simple.interarrivalMs;
    const SampleSet &sendfile = runs.sendfile.interarrivalMs;
    const SampleSet &offloaded = runs.offloaded.interarrivalMs;

    printSection("Figure 9: jitter distribution (histogram + CDF)");
    printDistribution("Simple Server", simple);
    printDistribution("Sendfile Server", sendfile);
    printDistribution("Offloaded Server", offloaded);

    maybeWriteCsv("fig9_simple", simple);
    maybeWriteCsv("fig9_sendfile", sendfile);
    maybeWriteCsv("fig9_offloaded", offloaded);

    std::printf("shape: offloaded stddev is %.0fx below sendfile and "
                "%.0fx below simple\n",
                sendfile.stddev() / offloaded.stddev(),
                simple.stddev() / offloaded.stddev());
    std::printf("shape: medians %.2f > %.2f > %.2f ms (paper: 6.99 > "
                "6.00 > 5.00)\n",
                simple.median(), sendfile.median(), offloaded.median());

    // D3 ablation: with the host's stochastic OS noise disabled, the
    // user-space servers collapse onto exact tick multiples but stay
    // above 5 ms — the median offset is pure tick quantization, the
    // spread is run-queue noise.
    std::printf("\nablation (quiet host, simple server): median=%.3f "
                "ms, stddev=%.4f ms\n",
                runs.quietSimpleJitter.median(),
                runs.quietSimpleJitter.stddev());
    std::printf("-> quantization sets the median; OS noise supplies "
                "the spread\n");
}

void
printTable3(const Runs &runs)
{
    const SampleSet &idle = runs.idle.serverCpuPct;
    const SampleSet &simple = runs.simple.serverCpuPct;
    const SampleSet &sendfile = runs.sendfile.serverCpuPct;
    const SampleSet &offloaded = runs.offloaded.serverCpuPct;

    printSection("Table 3: server-side CPU utilization (%)");
    printStatHeader();
    printStatRow("Idle", 2.90, 2.86, 0.09, idle);
    printStatRow("Simple Server", 7.50, 7.50, 0.12, simple);
    printStatRow("Sendfile Server", 5.90, 6.20, 0.08, sendfile);
    printStatRow("Offloaded Server", 2.90, 2.86, 0.09, offloaded);

    std::printf("\nshape checks:\n");
    std::printf("  offloaded == idle (host oblivious): %s "
                "(delta %.3f%%)\n",
                verdict(std::abs(offloaded.mean() - idle.mean()) < 0.05),
                offloaded.mean() - idle.mean());
    std::printf("  simple > sendfile > idle: %s\n",
                verdict(simple.mean() > sendfile.mean() &&
                        sendfile.mean() > idle.mean() + 1.0));
}

void
printFigure10(const Runs &runs)
{
    const double base = runs.idle.serverL2MissRate.mean();
    const double simple = runs.simple.serverL2MissRate.mean();
    const double sendfile = runs.sendfile.serverL2MissRate.mean();
    const double offloaded = runs.offloaded.serverL2MissRate.mean();

    printSection("Figure 10: L2 slowdown, server side (normalized "
                 "miss rate)");

    struct Row
    {
        const char *name;
        double paperNormalized;
        double measuredRate;
    };
    const Row rows[] = {
        {"Idle", 1.00, base},
        {"Simple Server", 1.07, simple},
        {"Sendfile Server", 1.00, sendfile},
        {"Offloaded Server", 1.00, offloaded},
    };

    std::printf("%-18s %14s %16s %16s\n", "Scenario", "paper (norm)",
                "measured rate", "measured (norm)");
    for (const Row &row : rows) {
        const double normalized = row.measuredRate / base;
        std::printf("%-18s %14.2f %15.4f%% %15.3f  |%s\n", row.name,
                    row.paperNormalized, row.measuredRate * 100.0,
                    normalized,
                    std::string(static_cast<std::size_t>(
                                    normalized * 30.0),
                                '#')
                        .c_str());
    }

    std::printf("\nshape: simple > sendfile ~= offloaded ~= idle: %s\n",
                verdict(simple > 1.03 * sendfile &&
                        std::abs(offloaded - base) < 0.02 * base));
}

void
printTable4(const Runs &runs)
{
    const ScenarioResult &idle = runs.idle;
    const ScenarioResult &userSpace = runs.userSpaceClient;
    const ScenarioResult &offloaded = runs.offloadedClient;

    printSection("Table 4: client-side CPU utilization (%)");
    printStatHeader();
    printStatRow("Idle Client", 2.90, 2.86, 0.09, idle.clientCpuPct);
    printStatRow("User-space Client", 7.30, 6.90, 0.32,
                 userSpace.clientCpuPct);
    printStatRow("Offloaded Client", 2.90, 2.86, 0.09,
                 offloaded.clientCpuPct);

    std::printf("\nclient L2 misses (text: non-offloaded +12%% vs "
                "idle):\n");
    const double base = idle.clientL2MissRate.mean();
    std::printf("  idle:       %.4f%% (1.00x)\n", base * 100.0);
    std::printf("  user-space: %.4f%% (%.2fx)\n",
                userSpace.clientL2MissRate.mean() * 100.0,
                userSpace.clientL2MissRate.mean() / base);
    std::printf("  offloaded:  %.4f%% (%.2fx)\n",
                offloaded.clientL2MissRate.mean() * 100.0,
                offloaded.clientL2MissRate.mean() / base);

    std::printf("\nshape checks:\n");
    std::printf("  offloaded == idle ('no components left on the "
                "host'): %s (delta %.3f%%)\n",
                verdict(std::abs(offloaded.clientCpuPct.mean() -
                                 idle.clientCpuPct.mean()) < 0.05),
                offloaded.clientCpuPct.mean() - idle.clientCpuPct.mean());
    std::printf("  both clients display video: user=%llu, "
                "offloaded=%llu frames\n",
                static_cast<unsigned long long>(userSpace.framesDisplayed),
                static_cast<unsigned long long>(
                    offloaded.framesDisplayed));
}

void
printOnloadVsOffload(const Runs &runs)
{
    printSection("Extension: offloading vs onloading (Piglet-style)");

    std::printf("%-12s %10s %10s %12s %12s %14s %10s\n", "server",
                "med ms", "std ms", "app cpu %", "io-core %",
                "bus crossings", "watts*");
    auto row = [](const char *name, const ScenarioResult &r,
                  double ioCore, double watts) {
        std::printf("%-12s %10.3f %10.4f %12.2f %12.1f %14llu %10.1f\n",
                    name,
                    r.interarrivalMs.empty() ? 0.0
                                             : r.interarrivalMs.median(),
                    r.interarrivalMs.empty() ? 0.0
                                             : r.interarrivalMs.stddev(),
                    r.serverCpuPct.mean(), ioCore,
                    static_cast<unsigned long long>(r.serverBusCrossings),
                    watts);
    };
    // *active silicon beyond idle: P4 core 68 W, XScale 0.5 W (paper
    // Section 1.1 argument #3).
    row("idle", runs.idle, 0.0, 0.0);
    row("simple", runs.simple, 0.0, 68.0 * 0.046); // ~4.6 % of a core
    row("onloaded", runs.onloaded, runs.onloadIoCorePct, 68.0);
    row("offloaded", runs.offloaded, 0.0, 0.5);

    const SampleSet &onload = runs.onloaded.interarrivalMs;
    const SampleSet &offload = runs.offloaded.interarrivalMs;
    std::printf("\nshape checks:\n");
    std::printf("  onloaded jitter ~ offloaded jitter: %s (%.4f vs "
                "%.4f ms std)\n",
                verdict(onload.stddev() < 3.0 * offload.stddev()),
                onload.stddev(), offload.stddev());
    std::printf("  onloaded still crosses the bus per packet, "
                "offloaded never: %llu vs %llu\n",
                static_cast<unsigned long long>(
                    runs.onloaded.serverBusCrossings),
                static_cast<unsigned long long>(
                    runs.offloaded.serverBusCrossings));
    std::printf("  power argument: offload does the job for 0.5 W "
                "where onload pins a 68 W core\n");
}

} // namespace

int
main()
{
    std::printf("(simulated duration per scenario: %.0f s; "
                "set HYDRA_BENCH_SECONDS to change)\n",
                sim::toSeconds(benchDuration()));

    const Runs runs = runAll();
    printTable2(runs);
    printFigure9(runs);
    printTable3(runs);
    printFigure10(runs);
    printTable4(runs);
    printOnloadVsOffload(runs);

    if (failedChecks > 0) {
        std::fprintf(stderr, "paper_eval: %d shape check(s) failed\n",
                     failedChecks);
        return 1;
    }
    return 0;
}

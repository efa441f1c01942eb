/**
 * @file
 * pvar_served: serve the study protocol over HTTP.
 *
 *   pvar_served [options]
 *     --host ADDR       bind address (default 127.0.0.1)
 *     --port N          listen port; 0 picks one (default 8080)
 *     --port-file PATH  write the bound port to PATH (for --port 0)
 *     --workers N       concurrent /study jobs (default 2)
 *     --queue N         pending-study queue depth (default 8)
 *     --max-conns N     open-connection cap (default 256)
 *     --idle-timeout MS per-connection idle deadline (default 5000)
 *     --jobs N          experiment workers per study (default: all
 *                       hardware threads)
 *     --iterations N    default iterations per experiment (default 5)
 *     --ambient C       default chamber target temperature
 *     --cache N         result-cache capacity in experiments
 *                       (default 128; 0 disables caching)
 *     --cache-dir DIR   persist results to an append-only store in
 *                       DIR and reload them on restart (warm starts;
 *                       crash-safe, see store/record_log.hh)
 *     --quiet           suppress progress logging
 *     --help            this text
 *
 * Endpoints: GET /healthz, GET /devices, POST /study — see
 * service/service.hh. SIGINT/SIGTERM drain gracefully: queued studies
 * finish, then the process exits 0.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include <memory>

#include "fault/fault.hh"
#include "report/fault_json.hh"
#include "service/service.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

using namespace pvar;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage()
{
    std::printf(
        "pvar_served: serve the ISPASS'19 study protocol over HTTP\n"
        "\n"
        "  --host ADDR       bind address (default 127.0.0.1)\n"
        "  --port N          listen port; 0 picks one (default 8080)\n"
        "  --port-file PATH  write the bound port to PATH\n"
        "  --workers N       concurrent /study jobs (default 2)\n"
        "  --queue N         pending-study queue depth (default 8)\n"
        "  --max-conns N     open-connection cap; beyond it accepts\n"
        "                    answer 503 and close (default 256)\n"
        "  --idle-timeout MS per-connection idle/slow-loris deadline\n"
        "                    in milliseconds (default 5000, min 100)\n"
        "  --jobs N          experiment workers per study (default:\n"
        "                    all hardware threads)\n"
        "  --iterations N    default iterations per experiment "
        "(default 5)\n"
        "  --ambient C       default chamber target temperature\n"
        "  --solver KIND     default thermal solver: \"stepped\"\n"
        "                    (bit-exact reference) or \"fast\"\n"
        "                    (analytic; agrees to tolerance)\n"
        "  --cache N         result-cache capacity (default 128;\n"
        "                    0 disables caching)\n"
        "  --cache-dir DIR   persist results to DIR and reload them\n"
        "                    on restart (crash-safe warm starts)\n"
        "  --fault-plan FILE install a deterministic fault-injection\n"
        "                    plan (JSON) for chaos replays\n"
        "  --quiet           suppress progress logging\n"
        "  --help            this text\n"
        "\n"
        "endpoints:\n"
        "  GET  /healthz     liveness + cache/queue/request counters\n"
        "  GET  /devices     the built-in registry as a fleet document\n"
        "  POST /study       run a study; body is a fleet document or\n"
        "                    {\"soc\": ...} / {\"device\": ...}, with\n"
        "                    optional \"iterations\"/\"ambient\"/\n"
        "                    \"solver\" keys\n");
}

/** Parse an integer option value or die with a one-line error. */
long long
intArg(const std::string &opt, const char *text, long long min)
{
    long long v = 0;
    if (!parseIntStrict(text, v) || v < min) {
        fatal("pvar_served: %s needs an integer >= %lld, got '%s'",
              opt.c_str(), min, text);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig cfg;
    cfg.port = 8080;
    cfg.study.jobs = 0; // all hardware threads per study
    std::string port_file;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("pvar_served: %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--host") {
            cfg.host = next();
        } else if (arg == "--port") {
            cfg.port = static_cast<int>(intArg(arg, next(), 0));
        } else if (arg == "--port-file") {
            port_file = next();
        } else if (arg == "--workers") {
            cfg.workers = static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--queue") {
            cfg.queueDepth =
                static_cast<std::size_t>(intArg(arg, next(), 1));
        } else if (arg == "--max-conns") {
            cfg.maxConns = static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--idle-timeout") {
            cfg.idleTimeoutMs =
                static_cast<int>(intArg(arg, next(), 100));
        } else if (arg == "--jobs") {
            cfg.study.jobs = static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--iterations") {
            cfg.study.iterations =
                static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--ambient") {
            double t = 0.0;
            const char *text = next();
            if (!parseDoubleStrict(text, t))
                fatal("pvar_served: --ambient needs a number, got '%s'",
                      text);
            cfg.study.thermabox.target = Celsius(t);
            cfg.study.accubench.cooldownTarget = Celsius(t + 6.0);
        } else if (arg == "--solver") {
            std::string kind = next();
            if (!parseSolverKind(kind, cfg.study.solver))
                fatal("pvar_served: --solver must be \"stepped\" or "
                      "\"fast\", got \"%s\"",
                      kind.c_str());
        } else if (arg == "--cache") {
            cfg.cacheEntries =
                static_cast<std::size_t>(intArg(arg, next(), 0));
        } else if (arg == "--cache-dir") {
            cfg.cacheDir = next();
        } else if (arg == "--fault-plan") {
            installFaultPlan(std::make_shared<FaultPlan>(
                loadFaultPlanFile(next())));
        } else if (arg == "--quiet") {
            setLogLevel(LogLevel::Quiet);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    StudyService service(std::move(cfg));
    service.start();

    if (!port_file.empty()) {
        std::ofstream f(port_file);
        if (!f)
            fatal("pvar_served: cannot write '%s'", port_file.c_str());
        f << service.port() << "\n";
    }

    while (!g_stop)
        ::usleep(100 * 1000);

    inform("pvar_served: signal received, draining");
    service.stop();
    return 0;
}

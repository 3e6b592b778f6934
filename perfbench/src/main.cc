/**
 * @file
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload <ingest|search|incident> --seed <n>
 *             --seconds <s> --trace <0|1> [--out-dir <dir>]
 *             [--wrong-reference]
 *
 * Runs one workload in this process, checks every answer against a
 * reference computed apart from the program, and prints as its last
 * stdout line one JSON object with `correct`, `attempted`, `failed`
 * and `metrics` (the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1). Progress and diagnostics go to stderr.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>

#include "bench.h"
#include "spans.h"

namespace perfbench {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v) {
        sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

size_t
samplesBeyond(size_t n, double q)
{
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    return n - std::min(rank, n);
}

size_t
minSamplesForTail(double q)
{
    size_t n = 1;
    while (samplesBeyond(n, q) < 10) {
        ++n;
    }
    return n;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back(Metric{name, value, unit});
}

void
Report::layer(const std::string &name, double value, const std::string &unit)
{
    layers_.push_back(Metric{name, value, unit});
}

void
Report::op(bool ok, std::string_view what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (logged_++ < 8) {
            std::fprintf(stderr, "perfbench: failed operation: %.*s\n",
                         static_cast<int>(what.size()), what.data());
        }
    }
}

void
Report::check(bool ok, std::string_view what)
{
    if (!ok) {
        correct_ = false;
        std::fprintf(stderr, "perfbench: check failed: %.*s\n",
                     static_cast<int>(what.size()), what.data());
    }
}

void
Report::note(const std::string &line) const
{
    std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

std::string
Report::metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(value, sizeof value, "%.17g", v);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}";
}

std::string
Report::endToEndJson() const
{
    return metricsJson(metrics_);
}

std::string
Report::json(bool traced) const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": " + metricsJson(traced ? layers_ : metrics_);
    return out + "}";
}

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<ingest|search|incident> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>] [--wrong-reference]\n",
                 why);
    return 2;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--wrong-reference") {
            args.wrong_reference = true;
            continue;
        }
        if (a != "--workload" && a != "--seed" && a != "--seconds" &&
            a != "--trace" && a != "--out-dir") {
            return usage(("unknown argument " + a).c_str());
        }
        if ((v = value()) == nullptr) {
            return usage(("missing value for " + a).c_str());
        }
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            args.trace = std::strcmp(v, "0") != 0;
        } else {
            args.out_dir = v;
        }
    }
    if (args.seconds <= 0) {
        return usage("--seconds must be positive");
    }

    Report report;
    Spans spans(args.trace);
    Context ctx{args, report, spans};
    int rc = 0;
    if (args.workload == "ingest") {
        rc = runIngest(ctx);
    } else if (args.workload == "search") {
        rc = runSearch(ctx);
    } else if (args.workload == "incident") {
        rc = runIncident(ctx);
    } else {
        return usage("unknown workload");
    }
    if (rc != 0) {
        return rc;
    }
    report.metric("peak_rss_MB", peakRssMb(), "MB");
    if (args.trace) {
        report.note("traced end-to-end " + report.endToEndJson());
        std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
        report.check(spans.write(path), "writing the span file " + path);
        report.note("wrote " + std::to_string(spans.size()) +
                    " spans to " + path);
    }
    std::printf("%s\n", report.json(args.trace).c_str());
    std::fflush(stdout);
    return 0;
}

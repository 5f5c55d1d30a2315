// btwc_bench: the repository benchmark's measuring program.
//
//   btwc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "btwc_bench: %s\n"
                 "usage: btwc_bench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\nworkloads:",
                 why);
    for (const std::string &name : perfbench::workload_names()) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parse_u64(const char *text, uint64_t *out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        return false;
    }
    *out = v;
    return true;
}

std::string
json_number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    uint64_t trace = 0;
    uint64_t seconds = 10;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + flag).c_str());
        }
        const char *value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            if (!parse_u64(value, &options.seed)) {
                return usage("--seed takes a non-negative integer");
            }
        } else if (flag == "--seconds") {
            if (!parse_u64(value, &seconds) || seconds < 1 ||
                seconds > 3600) {
                return usage("--seconds takes an integer in [1, 3600]");
            }
        } else if (flag == "--trace") {
            if (!parse_u64(value, &trace) || trace > 1) {
                return usage("--trace takes 0 or 1");
            }
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (options.workload.empty()) {
        return usage("--workload is required");
    }
    options.seconds = static_cast<double>(seconds);
    options.trace = trace == 1;

    perfbench::RunResult result;
    try {
        result = perfbench::run_workload(options);
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "btwc_bench: %s\n", e.what());
        return 3;
    }
    for (const std::string &line : result.lines) {
        std::printf("%s\n", line.c_str());
    }
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric &m = result.metrics[i];
        json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

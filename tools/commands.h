// Subcommand implementations of the `locpriv` CLI. Each function parses
// its own options and returns a process exit code; main() only routes.
#pragma once

#include <string>
#include <vector>

namespace locpriv::io {
class ArgParser;
class ParsedArgs;
}  // namespace locpriv::io
namespace locpriv::service {
struct GatewayConfig;
}  // namespace locpriv::service

namespace locpriv::cli {

using Args = std::vector<std::string>;

/// The gateway flags serve-sim and serve spell identically:
/// --queue-capacity, --max-sessions, --idle-timeout, --epsilon,
/// --budget-reports, --window, --downstream-us, --faults, --objectives.
void add_gateway_options(io::ArgParser& parser);
/// Fills the GatewayConfig fields those flags set.
void read_gateway_options(const io::ParsedArgs& parsed, service::GatewayConfig& cfg);

/// Synthesizes a dataset and writes it as CSV.
int cmd_generate(const Args& args);
/// Prints per-dataset properties and the PCA property ranking.
int cmd_profile(const Args& args);
/// Runs the modeling sweep and writes the raw sweep as JSON.
int cmd_sweep(const Args& args);
/// Fits the log-linear model from a sweep JSON and writes a model JSON.
int cmd_fit(const Args& args);
/// Inverts a model JSON against privacy/utility objectives.
int cmd_configure(const Args& args);
/// Protects a dataset CSV with a named mechanism and writes the result.
int cmd_protect(const Args& args);
/// Audits a protected dataset against the actual one with every metric.
int cmd_audit(const Args& args);
/// K-fold cross-validation of the model on a dataset.
int cmd_validate(const Args& args);
/// Renders a markdown report from sweep/model artifacts.
int cmd_report(const Args& args);
/// Sweeps several mechanisms and ranks their privacy/utility trade-offs.
int cmd_compare(const Args& args);
/// Cleans GPS glitches / stuck fixes out of a dataset CSV.
int cmd_clean(const Args& args);
/// Converts a dataset between CSV and the binary columnar format,
/// optionally verifying the round-trip.
int cmd_convert(const Args& args);
/// Simulated serving: replays a dataset through one in-process
/// concurrent obfuscation gateway and reports live telemetry. See
/// cmd_serve for the real multi-process network front end.
int cmd_serve_sim(const Args& args);
/// Real network serving: epoll event loop, binary wire protocol, N
/// forked shard processes over a shared-mmap dataset arena.
int cmd_serve(const Args& args);
/// Client-side probe of a running `serve` instance: shard map, a
/// round-trip report, aggregated telemetry, or a drain request.
int cmd_ping(const Args& args);
/// Lists built-in mechanisms with their ParameterSpecs.
int cmd_list_mechanisms(const Args& args);
/// Lists built-in metrics with their ParameterSpecs.
int cmd_list_metrics(const Args& args);

/// Top-level help text (lists subcommands).
[[nodiscard]] std::string main_usage();

}  // namespace locpriv::cli

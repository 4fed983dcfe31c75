#pragma once

#include <span>
#include <string_view>

#include "serve/scenarios.hpp"
#include "util/cli.hpp"

namespace speedbal::serve {

/// Build a ServeConfig from command-line flags (see servesim_main.cpp for
/// the flag reference). Throws std::invalid_argument — naming the valid
/// values — on unknown policy / dispatch / arrival / service names.
ServeConfig parse_serve_config(const Cli& cli);

/// The listing flags servesim and clustersim share: --list-policies,
/// --list-dispatch (`dispatch`, the tool's own table), --list-arrivals and
/// --list-services print one name per line. Returns false, printing
/// nothing, when none of them is given.
bool print_listing(const Cli& cli, std::span<const char* const> dispatch);

/// The complete serve front end shared by `servesim` and `simrun --serve`:
/// parse flags, run the scenario, print the stats table, write the optional
/// trace / JSON report. Returns the process exit code.
int serve_main(const Cli& cli, std::string_view tool);

}  // namespace speedbal::serve

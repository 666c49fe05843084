// The `fpr` suite-runner: one driveable entry point over the whole
// reproduction. Subcommands:
//
//   fpr list                      all registered proxy kernels (Table II)
//   fpr tables                    the static paper tables (I, II, III)
//   fpr run --kernel A,B ...      run a subset: op-mix assay + per-machine
//                                 model projection + roofline placement
//
// The command core is a library function taking explicit streams so the
// CLI is testable without spawning processes; src/cli/main.cpp is the
// only piece that touches argv/std::cout.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fpr::cli {

/// Process exit codes, shared by every fpr subcommand (and mirrored by
/// the standalone tools). Named so exit-path meaning stays greppable —
/// the bare-exit-code lint rule rejects integer literals in `return`
/// statements of command handlers.
inline constexpr int kExitOk = 0;        ///< command succeeded
inline constexpr int kExitFailure = 1;   ///< ran, but failed (I/O, verify)
inline constexpr int kExitUsage = 2;     ///< bad flags / unknown command
inline constexpr int kExitBadInput = 3;  ///< well-formed flags, bad data

/// Execute the `fpr` command line. `args` excludes the program name.
/// Normal output goes to `out`, diagnostics/usage errors to `err`.
/// Returns the process exit code (kExitOk, kExitUsage on usage errors,
/// kExitFailure on runtime errors, kExitBadInput on malformed inputs).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// The flags `command` takes, space-separated, each under its canonical
/// spelling (--kernel, --trace-refs, --machine); empty for an unknown
/// command.
std::string_view command_flags(std::string_view command);

/// True when `command` takes `flag` (or an alias of it, such as --refs
/// for --trace-refs). run_cli rejects every other flag with kExitUsage;
/// false for an unknown command.
bool command_owns_flag(std::string_view command, std::string_view flag);

}  // namespace fpr::cli

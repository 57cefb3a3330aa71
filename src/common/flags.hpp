// Tiny command-line flag parser for the example and bench binaries.
//
// Supports `--name=value` and boolean `--name` arguments.  Unknown flags are
// rejected so typos fail fast.  The paper harnesses use this for e.g.
// `--quick` (reduced sweeps) and `--seed=N`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dmfsgd::core {
struct ProtocolConfig;
}

namespace dmfsgd::common {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed or unknown flags.
  /// `allowed` lists the accepted flag names (without the leading dashes).
  Flags(int argc, const char* const* argv, const std::vector<std::string>& allowed);

  /// True if `--name` or `--name=...` was given.
  [[nodiscard]] bool Has(const std::string& name) const;

  /// String value, or `fallback` if not given.
  [[nodiscard]] std::string GetString(const std::string& name,
                                      const std::string& fallback) const;

  /// Integer value, or `fallback` if not given; throws on non-numeric value.
  [[nodiscard]] std::int64_t GetInt(const std::string& name,
                                    std::int64_t fallback) const;

  /// Double value, or `fallback` if not given; throws on non-numeric value.
  [[nodiscard]] double GetDouble(const std::string& name, double fallback) const;

  /// Boolean flag (present without value, or =true/=false).
  [[nodiscard]] bool GetBool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& Positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The flag names of the shared protocol knobs (core/protocol_config.hpp):
/// --rank, --eta, --lambda, --loss, --tau, --seed, --batch-size, --coalesce.
/// Binaries append these to their allow-list so every front end spells the
/// knobs the same way.
[[nodiscard]] std::vector<std::string> ProtocolFlagNames();

/// `base` plus ProtocolFlagNames() — the usual way a binary builds its
/// allow-list.
[[nodiscard]] std::vector<std::string> WithProtocolFlagNames(
    std::vector<std::string> base);

/// Applies the shared protocol flags onto `config`.  Absent flags keep the
/// config's current values, so the defaults live in ProtocolConfig alone;
/// --tau absent falls back to `tau_fallback` when it is > 0 (callers pass
/// the dataset's median value, the paper's threshold choice).  --batch-size
/// sets probe_burst; front-end couplings (e.g. the simulator's mini-batch
/// fold size under --coalesce) stay at the caller.  Throws
/// std::invalid_argument on malformed values.
void ApplyProtocolFlags(const Flags& flags, core::ProtocolConfig& config,
                        double tau_fallback = 0.0);

}  // namespace dmfsgd::common
